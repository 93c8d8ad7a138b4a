package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function: its name, start and end in nanoseconds since the
// tracer's origin, the index of the span that caused it (-1 for a root)
// and the job it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// reserve makes room for n more spans, so that the next n begin calls
// do not allocate. A caller that counts allocations around a call
// reserves before it starts counting, which keeps the tracer's own growth
// out of the count.
func (t *tracer) reserve(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = slices.Grow(t.spans, n)
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, job int) int {
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Job: job})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	return time.Duration(now - t.spans[i].Start)
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile stores the spans as one JSON array.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the union
// of the intervals its children cover, clipped to the span. Children may
// overlap one another (concurrent work); the union counts shared time
// once. Open spans count as zero.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		open := false
		for _, v := range ivs {
			if open && v.lo <= curHi {
				curHi = max(curHi, v.hi)
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = v.lo, v.hi, true
		}
		if open {
			covered += curHi - curLo
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// spanTotals sums duration and self time per span name.
func spanTotals(spans []span) map[string][2]int64 {
	self := selfTimes(spans)
	out := make(map[string][2]int64)
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		t := out[s.Name]
		t[0] += s.End - s.Start
		t[1] += self[i]
		out[s.Name] = t
	}
	return out
}
