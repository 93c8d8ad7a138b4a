package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pstap/internal/cube"
	"pstap/internal/serve"
	"pstap/internal/stap"
	"pstap/internal/wire"
)

// Job outcome kinds; every kind but kindOK counts as failed.
const (
	kindOK = iota
	kindTransport
	kindNonOK
	kindBusy
	kindMismatch
)

// outcome is one job as the generator saw it. Gap is how long the
// connection idled between its previous reply and this send.
type outcome struct {
	sent, done time.Time
	gap        time.Duration
	kind       int
}

// submitter sends pool job j on connection c and classifies the reply.
type submitter func(c, j int) int

// classify maps a reply to an outcome kind, checking its detections bit
// for bit against ref.
func classify(resp *serve.Response, err error, ref [][]stap.Detection) int {
	switch {
	case err != nil:
		return kindTransport
	case resp.Status == serve.StatusBusy:
		return kindBusy
	case resp.Status != serve.StatusOK:
		return kindNonOK
	case !sameDetections(resp.Detections, ref):
		return kindMismatch
	}
	return kindOK
}

// submitJob submits one job through a serve.Client and classifies the
// reply against ref.
func submitJob(cl *serve.Client, job []*cube.Cube, ref [][]stap.Detection) int {
	resp, err := cl.Do(&serve.Request{CPIs: job})
	return classify(resp, err, ref)
}

// dialLoad opens the generator's conns connections to addr and returns
// the submitter that drives them and a function that closes them. A
// closed loop has one job in flight per connection, so the submitter
// writes the pool's pre-encoded request frames and reads each reply in
// turn: the generator spends no CPU encoding cubes beside the SUT.
func dialLoad(addr string, jp *jobPool) (submitter, func(), error) {
	raw := make([]net.Conn, 0, conns)
	closeAll := func() {
		for _, c := range raw {
			c.Close()
		}
	}
	for i := 0; i < conns; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		raw = append(raw, conn)
	}
	return func(c, j int) int {
		if _, err := raw[c].Write(jp.frames[j]); err != nil {
			return kindTransport
		}
		resp := &serve.Response{}
		err := wire.ReadFrame(raw[c], resp)
		if err == nil && resp.ID != frameID(j) {
			err = fmt.Errorf("reply to request %d, want %d", resp.ID, frameID(j))
		}
		return classify(resp, err, jp.refs[j])
	}, closeAll, nil
}

// runClosed drives a closed loop: each connection keeps exactly one job
// in flight, sending the next pool job as soon as the previous reply
// arrives, until stop. A connection whose transport fails records the
// failure and stops.
func runClosed(pool int, stop time.Time, sub submitter) []outcome {
	var next atomic.Int64
	per := make([][]outcome, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			last := time.Time{}
			for time.Now().Before(stop) {
				j := int(next.Add(1)-1) % pool
				o := outcome{sent: time.Now()}
				if !last.IsZero() {
					o.gap = o.sent.Sub(last)
				}
				o.kind = sub(c, j)
				o.done = time.Now()
				last = o.done
				per[c] = append(per[c], o)
				if o.kind == kindTransport {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	var out []outcome
	for _, cs := range per {
		out = append(out, cs...)
	}
	return out
}

// window selects the outcomes that completed in the measurement window
// [t0, t1).
func window(all []outcome, t0, t1 time.Time) []outcome {
	var out []outcome
	for _, o := range all {
		if !o.done.Before(t0) && o.done.Before(t1) {
			out = append(out, o)
		}
	}
	return out
}

// loadStats is what one measured window yields.
type loadStats struct {
	attempted, ok                      int
	transport, nonOK, busy, mismatched int
	latMs                              []float64 // OK jobs
	genLateMs                          []float64 // reply-to-send gaps
	cpiPerS                            float64
}

// summarize folds the outcomes of a window. The rate is measured between
// the first and the last completion in the window, so it does not depend
// on where the window edges fall inside a job.
func summarize(ws []outcome, jobCPIs int) loadStats {
	st := loadStats{attempted: len(ws)}
	var first, last time.Time
	for _, o := range ws {
		switch o.kind {
		case kindOK:
			st.ok++
			st.latMs = append(st.latMs, ms(o.done.Sub(o.sent)))
			if first.IsZero() || o.done.Before(first) {
				first = o.done
			}
			if o.done.After(last) {
				last = o.done
			}
		case kindTransport:
			st.transport++
		case kindNonOK:
			st.nonOK++
		case kindBusy:
			st.busy++
		case kindMismatch:
			st.mismatched++
		}
		if o.gap > 0 {
			st.genLateMs = append(st.genLateMs, ms(o.gap))
		}
	}
	if st.ok > 1 {
		st.cpiPerS = float64((st.ok-1)*jobCPIs) / last.Sub(first).Seconds()
	}
	return st
}

func (st loadStats) failed() int { return st.transport + st.nonOK + st.busy + st.mismatched }

func (st loadStats) String() string {
	return fmt.Sprintf("attempted %d ok %d transport %d non-ok %d busy %d mismatched %d",
		st.attempted, st.ok, st.transport, st.nonOK, st.busy, st.mismatched)
}
