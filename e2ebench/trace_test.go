package main

import "testing"

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a by 10
		{Name: "c", Start: 55, End: 58, Parent: 0},  // inside b
		{Name: "d", Start: 90, End: 130, Parent: 0}, // runs past the root
		{Name: "e", Start: 35, End: 38, Parent: 2},  // grandchild: b's, not root's
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [90,100): 60 of root's 100 ns.
	want := []int64{40, 30, 27, 3, 40, 3}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	totals := spanTotals(spans)
	if got := totals["root"]; got != [2]int64{100, 40} {
		t.Errorf("root totals = %v", got)
	}
}

func TestSelfTimeOpenAndDisjoint(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 50, Parent: -1},
		{Name: "x", Start: 0, End: 10, Parent: 0},
		{Name: "y", Start: 20, End: 30, Parent: 0},
		{Name: "open", Start: 40, End: -1, Parent: 0},
	}
	self := selfTimes(spans)
	if self[0] != 30 || self[3] != 0 {
		t.Errorf("self = %v, want root 30 and open span 0", self)
	}
}

func TestTracerRecordsParentAndJob(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", -1, 7)
	child := tr.begin("child", root, 7)
	tr.end(child)
	tr.end(root)
	got := tr.snapshot()
	if len(got) != 2 || got[1].Parent != 0 || got[1].Job != 7 || got[0].End < got[1].End {
		t.Errorf("spans = %+v", got)
	}
}

func TestTracerReserveKeepsBeginFromAllocating(t *testing.T) {
	tr := newTracer()
	const runs = 100
	tr.reserve(runs + 1) // AllocsPerRun makes one warm-up call
	allocs := testing.AllocsPerRun(runs, func() { tr.end(tr.begin("x", -1, 0)) })
	if allocs != 0 {
		t.Errorf("begin after reserve allocated %v times per call", allocs)
	}
}
