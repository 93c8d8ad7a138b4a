package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	// Nearest rank never interpolates: p50 of four samples is the 2nd.
	if got := percentile([]float64{4, 1, 3, 2}, 50); got != 2 {
		t.Errorf("p50 of 1..4 = %v, want 2", got)
	}
	// p90 of 11 samples is rank ceil(9.9) = 10.
	var e []float64
	for i := 1; i <= 11; i++ {
		e = append(e, float64(i))
	}
	if got := percentile(e, 90); got != 10 {
		t.Errorf("p90 of 1..11 = %v, want 10", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	if s[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestHighestTailKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9},
	} {
		if got := highestTail(c.n, 10); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := highestTail(c.n, 10); p > 0 && c.n-nearestRank(c.n, p) < 10 {
			t.Errorf("n=%d: p%v leaves fewer than 10 beyond", c.n, p)
		}
	}
}

func TestFailedFracBase(t *testing.T) {
	// Every failure kind counts against the jobs attempted, not the jobs
	// that succeeded.
	if got := failedFrac(1, 2, 3, 4, 100); got != 0.1 {
		t.Errorf("failedFrac = %v, want 0.1", got)
	}
	if got := failedFrac(0, 0, 1, 0, 4); got != 0.25 {
		t.Errorf("one busy of four = %v, want 0.25", got)
	}
	if got := failedFrac(0, 0, 0, 0, 0); got != 0 {
		t.Errorf("no attempts = %v, want 0", got)
	}
}

func TestPerCPI(t *testing.T) {
	// 10 jobs of 8 CPIs over 4 s of CPU is 50 ms per CPI.
	if got := perCPI(4000, 10, 8); math.Abs(got-50) > 1e-12 {
		t.Errorf("perCPI = %v, want 50", got)
	}
	if got := perCPI(5, 0, 8); got != 0 {
		t.Errorf("no jobs = %v, want 0", got)
	}
}

func TestSummarizeClosedRateUsesCompletionSpan(t *testing.T) {
	base := testTime()
	var ws []outcome
	for i := 0; i < 5; i++ { // completions every 100 ms, 4 CPIs each
		done := base.Add(ms2d(float64(100 * i)))
		ws = append(ws, outcome{sent: done.Add(-ms2d(30)), done: done, gap: ms2d(float64(i))})
	}
	ws = append(ws, outcome{sent: base, done: base, kind: kindBusy})
	st := summarize(ws, 4)
	// 4 intervals of 100 ms deliver 16 CPIs after the first completion.
	if math.Abs(st.cpiPerS-40) > 1e-9 {
		t.Errorf("closed cpi_per_s = %v, want 40", st.cpiPerS)
	}
	// The first send on a connection has no reply before it, so no gap.
	if st.attempted != 6 || st.failed() != 1 || len(st.latMs) != 5 || st.latMs[0] != 30 || len(st.genLateMs) != 4 {
		t.Errorf("summary = %+v", st)
	}
}
