package stap

import (
	"testing"

	"pstap/internal/cube"
	"pstap/internal/linalg"
	"pstap/internal/radar"
)

// Allocation gates: the weight kernels reuse their per-state workspaces,
// so a warm CPI allocates only the fresh weight matrices it returns (the
// in-process pipeline hands those to the beamforming workers by pointer,
// so they cannot be recycled). Counts are deterministic; time is not
// gated here.

// warmHardState returns a medium hard-weight state that has seen two CPIs,
// plus the pre-extracted training rows of a third.
func warmHardState(tb testing.TB) (*HardWeightState, [][]*linalg.Matrix) {
	tb.Helper()
	p := radar.Medium()
	sc := radar.DefaultScene(p)
	hs := NewHardWeightState(p, sc.BeamAzimuths())
	for i := 0; i < 2; i++ {
		hs.Observe(DopplerFilter(p, sc.GenerateCPI(i), nil))
		hs.Compute()
	}
	d := DopplerFilter(p, sc.GenerateCPI(2), nil)
	return hs, ExtractHardRows(p, d, cube.Block{Lo: 0, Hi: p.K}, hs.Bins())
}

func TestHardWeightsWarmAllocs(t *testing.T) {
	hs, rows := warmHardState(t)
	p := radar.Medium()
	got := testing.AllocsPerRun(5, func() {
		hs.ObserveRows(rows)
		hs.Compute()
	})
	if limit := float64(p.NumSegments()*len(hs.Bins()) + 64); got > limit {
		t.Errorf("warm medium hard ObserveRows+Compute: %.0f allocs/CPI, limit %.0f", got, limit)
	}
}

func TestProcessorWarmAllocs(t *testing.T) {
	p := radar.Medium()
	sc := radar.DefaultScene(p)
	pr := NewProcessor(sc)
	raw := sc.GenerateCPI(0)
	for i := 0; i < 2; i++ {
		pr.Process(raw)
	}
	got := testing.AllocsPerRun(3, func() { pr.Process(raw) })
	// The result cubes, the weight slabs, per-call kernel scratch and the
	// detection list: about 50 at the time of writing, bounded at the
	// serial-CPI allocation target.
	const limit = 100
	if got > limit {
		t.Errorf("warm medium Processor.Process: %.0f allocs/CPI, limit %d", got, limit)
	}
}

func BenchmarkHardWeightsMedium(b *testing.B) {
	hs, rows := warmHardState(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hs.ObserveRows(rows)
		hs.Compute()
	}
}

func BenchmarkEasyWeightsMedium(b *testing.B) {
	p := radar.Medium()
	sc := radar.DefaultScene(p)
	es := NewEasyWeightState(p, sc.BeamAzimuths())
	d := DopplerFilter(p, sc.GenerateCPI(0), nil)
	for i := 0; i < p.EasyTrainingCPIs; i++ {
		es.Observe(d)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		es.Observe(d)
		es.Compute()
	}
}
