package stap

import (
	"fmt"
	"sort"

	"pstap/internal/cube"
	"pstap/internal/radar"
)

// Detection is one entry of the pipeline's output report: a threshold
// crossing at a specific range cell, Doppler bin and look direction.
type Detection struct {
	Range      int
	DopplerBin int
	Beam       int
	Power      float64
	Threshold  float64
}

// String formats a detection for reports.
func (d Detection) String() string {
	return fmt.Sprintf("r=%d d=%d b=%d pow=%.3g thr=%.3g", d.Range, d.DopplerBin, d.Beam, d.Power, d.Threshold)
}

// CFAR runs sliding-window cell-averaging constant-false-alarm-rate
// detection over the power cube (N x M x K): for each test cell the mean
// of CFARRef reference cells on each side (skipping CFARGuard guard cells)
// is scaled by CFARScale and compared with the cell under test. Cells too
// close to the range edges to have any reference cells are skipped.
// Detections are returned sorted by (Doppler bin, beam, range).
func CFAR(p radar.Params, power *cube.RealCube) []Detection {
	if power.Axes != radar.BeamOrder {
		panic(fmt.Sprintf("stap: CFAR wants %v, got %v", radar.BeamOrder, power.Axes))
	}
	if power.Dim != [3]int{p.N, p.M, p.K} {
		panic(fmt.Sprintf("stap: CFAR dims %v", power.Dim))
	}
	var out []Detection
	CFARRows(p, power, 0, p.N, false, &out)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.DopplerBin != b.DopplerBin {
			return a.DopplerBin < b.DopplerBin
		}
		if a.Beam != b.Beam {
			return a.Beam < b.Beam
		}
		return a.Range < b.Range
	})
	return out
}

// CFARRows scans Doppler bins [lo, hi). When local is true the cube is a
// bin-local slab whose row 0 corresponds to bin lo; reported DopplerBin
// values are the global bins. Results are appended to *out in scan order
// (unsorted). This is the per-processor kernel of task 6.
func CFARRows(p radar.Params, power *cube.RealCube, lo, hi int, local bool, out *[]Detection) {
	cfarScan(p, power, lo, lo, hi, local, out)
}

// cfarScan scans bins [lo, hi); when local is true, the slab's row 0
// corresponds to bin `base`. The reference-level estimator is selected by
// p.CFARKind (cell averaging by default, the paper's detector).
func cfarScan(p radar.Params, power *cube.RealCube, base, lo, hi int, local bool, out *[]Detection) {
	g, ref, scale := p.CFARGuard, p.CFARRef, p.CFARScale
	kind := CFARKind(p.CFARKind)
	var osBuf []float64
	// Prefix sums make each window sum O(1); prefix[0] stays 0.
	prefix := make([]float64, power.Dim[2]+1)
	for d := lo; d < hi; d++ {
		row := d
		if local {
			row = d - base
		}
		for m := 0; m < p.M; m++ {
			vec := power.Vec(row, m)
			for i, v := range vec {
				prefix[i+1] = prefix[i] + v
			}
			for t := 0; t < len(vec); t++ {
				level, ok := refLevel(kind, vec, prefix, t, g, ref, &osBuf)
				if !ok {
					continue
				}
				thr := scale * level
				if vec[t] > thr {
					*out = append(*out, Detection{
						Range: t, DopplerBin: d, Beam: m,
						Power: vec[t], Threshold: thr,
					})
				}
			}
		}
	}
}

// MatchesTarget reports whether detection det is consistent with target t:
// same Doppler bin within +-1 (straddle loss), same range within the
// replica length, any beam whose azimuth is nearest to the target's.
func MatchesTarget(p radar.Params, det Detection, t radar.Target, beamAz []float64) bool {
	db := t.DopplerBin(p.N)
	dd := det.DopplerBin - db
	if dd < 0 {
		dd = -dd
	}
	if dd > 1 && dd < p.N-1 {
		return false
	}
	dr := det.Range - t.Range
	if dr < 0 {
		dr = -dr
	}
	if dr > 1 {
		return false
	}
	// nearest beam
	best, bestDiff := -1, 0.0
	for b, az := range beamAz {
		diff := az - t.Azimuth
		if diff < 0 {
			diff = -diff
		}
		if best == -1 || diff < bestDiff {
			best, bestDiff = b, diff
		}
	}
	return det.Beam == best
}
