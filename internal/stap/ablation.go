package stap

import (
	"fmt"
	"math"

	"pstap/internal/cube"
	"pstap/internal/fft"
	"pstap/internal/linalg"
	"pstap/internal/radar"
)

// This file implements the road-not-taken alternatives to two of the
// paper's design choices, so their cost can be measured (see the ablation
// benchmarks):
//
//  1. Pulse compression per receive channel *before* beamforming — the
//     general approach required when adaptive weights destroy phase
//     coherence across range. The paper's mainbeam constraint preserves
//     target phase across range, allowing compression of the M beamformed
//     outputs instead of the 2J channels, a 2J/M-fold saving.
//  2. Full QR re-factorization of the complete (exponentially weighted)
//     training history each CPI, instead of the recursive block update
//     the hard weight task uses.

// PulseCompressChannels applies the matched filter to every (Doppler bin,
// channel) range line of a Doppler-major cube (N x K x C) before
// beamforming, returning a complex cube of the same shape. This is the
// per-channel ordering the paper avoids.
func PulseCompressChannels(p radar.Params, doppler *cube.Cube, mf *MatchedFilter) *cube.Cube {
	if doppler.Axes != radar.BeamformInOrder {
		panic(fmt.Sprintf("stap: PulseCompressChannels wants %v, got %v", radar.BeamformInOrder, doppler.Axes))
	}
	if mf.K != p.K || doppler.Dim[1] != p.K {
		panic("stap: matched filter / cube length mismatch")
	}
	nBins, channels := doppler.Dim[0], doppler.Dim[2]
	out := cube.New(radar.BeamformInOrder, nBins, p.K, channels)
	line := make([]complex128, p.K)
	for d := 0; d < nBins; d++ {
		for j := 0; j < channels; j++ {
			for r := 0; r < p.K; r++ {
				line[r] = doppler.At(d, r, j)
			}
			mf.plan.Forward(line)
			for i := range line {
				line[i] *= mf.Hat[i]
			}
			mf.plan.Inverse(line)
			for r := 0; r < p.K; r++ {
				out.Set(d, r, j, line[r])
			}
		}
	}
	return out
}

// FlopsPulseCompPerChannel returns the flop cost of compressing every
// channel before beamforming, under the same conventions as CountFlops:
// N x 2J range lines, each a forward+inverse K-point FFT plus a pointwise
// complex multiply (no magnitude-squared — the data must stay complex for
// beamforming). Compare with CountFlops(p).PulseComp (N x M lines) for
// the saving the paper's constraint buys.
func FlopsPulseCompPerChannel(p radar.Params) int64 {
	return int64(p.N) * int64(2*p.J) * (2*fft.FlopsForward(p.K) + 6*int64(p.K))
}

// HardWeightFullState is the non-recursive alternative to
// HardWeightState: it retains every past training block and re-factorizes
// the complete exponentially-weighted history each CPI. Algebraically it
// produces the same triangular factor as the recursive update (verified
// in tests); its cost grows linearly with the number of CPIs observed,
// which is exactly why the paper uses the recursive form.
type HardWeightFullState struct {
	p      radar.Params
	beamAz []float64
	bins   []int
	// history[k][seg][binIdx] is the training block observed k CPIs ago
	// (0 = most recent).
	history [][][]*linalg.Matrix
	rms     [][]float64
	// MaxHistory bounds retained CPIs (0 = unbounded); the recursive
	// update needs no such bound.
	MaxHistory int
	solver     constrainedSolver
}

// NewHardWeightFullState creates the full-refactorization state over all
// hard bins.
func NewHardWeightFullState(p radar.Params, beamAz []float64) *HardWeightFullState {
	s := &HardWeightFullState{p: p, beamAz: beamAz, bins: p.HardBins()}
	s.rms = make([][]float64, p.NumSegments())
	for seg := range s.rms {
		s.rms[seg] = make([]float64, len(s.bins))
	}
	return s
}

// Observe stores this CPI's training rows (same extraction as the
// recursive state).
func (s *HardWeightFullState) Observe(doppler *cube.Cube) {
	rows := ExtractHardRows(s.p, doppler, cube.Block{Lo: 0, Hi: s.p.K}, s.bins)
	s.history = append([][][]*linalg.Matrix{rows}, s.history...)
	if s.MaxHistory > 0 && len(s.history) > s.MaxHistory {
		s.history = s.history[:s.MaxHistory]
	}
	f := s.p.ForgettingFactor
	for seg := range s.rms {
		for i := range s.rms[seg] {
			blk := rows[seg][i]
			if blk.Rows == 0 {
				continue
			}
			rms := linalg.FrobNorm(blk) / math.Sqrt(float64(blk.Rows*blk.Cols))
			if s.rms[seg][i] == 0 {
				s.rms[seg][i] = rms
			} else {
				s.rms[seg][i] = math.Sqrt(f*f*s.rms[seg][i]*s.rms[seg][i] + (1-f*f)*rms*rms)
			}
		}
	}
}

// FactorAll re-factorizes the whole weighted history and returns the
// triangular factors [seg][binIdx] — the quantity the recursive update
// maintains incrementally.
func (s *HardWeightFullState) FactorAll() ([][]*linalg.Matrix, error) {
	p := s.p
	out := make([][]*linalg.Matrix, p.NumSegments())
	for seg := 0; seg < p.NumSegments(); seg++ {
		out[seg] = make([]*linalg.Matrix, len(s.bins))
		for i := range s.bins {
			blocks := make([]*linalg.Matrix, 0, len(s.history))
			// Stack oldest-first with exponential weights lambda^age.
			for age := len(s.history) - 1; age >= 0; age-- {
				blk := s.history[age][seg][i]
				if blk.Rows == 0 {
					continue
				}
				w := math.Pow(p.ForgettingFactor, float64(age))
				blocks = append(blocks, blk.Clone().Scale(complex(w, 0)))
			}
			if len(blocks) == 0 {
				continue
			}
			stacked := linalg.VStack(blocks...)
			if stacked.Rows < stacked.Cols {
				stacked = linalg.VStack(stacked, linalg.NewMatrix(stacked.Cols-stacked.Rows, stacked.Cols))
			}
			r, err := linalg.RFactor(stacked)
			if err != nil {
				return nil, err
			}
			out[seg][i] = r
		}
	}
	return out, nil
}

// Compute solves the constrained problem against the re-factorized
// history, mirroring HardWeightState.Compute.
func (s *HardWeightFullState) Compute() ([][]*linalg.Matrix, error) {
	p := s.p
	rs, err := s.FactorAll()
	if err != nil {
		return nil, err
	}
	steer, fallback := hardSteering(p, s.beamAz, s.bins)
	out := make([][]*linalg.Matrix, p.NumSegments())
	for seg := range rs {
		out[seg] = make([]*linalg.Matrix, len(s.bins))
		for i := range s.bins {
			if rs[seg][i] == nil {
				out[seg][i] = fallback[i].Clone()
				continue
			}
			w := linalg.NewMatrix(2*p.J, p.M)
			if err := s.solver.solveR(rs[seg][i], steer[i], p.BeamConstraintWt*s.rms[seg][i], w); err != nil {
				return nil, err
			}
			out[seg][i] = w
		}
	}
	return out, nil
}
