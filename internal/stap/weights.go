package stap

import (
	"fmt"
	"math"

	"pstap/internal/cube"
	"pstap/internal/linalg"
	"pstap/internal/radar"
)

// Weights holds the adaptive weight vectors computed for one CPI.
type Weights struct {
	// Easy[i] is a J x M matrix of beamforming weights (columns are beams)
	// for easy Doppler bin radar.Params.EasyBins()[i].
	Easy []*linalg.Matrix
	// Hard[s][i] is a 2J x M matrix for range segment s and hard Doppler
	// bin radar.Params.HardBins()[i].
	Hard [][]*linalg.Matrix
}

// SteeringWeights returns non-adaptive weights equal to the (staggered)
// steering vectors: the cold-start weights applied to the first CPI before
// any training data exists.
func SteeringWeights(p radar.Params, beamAz []float64) *Weights {
	if len(beamAz) != p.M {
		panic(fmt.Sprintf("stap: %d beam azimuths, want %d", len(beamAz), p.M))
	}
	w := &Weights{}
	easyBins := p.EasyBins()
	w.Easy = make([]*linalg.Matrix, len(easyBins))
	st := radar.SteeringMatrix(p.J, beamAz)
	for i := range easyBins {
		w.Easy[i] = st.Clone()
	}
	_, hard := hardSteering(p, beamAz, p.HardBins())
	w.Hard = make([][]*linalg.Matrix, p.NumSegments())
	for s := range w.Hard {
		w.Hard[s] = make([]*linalg.Matrix, len(hard))
		for i, m := range hard {
			w.Hard[s][i] = m.Clone()
		}
	}
	return w
}

// EasyWeightState accumulates the easy task's training history: per easy
// Doppler bin, the snapshot matrices drawn from the last EasyTrainingCPIs
// CPIs (the paper trains the weights for CPI i on data from the three
// preceding CPIs in the same azimuth direction).
type EasyWeightState struct {
	p      radar.Params
	beamAz []float64
	bins   []int // global easy Doppler bins this state owns
	// hist[age][binIdx]: training rows (EasySamplesPerCPI x J) from the
	// CPI `age+1` steps in the past; hist[0] is the most recent.
	hist [][]*linalg.Matrix
	// steer is the J x M steering matrix: its columns are the constraint
	// targets of the solve, and it is the fallback weight of a bin with
	// no usable training data.
	steer  *linalg.Matrix
	steerV [][]complex128 // steer's columns
	cells  []int          // Observe's training cells, set on first use
	solver constrainedSolver
}

// NewEasyWeightState creates empty training history covering all easy
// bins.
func NewEasyWeightState(p radar.Params, beamAz []float64) *EasyWeightState {
	return NewEasyWeightStateForBins(p, beamAz, p.EasyBins())
}

// NewEasyWeightStateForBins creates state restricted to a subset of easy
// Doppler bins — the per-processor state of the parallel easy weight task,
// which partitions the work along the Doppler dimension.
func NewEasyWeightStateForBins(p radar.Params, beamAz []float64, bins []int) *EasyWeightState {
	s := &EasyWeightState{p: p, beamAz: beamAz, bins: bins}
	s.steer = radar.SteeringMatrix(p.J, beamAz)
	s.steerV = make([][]complex128, p.M)
	for b := range s.steerV {
		s.steerV[b] = make([]complex128, p.J)
		for j := range s.steerV[b] {
			s.steerV[b][j] = s.steer.At(j, b)
		}
	}
	s.solver.qr.Reset(p.EasyTrainingCPIs*p.EasySamplesPerCPI+p.J, p.J)
	return s
}

// Bins returns the global easy Doppler bins this state owns.
func (s *EasyWeightState) Bins() []int { return s.bins }

// EasyTrainingRanges returns the range cells training snapshots are drawn
// from: EasySamplesPerCPI cells evenly spaced over the first third of the
// range extent.
func EasyTrainingRanges(p radar.Params) []int {
	return cube.EvenlySpaced(p.K/3, p.EasySamplesPerCPI)
}

// ExtractEasyRows builds the conjugated training snapshot matrix for each
// requested easy bin from a staggered cube slab covering global range
// cells [slabBlk.Lo, slabBlk.Hi). Only the training ranges falling inside
// the slab contribute; rows appear in ascending global range order. This
// is the "data collection" a Doppler-task processor performs before
// sending to the weight tasks. Returns nil matrices replaced by 0-row
// matrices when no training cell falls in the slab.
func ExtractEasyRows(p radar.Params, slab *cube.Cube, slabBlk cube.Block, bins []int) []*linalg.Matrix {
	out := make([]*linalg.Matrix, len(bins))
	fillRows(out, slab, slabBlk.Lo, cellsIn(EasyTrainingRanges(p), slabBlk), p.J, bins)
	return out
}

// cellsIn returns the cells that fall inside blk.
func cellsIn(cells []int, blk cube.Block) []int {
	var local []int
	for _, r := range cells {
		if blk.Contains(r) {
			local = append(local, r)
		}
	}
	return local
}

// fillRows writes, for each bin, the conjugated snapshots of the first
// `channels` channels at the given global range cells into dst[binIdx],
// reusing dst's matrices where they are large enough. The slab is in
// staggered order and its first range cell is global range lo.
func fillRows(dst []*linalg.Matrix, slab *cube.Cube, lo int, cells []int, channels int, bins []int) {
	for i, d := range bins {
		m := linalg.Resize(dst[i], len(cells), channels)
		for row, r := range cells {
			for j := 0; j < channels; j++ {
				// Rows are conjugated snapshots so that minimizing ||S w||
				// minimizes the beamformer output |w^H x| on the training
				// data (the beamformer applies the Hermitian of the weight).
				m.Set(row, j, conj(slab.At(r-lo, j, d)))
			}
		}
		dst[i] = m
	}
}

// Observe folds the Doppler-filtered CPI (staggered order, full K range
// extent) into the training history. Only the first J channels (the
// unstaggered Doppler spectrum, "the first half of the staggered CPI
// data") are used by the easy task.
func (s *EasyWeightState) Observe(doppler *cube.Cube) {
	if doppler.Axes != radar.StaggeredOrder {
		panic(fmt.Sprintf("stap: easy Observe wants %v, got %v", radar.StaggeredOrder, doppler.Axes))
	}
	if s.cells == nil {
		s.cells = EasyTrainingRanges(s.p)
	}
	fillRows(s.push(), doppler, 0, s.cells, s.p.J, s.bins)
}

// ObserveRows folds pre-collected training rows into the history; rows[i]
// corresponds to Bins()[i]. In the parallel pipeline the rows arrive from
// the Doppler task processors and are stacked in rank order (equal to
// ascending range order), which leaves the least squares solution
// unchanged. The rows are copied, so callers may reuse them.
func (s *EasyWeightState) ObserveRows(rows []*linalg.Matrix) {
	if len(rows) != len(s.bins) {
		panic(fmt.Sprintf("stap: ObserveRows got %d row sets for %d bins", len(rows), len(s.bins)))
	}
	slot := s.push()
	for i, m := range rows {
		slot[i] = linalg.VStackInto(slot[i], m)
	}
}

// push makes room for the newest CPI's rows at hist[0] and returns that
// slot. Once the history is full the oldest slot's matrices are recycled.
func (s *EasyWeightState) push() []*linalg.Matrix {
	var slot []*linalg.Matrix
	if len(s.hist) == s.p.EasyTrainingCPIs {
		slot = s.hist[len(s.hist)-1]
	} else {
		slot = make([]*linalg.Matrix, len(s.bins))
		s.hist = append(s.hist, nil)
	}
	copy(s.hist[1:], s.hist)
	s.hist[0] = slot
	return slot
}

// Ready reports whether any training data has been observed.
func (s *EasyWeightState) Ready() bool { return len(s.hist) > 0 }

// Compute solves the beam-constrained least squares problem for every
// owned easy Doppler bin and returns the J x M weight matrices (indexed
// like Bins()). Falls back to pure steering weights for bins with no
// history.
func (s *EasyWeightState) Compute() []*linalg.Matrix {
	out := weightSlab(1, len(s.bins), s.p.J, s.p.M)[0]
	blocks := make([]*linalg.Matrix, len(s.hist))
	for i := range s.bins {
		for age, snap := range s.hist {
			blocks[age] = snap[i]
		}
		if len(s.hist) == 0 || s.solver.solveTraining(blocks, s.steerV, s.p.BeamConstraintWt, out[i]) != nil {
			// No history, or degenerate training data: keep the
			// non-adaptive weights.
			copy(out[i].Data, s.steer.Data)
		}
	}
	return out
}

// weightSlab returns nSeg x nBins fresh rows x cols weight matrices backed
// by one allocation. Each Compute returns new matrices: the in-process
// pipeline hands them to the beamforming workers by pointer, and those
// apply them while the next CPI's weights are being computed.
func weightSlab(nSeg, nBins, rows, cols int) [][]*linalg.Matrix {
	n := nSeg * nBins
	ms := make([]linalg.Matrix, n)
	ptrs := make([]*linalg.Matrix, n)
	data := make([]complex128, n*rows*cols)
	for i := range ms {
		sz := rows * cols
		ms[i] = linalg.Matrix{Rows: rows, Cols: cols, Data: data[i*sz : (i+1)*sz : (i+1)*sz]}
		ptrs[i] = &ms[i]
	}
	out := make([][]*linalg.Matrix, nSeg)
	for seg := range out {
		out[seg] = ptrs[seg*nBins : (seg+1)*nBins : (seg+1)*nBins]
	}
	return out
}

// constrainedSolver is the reusable workspace of the Figure 13 problem:
// minimize ||T w||^2 + k^2 ||w - ws||^2 for each steering vector ws,
// sharing one QR factorization of A = [T; k I] across all beams (the
// paper's multi-beam saving: the data matrix is independent of the
// pointing angle). Each weight column is normalized to unit length.
//
// Two top blocks T occur. The easy task stacks its raw training rows
// (t x n, dense); the hard task stacks its recursive triangular factor R
// (n x n). Below either, the k I block fills in as a staircase: the
// reflector of column c reaches down to row t+c, so column c's support is
// rows c..t+c (easy) or row c plus rows n..n+c (hard). The same staircase
// zeroes Q[t+j, c] for j > c, so the solve skips those terms too. Skipped
// entries are exact zeros, which keeps the result bit-identical to a
// dense factorization (see linalg.QRWork).
type constrainedSolver struct {
	qr     linalg.QRWork
	top    int
	ck     []complex128 // ck[c*n+j] = conj(Q[top+j, c]) * k, for j <= c
	qhb, x []complex128
}

// solveTraining solves for the stacked training blocks. The constraint
// weight k scales constraintWt by the RMS magnitude of the training data
// (the MATLAB `avg * diagWts`).
func (cs *constrainedSolver) solveTraining(blocks []*linalg.Matrix, steer [][]complex128, constraintWt float64, out *linalg.Matrix) error {
	n := blocks[0].Cols
	t := 0
	for _, b := range blocks {
		t += b.Rows
	}
	cs.qr.Reset(t+n, n)
	train := cs.qr.A.Data[:t*n]
	off := 0
	for _, b := range blocks {
		off += copy(train[off:], b.Data)
	}
	rms := linalg.Norm2(train) / math.Sqrt(float64(t*n))
	if rms == 0 {
		return fmt.Errorf("stap: zero training data")
	}
	cs.top = t
	for c := 0; c < n; c++ {
		cs.qr.SetSupport(c, c+1, t+c+1)
	}
	return cs.solve(complex(constraintWt*rms, 0), steer, out)
}

// solveR solves with the data block already reduced to its triangular
// factor r (the hard task's block update: stack [R; k_eff I] and solve).
// kEff is an absolute scale here.
func (cs *constrainedSolver) solveR(r *linalg.Matrix, steer [][]complex128, kEff float64, out *linalg.Matrix) error {
	if kEff <= 0 {
		return fmt.Errorf("stap: non-positive constraint scale")
	}
	n := r.Cols
	cs.qr.Reset(2*n, n)
	copy(cs.qr.A.Data, r.Data)
	cs.top = n
	for c := 0; c < n; c++ {
		cs.qr.SetSupport(c, n, n+c+1)
	}
	return cs.solve(complex(kEff, 0), steer, out)
}

// solve writes k I below the top block the caller loaded, factors, and
// back-substitutes once per steering vector into out's columns.
func (cs *constrainedSolver) solve(k complex128, steer [][]complex128, out *linalg.Matrix) error {
	a := &cs.qr.A
	n, top := a.Cols, cs.top
	low := a.Data[top*n:]
	clear(low)
	for c := 0; c < n; c++ {
		low[c*n+c] = k
	}
	cs.qr.Factor()
	q := cs.qr.FormQ()
	if cap(cs.ck) < n*n {
		cs.ck, cs.qhb, cs.x = make([]complex128, n*n), make([]complex128, n), make([]complex128, n)
	}
	cs.ck, cs.qhb, cs.x = cs.ck[:n*n], cs.qhb[:n], cs.x[:n]
	// rhs is zero on the data rows, so Q^H b only touches the constraint
	// block: (Q^H b)[c] = sum_j conj(Q[top+j, c]) * k * ws[j].
	for c := 0; c < n; c++ {
		for j := 0; j <= c; j++ {
			cs.ck[c*n+j] = conj(q.At(top+j, c)) * k
		}
	}
	r := linalg.Matrix{Rows: n, Cols: n, Data: a.Data[:n*n]} // R, over the residue below
	for b, ws := range steer {
		if len(ws) != n {
			return fmt.Errorf("stap: steering length %d, want %d", len(ws), n)
		}
		for c := 0; c < n; c++ {
			var sum complex128
			for j, x := range cs.ck[c*n : c*n+c+1] {
				sum += x * ws[j]
			}
			cs.qhb[c] = sum
		}
		if err := linalg.BackSubstituteInto(cs.x, &r, cs.qhb); err != nil {
			return err
		}
		linalg.Normalize(cs.x)
		for j, v := range cs.x {
			out.Set(j, b, v)
		}
	}
	return nil
}

func conj(v complex128) complex128 { return complex(real(v), -imag(v)) }

// HardWeightState carries the recursive QR state of the hard task: one
// triangular factor per (range segment, hard Doppler bin), exponentially
// forgotten across CPIs. Its workspaces are created with the state and
// reused every CPI; a job reset drops them with the state.
type HardWeightState struct {
	p      radar.Params
	beamAz []float64
	bins   []int // global hard Doppler bins this state owns
	// r[s][binIdx] is the 2J x 2J triangular factor, nil before the first
	// observation. Warm updates overwrite it in place.
	r [][]*linalg.Matrix
	// rms[s][binIdx] tracks the running RMS element magnitude of observed
	// training data for constraint scaling.
	rms [][]float64
	// steer[binIdx][beam] is the staggered steering vector the solve
	// constrains towards; fallback[binIdx] holds the same vectors, unit
	// normalized, as the 2J x M cold-start weights.
	steer    [][][]complex128
	fallback []*linalg.Matrix
	// obsRows is Observe's extraction buffer for the training cells
	// obsCells[seg], allocated on first use.
	obsRows  [][]*linalg.Matrix
	obsCells [][]int
	upd      linalg.QRWork
	solver   constrainedSolver
}

// NewHardWeightState creates empty recursive state covering all hard bins.
func NewHardWeightState(p radar.Params, beamAz []float64) *HardWeightState {
	return NewHardWeightStateForBins(p, beamAz, p.HardBins())
}

// NewHardWeightStateForBins creates state restricted to a subset of hard
// Doppler bins — the per-processor state of the parallel hard weight task.
func NewHardWeightStateForBins(p radar.Params, beamAz []float64, bins []int) *HardWeightState {
	s := &HardWeightState{p: p, beamAz: beamAz, bins: bins}
	s.r = make([][]*linalg.Matrix, p.NumSegments())
	s.rms = make([][]float64, p.NumSegments())
	for seg := range s.r {
		s.r[seg] = make([]*linalg.Matrix, len(bins))
		s.rms[seg] = make([]float64, len(bins))
	}
	s.steer, s.fallback = hardSteering(p, beamAz, bins)
	s.upd.Reset(2*p.J+p.HardSamplesPerSegment, 2*p.J)
	s.solver.qr.Reset(4*p.J, 2*p.J)
	return s
}

// hardSteering returns, per hard bin, the staggered steering vectors of
// every beam and the matching unit-norm 2J x M steering weights (the
// matrices SteeringWeights returns for the hard bins).
func hardSteering(p radar.Params, beamAz []float64, bins []int) ([][][]complex128, []*linalg.Matrix) {
	steer := make([][][]complex128, len(bins))
	fallback := make([]*linalg.Matrix, len(bins))
	for i, d := range bins {
		steer[i] = make([][]complex128, len(beamAz))
		fallback[i] = linalg.NewMatrix(2*p.J, len(beamAz))
		for b, az := range beamAz {
			steer[i][b] = radar.StaggeredSteeringVector(p.J, az, d, p.Stagger, p.N)
			sv := append([]complex128(nil), steer[i][b]...)
			linalg.Normalize(sv)
			for r, v := range sv {
				fallback[i].Set(r, b, v)
			}
		}
	}
	return steer, fallback
}

// Bins returns the global hard Doppler bins this state owns.
func (s *HardWeightState) Bins() []int { return s.bins }

// HardTrainingRanges returns the cells sampled within segment s:
// HardSamplesPerSegment cells evenly spaced across the segment.
func HardTrainingRanges(p radar.Params, seg int) []int {
	lo, hi := p.Segment(seg)
	idx := cube.EvenlySpaced(hi-lo, p.HardSamplesPerSegment)
	for i := range idx {
		idx[i] += lo
	}
	return idx
}

// ExtractHardRows builds the conjugated 2J-channel training snapshots per
// (segment, requested bin) from a staggered slab covering global ranges
// [slabBlk.Lo, slabBlk.Hi). Result is indexed [segment][binIdx]; segments
// whose training cells all fall outside the slab yield 0-row matrices.
func ExtractHardRows(p radar.Params, slab *cube.Cube, slabBlk cube.Block, bins []int) [][]*linalg.Matrix {
	out := make([][]*linalg.Matrix, p.NumSegments())
	for seg := range out {
		out[seg] = make([]*linalg.Matrix, len(bins))
		fillRows(out[seg], slab, slabBlk.Lo, cellsIn(HardTrainingRanges(p, seg), slabBlk), 2*p.J, bins)
	}
	return out
}

// Observe performs the recursive QR update with the forgetting factor for
// every (segment, owned hard bin) pair, drawing fresh 2J-channel snapshots
// from the staggered CPI (hard bins use the full staggered data, all 2J
// channels).
func (s *HardWeightState) Observe(doppler *cube.Cube) {
	if doppler.Axes != radar.StaggeredOrder {
		panic(fmt.Sprintf("stap: hard Observe wants %v, got %v", radar.StaggeredOrder, doppler.Axes))
	}
	if s.obsRows == nil {
		s.obsCells = make([][]int, s.p.NumSegments())
		s.obsRows = make([][]*linalg.Matrix, s.p.NumSegments())
		for seg := range s.obsCells {
			s.obsCells[seg] = HardTrainingRanges(s.p, seg)
			s.obsRows[seg] = make([]*linalg.Matrix, len(s.bins))
		}
	}
	for seg, cells := range s.obsCells {
		fillRows(s.obsRows[seg], doppler, 0, cells, 2*s.p.J, s.bins)
	}
	s.ObserveRows(s.obsRows)
}

// ObserveRows folds pre-collected training rows (indexed [segment][binIdx]
// like ExtractHardRows) into the recursive QR state. The rows are only
// read during the call, so callers may reuse them.
func (s *HardWeightState) ObserveRows(rows [][]*linalg.Matrix) {
	p := s.p
	if len(rows) != p.NumSegments() {
		panic(fmt.Sprintf("stap: ObserveRows got %d segments, want %d", len(rows), p.NumSegments()))
	}
	f := p.ForgettingFactor
	for seg := 0; seg < p.NumSegments(); seg++ {
		if len(rows[seg]) != len(s.bins) {
			panic(fmt.Sprintf("stap: segment %d has %d row sets for %d bins", seg, len(rows[seg]), len(s.bins)))
		}
		for i := range s.bins {
			blk := rows[seg][i]
			var err error
			if s.r[seg][i] == nil {
				s.r[seg][i], err = linalg.UpdateR(nil, f, blk)
			} else {
				err = s.upd.UpdateR(s.r[seg][i], f, blk)
			}
			if err != nil {
				continue // keep previous state on degenerate update
			}
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

// Ready reports whether recursive state exists for all (segment, bin)
// pairs.
func (s *HardWeightState) Ready() bool {
	for seg := range s.r {
		for _, r := range s.r[seg] {
			if r == nil {
				return false
			}
		}
	}
	return len(s.r) > 0
}

// Compute solves the constrained problem against the current triangular
// factors and returns the per-(segment, owned bin) 2J x M weight matrices.
// Segments/bins with no state yet fall back to staggered steering weights.
func (s *HardWeightState) Compute() [][]*linalg.Matrix {
	p := s.p
	out := weightSlab(p.NumSegments(), len(s.bins), 2*p.J, p.M)
	for seg := range out {
		for i, w := range out[seg] {
			// The data term is fully summarized by R: ||S w||^2 = ||R w||^2.
			r := s.r[seg][i]
			if r == nil || s.solver.solveR(r, s.steer[i], p.BeamConstraintWt*s.rms[seg][i], w) != nil {
				copy(w.Data, s.fallback[i].Data)
			}
		}
	}
	return out
}
