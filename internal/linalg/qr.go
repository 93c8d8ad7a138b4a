package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
)

// QR holds a thin QR factorization A = Q·R with Q (m x n, orthonormal
// columns) and R (n x n, upper triangular), for m >= n.
type QR struct {
	Q *Matrix
	R *Matrix
}

// QRFactor computes the thin QR factorization of a (m x n, m >= n) using
// Householder reflections. a is not modified.
func QRFactor(a *Matrix) (*QR, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("linalg: QRFactor needs rows >= cols, got %dx%d", m, n)
	}
	var w QRWork
	w.Reset(m, n)
	copy(w.A.Data, a.Data)
	w.Factor()
	// Keep the top n x n upper triangle as R.
	rOut := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		copy(rOut.Row(i)[i:], w.A.Row(i)[i:])
	}
	return &QR{Q: w.FormQ(), R: rOut}, nil
}

// RFactor computes only the triangular factor R of the thin QR of a,
// in O(mn^2) without accumulating Q. a is not modified. The returned R has
// a real non-negative diagonal, making it unique and therefore directly
// comparable across incremental updates.
func RFactor(a *Matrix) (*Matrix, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("linalg: RFactor needs rows >= cols, got %dx%d", m, n)
	}
	var w QRWork
	w.Reset(m, n)
	copy(w.A.Data, a.Data)
	w.Factor()
	out := NewMatrix(n, n)
	w.RInto(out)
	return out, nil
}

// QRWork is a reusable workspace for Householder QR of an m x n matrix
// (m >= n) whose sparsity is known in advance. Column k's support is the
// rows that can be nonzero at or below the diagonal: row k itself plus
// rows [lo[k], hi[k]), lo[k] > k. Every entry outside a column's support
// must be an exact zero, and must stay one under the reflectors of the
// earlier columns.
//
// The factorization then loops over each column's support only, in
// ascending row order. A dense loop would add exact zeros to the same
// running sums (a no-op on a sum that starts at +0) and subtract exact
// zeros from entries it leaves otherwise unchanged, so the structured
// result is bit-identical to the dense one: the dense case is just the
// support [k+1, m) for every column.
//
// A workspace allocates only when Reset or the first FormQ at a shape
// grows it.
type QRWork struct {
	// A holds the matrix to factor. Factor overwrites its upper triangle
	// with R (before the sign normalization RInto applies) and leaves
	// rounding residue below the diagonal.
	A      Matrix
	q      Matrix // thin Q, formed by FormQ
	lo, hi []int
	v      []complex128 // reflector k at v[k*A.Rows:], packed over its support
	ok     []bool       // whether column k needed a reflector
	dots   []complex128
}

// Reset shapes the workspace for an m x n factorization with dense support
// (lo = k+1, hi = m), reusing its buffers when they are large enough. The
// contents of A are unspecified afterwards.
func (w *QRWork) Reset(m, n int) {
	if m < n || n < 0 {
		panic(fmt.Sprintf("linalg: QRWork shape %dx%d", m, n))
	}
	w.A = Matrix{Rows: m, Cols: n, Data: grow(w.A.Data, m*n)}
	w.v = grow(w.v, m*n)
	w.dots = grow(w.dots, n)
	if cap(w.lo) < n {
		w.lo, w.hi, w.ok = make([]int, n), make([]int, n), make([]bool, n)
	}
	w.lo, w.hi, w.ok = w.lo[:n], w.hi[:n], w.ok[:n]
	for k := 0; k < n; k++ {
		w.lo[k], w.hi[k] = k+1, m
	}
}

func grow(s []complex128, n int) []complex128 {
	if cap(s) < n {
		return make([]complex128, n)
	}
	return s[:n]
}

// SetSupport declares that column k can be nonzero at or below the
// diagonal only in row k and rows [lo, hi).
func (w *QRWork) SetSupport(k, lo, hi int) {
	if lo <= k || hi < lo || hi > w.A.Rows {
		panic(fmt.Sprintf("linalg: support [%d,%d) for column %d of %d rows", lo, hi, k, w.A.Rows))
	}
	w.lo[k], w.hi[k] = lo, hi
}

// reflector returns column k's packed reflector storage: entry 0 for row
// k, entry 1+i-lo for row i in [lo, hi).
func (w *QRWork) reflector(k int) []complex128 {
	off := k * w.A.Rows
	return w.v[off : off+1+w.hi[k]-w.lo[k]]
}

// Factor triangularizes A in place with one Householder reflection per
// column, restricted to the declared supports.
func (w *QRWork) Factor() {
	a := &w.A
	for k := 0; k < a.Cols; k++ {
		v := w.reflector(k)
		v[0] = a.At(k, k)
		for i := w.lo[k]; i < w.hi[k]; i++ {
			v[1+i-w.lo[k]] = a.At(i, k)
		}
		w.ok[k] = householderVector(v)
		if w.ok[k] {
			w.apply(a, k)
		}
	}
}

// FormQ accumulates the thin Q (m x n) of the last Factor into the
// workspace and returns it; the next FormQ overwrites it. The reflectors are applied to the first n columns of I in
// reverse order, each over its own support.
func (w *QRWork) FormQ() *Matrix {
	m, n := w.A.Rows, w.A.Cols
	w.q = Matrix{Rows: m, Cols: n, Data: grow(w.q.Data, m*n)}
	q := &w.q
	clear(q.Data)
	for i := 0; i < q.Cols; i++ {
		q.Set(i, i, 1)
	}
	for k := q.Cols - 1; k >= 0; k-- {
		if w.ok[k] {
			w.apply(q, k)
		}
	}
	return q
}

// RInto writes the triangular factor of the last Factor into the upper
// triangle of dst (n x n), scaling each row so the diagonal is real and
// non-negative. The strictly lower triangle of dst is not touched.
func (w *QRWork) RInto(dst *Matrix) {
	n := w.A.Cols
	for i := 0; i < n; i++ {
		// Householder with our beta convention leaves diag real negative or
		// positive; normalize rows so diag >= 0 for uniqueness.
		d := w.A.At(i, i)
		phase := complex(1, 0)
		if d != 0 {
			phase = complex(cmplx.Abs(d), 0) / d
		}
		src, out := w.A.Row(i)[i:], dst.Row(i)[i:n]
		for j, x := range src {
			out[j] = phase * x
		}
	}
}

// UpdateR is the warm, in-place form of the package-level UpdateR: it
// overwrites the upper triangle of r (n x n, upper triangular) with the
// triangular factor of [lambda*r; newRows]. The top block's column k is
// nonzero only in row k, so every column's support is row k plus the
// newRows.Rows rows of the lower block. The strictly lower triangle of r
// is not touched.
func (w *QRWork) UpdateR(r *Matrix, lambda float64, newRows *Matrix) error {
	n := newRows.Cols
	if r.Rows != n || r.Cols != n {
		return fmt.Errorf("linalg: UpdateR rOld %dx%d, want %dx%d", r.Rows, r.Cols, n, n)
	}
	m := n + newRows.Rows
	w.Reset(m, n)
	s := complex(lambda, 0)
	for i := 0; i < n; i++ {
		src, dst := r.Row(i)[i:], w.A.Row(i)[i:]
		for j, x := range src {
			dst[j] = x * s
		}
	}
	copy(w.A.Data[n*n:], newRows.Data)
	for k := 0; k < n; k++ {
		w.SetSupport(k, n, m)
	}
	w.Factor()
	w.RInto(r)
	return nil
}

// householderVector turns v, column k's entries over its support (v[0]
// the diagonal), into the unit Householder vector that annihilates all
// but v[0]. It reports false, leaving no reflector, when the column is
// already zero.
func householderVector(v []complex128) bool {
	alpha := Norm2(v)
	if alpha == 0 {
		return false
	}
	// beta = -sign(x0)*|x|, with complex sign = x0/|x0|.
	var beta complex128
	if v[0] == 0 {
		beta = complex(-alpha, 0)
	} else {
		beta = -(v[0] / complex(cmplx.Abs(v[0]), 0)) * complex(alpha, 0)
	}
	v[0] -= beta
	nv := Norm2(v)
	if nv < 1e-300 {
		return false
	}
	inv := complex(1/nv, 0)
	for i := range v {
		v[i] *= inv
	}
	return true
}

// apply applies (I - 2 v v^H), v being column k's reflector, to columns
// k.. of t over the rows of column k's support. t is A or Q; both have
// n columns. The per-column dot products run row by row so each row is
// read contiguously, but every column's sum still adds its terms in
// ascending row order.
func (w *QRWork) apply(t *Matrix, k int) {
	v := w.reflector(k)
	lo, hi := w.lo[k], w.hi[k]
	dots := w.dots[k:t.Cols]
	clear(dots)
	accumulate(dots, cmplx.Conj(v[0]), t.Row(k)[k:])
	for i := lo; i < hi; i++ {
		accumulate(dots, cmplx.Conj(v[1+i-lo]), t.Row(i)[k:])
	}
	zero := false
	for j := range dots {
		dots[j] *= 2
		zero = zero || dots[j] == 0
	}
	if zero {
		// Rare: a column the reflector leaves alone stays bit-for-bit.
		subtractNonzero(t.Row(k)[k:], dots, v[0])
		for i := lo; i < hi; i++ {
			subtractNonzero(t.Row(i)[k:], dots, v[1+i-lo])
		}
		return
	}
	subtract(t.Row(k)[k:], dots, v[0])
	for i := lo; i < hi; i++ {
		subtract(t.Row(i)[k:], dots, v[1+i-lo])
	}
}

// accumulate adds cv*row[j] to dots[j].
func accumulate(dots []complex128, cv complex128, row []complex128) {
	row = row[:len(dots)]
	for j, x := range row {
		dots[j] += cv * x
	}
}

// subtract sets row[j] -= dots[j]*vi.
func subtract(row, dots []complex128, vi complex128) {
	row = row[:len(dots)]
	for j, d := range dots {
		row[j] = row[j] - d*vi
	}
}

// subtractNonzero is subtract leaving the columns whose dot is zero
// untouched: subtracting a zero product could turn a -0 entry into +0.
func subtractNonzero(row, dots []complex128, vi complex128) {
	row = row[:len(dots)]
	for j, d := range dots {
		if d != 0 {
			row[j] = row[j] - d*vi
		}
	}
}

// BackSubstitute solves R x = b for upper-triangular R (n x n).
func BackSubstitute(r *Matrix, b []complex128) ([]complex128, error) {
	x := make([]complex128, len(b))
	if err := BackSubstituteInto(x, r, b); err != nil {
		return nil, err
	}
	return x, nil
}

// BackSubstituteInto is BackSubstitute writing the solution into x (length
// n) without allocating. Only the upper triangle of r is read.
func BackSubstituteInto(x []complex128, r *Matrix, b []complex128) error {
	n := r.Rows
	if r.Cols != n || len(b) != n || len(x) != n {
		return fmt.Errorf("linalg: BackSubstitute dims R %dx%d b %d x %d", r.Rows, r.Cols, len(b), len(x))
	}
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		row := r.Row(i)
		for j := i + 1; j < n; j++ {
			sum -= row[j] * x[j]
		}
		d := row[i]
		if cmplx.Abs(d) < 1e-300 {
			return fmt.Errorf("linalg: singular R at %d", i)
		}
		x[i] = sum / d
	}
	return nil
}

// ForwardSubstitute solves L x = b for lower-triangular L (n x n).
func ForwardSubstitute(l *Matrix, b []complex128) ([]complex128, error) {
	n := l.Rows
	if l.Cols != n || len(b) != n {
		return nil, fmt.Errorf("linalg: ForwardSubstitute dims L %dx%d b %d", l.Rows, l.Cols, len(b))
	}
	x := make([]complex128, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		row := l.Row(i)
		for j := 0; j < i; j++ {
			sum -= row[j] * x[j]
		}
		d := row[i]
		if cmplx.Abs(d) < 1e-300 {
			return nil, fmt.Errorf("linalg: singular L at %d", i)
		}
		x[i] = sum / d
	}
	return x, nil
}

// LeastSquares solves min_x ||A x - b||_2 via QR. A must have rows >= cols
// and full column rank.
func LeastSquares(a *Matrix, b []complex128) ([]complex128, error) {
	if len(b) != a.Rows {
		return nil, fmt.Errorf("linalg: LeastSquares rhs length %d, want %d", len(b), a.Rows)
	}
	qr, err := QRFactor(a)
	if err != nil {
		return nil, err
	}
	// x = R^{-1} Q^H b
	qhb := make([]complex128, a.Cols)
	for j := 0; j < a.Cols; j++ {
		var sum complex128
		for i := 0; i < a.Rows; i++ {
			sum += cmplx.Conj(qr.Q.At(i, j)) * b[i]
		}
		qhb[j] = sum
	}
	return BackSubstitute(qr.R, qhb)
}

// UpdateR performs the recursive QR update at the heart of the hard weight
// computation: given the previous triangular factor rOld (n x n) scaled by
// the forgetting factor lambda, and a block of new rows (k x n), it returns
// the triangular factor of the stacked matrix [lambda*rOld; newRows]. This
// is algebraically the "block update form of the QR decomposition" the
// paper uses to incorporate exponentially forgotten past looks. rOld may be
// nil, meaning no prior state (cold start): newRows are then factored
// densely, padded with zero rows when there are fewer than n. A warm
// update returns a new matrix; QRWork.UpdateR is the in-place form.
func UpdateR(rOld *Matrix, lambda float64, newRows *Matrix) (*Matrix, error) {
	n := newRows.Cols
	if rOld != nil {
		r := rOld.Clone()
		var w QRWork
		if err := w.UpdateR(r, lambda, newRows); err != nil {
			return nil, err
		}
		return r, nil
	}
	stacked := newRows
	if stacked.Rows < n {
		// Pad with zero rows so the factorization is defined even for a
		// cold start with fewer samples than channels.
		stacked = VStack(stacked, NewMatrix(n-stacked.Rows, n))
	}
	return RFactor(stacked)
}

// FlopsQR returns the flop-count convention for a complex Householder QR of
// an m x n (m >= n) matrix without forming Q: 8*n^2*(m - n/3). The real
// count is 4x the classic real-QR 2n^2(m-n/3) because complex multiplies
// cost 6 flops and adds 2.
func FlopsQR(m, n int) int64 {
	if m < n {
		m = n
	}
	return int64(8 * float64(n) * float64(n) * (float64(m) - float64(n)/3))
}

// FlopsBackSub returns the flop convention for a complex triangular solve
// of size n: 4*n^2.
func FlopsBackSub(n int) int64 { return 4 * int64(n) * int64(n) }

// CondLowerBound returns a cheap lower bound on the condition number of an
// upper-triangular R: max|diag| / min|diag|. Useful for sanity checks on
// training matrices.
func CondLowerBound(r *Matrix) float64 {
	n := r.Rows
	if n == 0 {
		return 0
	}
	lo, hi := math.Inf(1), 0.0
	for i := 0; i < n; i++ {
		d := cmplx.Abs(r.At(i, i))
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if lo == 0 {
		return math.Inf(1)
	}
	return hi / lo
}
