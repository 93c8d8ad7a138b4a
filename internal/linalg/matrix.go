// Package linalg implements the dense complex linear algebra needed by the
// STAP weight computation: a row-major complex matrix type, Householder QR
// factorization, recursive (stacked) QR updates, triangular solves,
// constrained least squares, and matrix multiplication.
//
// Everything is written against complex128 and the stdlib only. The QR
// routines mirror what the paper's weight-computation tasks perform: a
// regular QR plus block update for the easy Doppler bins and a recursive
// (exponentially forgotten) QR update for the hard bins.
package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Matrix is a dense row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols
}

// NewMatrix allocates a zero r x c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: invalid dims %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]complex128, r*c)}
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]complex128) *Matrix {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []complex128 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Equalish reports whether m and o agree element-wise within tol.
func (m *Matrix) Equalish(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := range m.Data {
		if cmplx.Abs(m.Data[i]-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// H returns the conjugate transpose of m as a new matrix.
func (m *Matrix) H() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	m.HInto(out)
	return out
}

// HInto writes the conjugate transpose of m into dst (m.Cols x m.Rows)
// without allocating.
func (m *Matrix) HInto(dst *Matrix) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic("linalg: HInto dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			dst.Data[j*dst.Cols+i] = cmplx.Conj(v)
		}
	}
}

// T returns the (non-conjugated) transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Cols+i] = v
		}
	}
	return out
}

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s complex128) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// Identity returns the n x n identity.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// VStack stacks matrices vertically. All must share the column count.
func VStack(ms ...*Matrix) *Matrix { return VStackInto(nil, ms...) }

// Resize returns an r x c matrix with unspecified contents: m itself,
// reshaped, when its storage is large enough, else a new matrix.
func Resize(m *Matrix, r, c int) *Matrix {
	if m == nil || cap(m.Data) < r*c {
		return NewMatrix(r, c)
	}
	m.Rows, m.Cols, m.Data = r, c, m.Data[:r*c]
	return m
}

// VStackInto is VStack writing into dst, reusing its storage when it is
// large enough (see Resize). It returns the stacked matrix. dst must not
// be one of ms.
func VStackInto(dst *Matrix, ms ...*Matrix) *Matrix {
	if len(ms) == 0 {
		return Resize(dst, 0, 0)
	}
	c := ms[0].Cols
	r := 0
	for _, m := range ms {
		if m.Cols != c {
			panic(fmt.Sprintf("linalg: vstack col mismatch %d vs %d", m.Cols, c))
		}
		r += m.Rows
	}
	dst = Resize(dst, r, c)
	off := 0
	for _, m := range ms {
		off += copy(dst.Data[off:], m.Data)
	}
	return dst
}

// Mul returns a*b. Panics on dimension mismatch.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: mul dims %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	MulInto(out, a, b)
	return out
}

// MulInto computes dst = a*b without allocating. dst must be a.Rows x
// b.Cols and must not alias a or b.
func MulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("linalg: MulInto dimension mismatch")
	}
	n := b.Cols
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	// ikj order: stream through b rows, good locality for row-major.
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				drow[j] += aik * bv
			}
		}
	}
}

// MulVec returns a*x for a column vector x.
func MulVec(a *Matrix, x []complex128) []complex128 {
	if a.Cols != len(x) {
		panic("linalg: MulVec dimension mismatch")
	}
	out := make([]complex128, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var sum complex128
		for j, v := range row {
			sum += v * x[j]
		}
		out[i] = sum
	}
	return out
}

// Dot returns the Hermitian inner product conj(a)·b.
func Dot(a, b []complex128) complex128 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var sum complex128
	for i := range a {
		sum += cmplx.Conj(a[i]) * b[i]
	}
	return sum
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []complex128) float64 {
	var s float64
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return math.Sqrt(s)
}

// FrobNorm returns the Frobenius norm of m.
func FrobNorm(m *Matrix) float64 { return Norm2(m.Data) }

// Normalize scales v to unit Euclidean norm in place; zero vectors are
// left unchanged. Returns the original norm.
func Normalize(v []complex128) float64 {
	n := Norm2(v)
	if n == 0 {
		return 0
	}
	inv := complex(1/n, 0)
	for i := range v {
		v[i] *= inv
	}
	return n
}

// FlopsMatMul returns the flop count convention for a complex (m x k)·(k x n)
// multiply: 8*m*k*n (one complex multiply-add = 8 flops). This is the
// convention under which the paper's Table 1 beamforming entries reproduce
// exactly (easy BF: Neasy·8·M·J·K = 28,311,552).
func FlopsMatMul(m, k, n int) int64 {
	return 8 * int64(m) * int64(k) * int64(n)
}
