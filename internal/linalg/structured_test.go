package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// Structured (support-restricted) factorizations must agree bit for bit
// with the full-support factorization of the same matrix: the skipped
// entries are exact zeros.

func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// upperR returns a random n x n upper-triangular matrix.
func upperR(rng *rand.Rand, n int) *Matrix {
	r := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	return r
}

// factorBoth factors a with full support and with the given per-column
// support, and fails the test unless R and Q agree bit for bit.
func factorBoth(t *testing.T, name string, a *Matrix, support func(k int) (lo, hi int)) {
	t.Helper()
	var dense, sparse QRWork
	dense.Reset(a.Rows, a.Cols)
	sparse.Reset(a.Rows, a.Cols)
	copy(dense.A.Data, a.Data)
	copy(sparse.A.Data, a.Data)
	for k := 0; k < a.Cols; k++ {
		lo, hi := support(k)
		sparse.SetSupport(k, lo, hi)
	}
	dense.Factor()
	sparse.Factor()
	n := a.Cols
	rd, rs := NewMatrix(n, n), NewMatrix(n, n)
	dense.RInto(rd)
	sparse.RInto(rs)
	if !sameBits(rd.Data, rs.Data) {
		t.Errorf("%s: structured R differs from full-support R", name)
	}
	if !sameBits(dense.FormQ().Data, sparse.FormQ().Data) {
		t.Errorf("%s: structured Q differs from full-support Q", name)
	}
}

func TestStructuredQRBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(12)
		b := rng.Intn(2 * n)
		// [lambda R; B]: column k lives in row k and the B block.
		a := VStack(upperR(rng, n).Scale(0.6), randMatrix(rng, b, n))
		if trial%5 == 0 {
			// A zero column: its reflector is skipped.
			z := rng.Intn(n)
			for i := 0; i < a.Rows; i++ {
				a.Set(i, z, 0)
			}
		}
		factorBoth(t, "[lambda R; B]", a, func(int) (int, int) { return n, n + b })

		// [R; k I]: the identity block fills in as a staircase.
		k := complex(0.5+rng.Float64(), 0)
		a = VStack(upperR(rng, n), Identity(n).Scale(k))
		factorBoth(t, "[R; kI]", a, func(c int) (int, int) { return n, n + c + 1 })

		// [T; k I] with a dense top block of any height.
		top := rng.Intn(2 * n)
		a = VStack(randMatrix(rng, top, n), Identity(n).Scale(k))
		factorBoth(t, "[T; kI]", a, func(c int) (int, int) { return c + 1, top + c + 1 })
	}
}

// denseUpdateR is the definition UpdateR implements: the unique-diagonal
// R factor of the explicitly stacked [lambda*rOld; newRows].
func denseUpdateR(t *testing.T, rOld *Matrix, lambda float64, newRows *Matrix) *Matrix {
	t.Helper()
	r, err := RFactor(VStack(rOld.Clone().Scale(complex(lambda, 0)), newRows))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestUpdateRInPlaceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var w QRWork
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(10)
		// Cold start with fewer rows than channels: zero rows in R.
		r, err := UpdateR(nil, 0.6, randMatrix(rng, rng.Intn(n), n))
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 4; step++ {
			rows := rng.Intn(2 * n) // 0 is the empty row block
			blk := randMatrix(rng, rows, n)
			want := denseUpdateR(t, r, 0.6, blk)
			if err := w.UpdateR(r, 0.6, blk); err != nil {
				t.Fatal(err)
			}
			if !sameBits(r.Data, want.Data) {
				t.Fatalf("trial %d step %d (%d rows): in-place update differs from dense", trial, step, rows)
			}
		}
	}
}

func TestStructuredSingularR(t *testing.T) {
	// A zero column leaves a zero on R's diagonal: the reflector is
	// skipped and back-substitution reports the singular factor.
	rng := rand.New(rand.NewSource(14))
	n, b := 5, 7
	a := VStack(upperR(rng, n), randMatrix(rng, b, n))
	for i := 0; i < a.Rows; i++ {
		a.Set(i, 2, 0)
	}
	var w QRWork
	w.Reset(a.Rows, n)
	copy(w.A.Data, a.Data)
	for k := 0; k < n; k++ {
		w.SetSupport(k, n, n+b)
	}
	w.Factor()
	r := NewMatrix(n, n)
	w.RInto(r)
	if r.At(2, 2) != 0 {
		t.Fatalf("R[2,2] = %v, want 0", r.At(2, 2))
	}
	x := make([]complex128, n)
	if err := BackSubstituteInto(x, r, randVector(rng, n)); err == nil {
		t.Error("back-substitution through a singular R should fail")
	}
}

func TestQRWorkWarmNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := 16
	r := upperR(rng, n)
	blk := randMatrix(rng, 40, n)
	var w QRWork
	w.Reset(n+40, n)
	got := testing.AllocsPerRun(10, func() {
		if err := w.UpdateR(r, 0.6, blk); err != nil {
			t.Fatal(err)
		}
		w.FormQ()
	})
	if got != 0 {
		t.Errorf("warm QRWork allocates %.0f times per update", got)
	}
}

func TestSetSupportRejectsBadSupport(t *testing.T) {
	var w QRWork
	w.Reset(6, 3)
	for _, c := range [][3]int{{1, 1, 4}, {1, 3, 2}, {0, 1, 7}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetSupport(%d, %d, %d) should panic", c[0], c[1], c[2])
				}
			}()
			w.SetSupport(c[0], c[1], c[2])
		}()
	}
}
