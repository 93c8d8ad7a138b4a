package stap

import (
	mrand "math/rand"

	"pstap/internal/cube"
	"pstap/internal/linalg"
	"pstap/internal/radar"
)

// cubeT abbreviates the cube type in tests.
type cubeT = cube.Cube

// newStag allocates an empty staggered-order cube for a parameter set.
func newStag(p radar.Params) *cubeT {
	return cube.New(radar.StaggeredOrder, p.K, 2*p.J, p.N)
}

// newTestRng returns a seeded math/rand source for deterministic tests.
func newTestRng(seed int64) *mrand.Rand { return mrand.New(mrand.NewSource(seed)) }

// constrainedWeights solves the Figure 13 problem for one training matrix
// through the easy task's kernel.
func constrainedWeights(train *linalg.Matrix, steer [][]complex128, constraintWt float64) (*linalg.Matrix, error) {
	var cs constrainedSolver
	out := linalg.NewMatrix(train.Cols, len(steer))
	if err := cs.solveTraining([]*linalg.Matrix{train}, steer, constraintWt, out); err != nil {
		return nil, err
	}
	return out, nil
}
