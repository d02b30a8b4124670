package apps

import (
	"fmt"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/workload"
)

// MatrixChain solves matrix-chain multiplication — the canonical 2D/1D
// algorithm of the paper's §III classification (Algorithm 3.2) and the
// workload of the Triangle pattern (Figure 5g):
//
//	m(i,i) = 0
//	m(i,j) = min_{i<=k<j} { m(i,k) + m(k+1,j) + d_i · d_{k+1} · d_{j+1} }
//
// where the chain multiplies matrices A_i (d_i × d_{i+1}), i in [0, n).
// Cell (i,j) needs its whole row segment and column segment — exactly the
// O(n) dependencies per vertex that make 2D/1D patterns communication-
// heavy, which is why the paper defers them to future work; the pattern
// library supports them regardless.
type MatrixChain struct {
	Dims []int64 // n+1 dimensions for n matrices
}

// NewMatrixChain builds the app for an explicit dimension vector.
func NewMatrixChain(dims []int64) (*MatrixChain, error) {
	if len(dims) < 2 {
		return nil, fmt.Errorf("matrixchain: need at least 2 dimensions, got %d", len(dims))
	}
	for k, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("matrixchain: dimension %d is %d", k, d)
		}
	}
	return &MatrixChain{Dims: dims}, nil
}

// NewRandomMatrixChain builds an n-matrix chain with dimensions in
// [1, maxDim], deterministic in seed.
func NewRandomMatrixChain(n int, maxDim int32, seed int64) *MatrixChain {
	raw := workload.Ints(n+1, maxDim, seed)
	dims := make([]int64, n+1)
	for k, v := range raw {
		dims[k] = int64(v)
	}
	return &MatrixChain{Dims: dims}
}

// N returns the number of matrices in the chain.
func (m *MatrixChain) N() int { return len(m.Dims) - 1 }

// Pattern returns the Triangle pattern over n×n (Figure 5g).
func (m *MatrixChain) Pattern() dpx10.Pattern {
	return dpx10.TrianglePattern(int32(m.N()))
}

// Compute implements the recurrence; deps carry the row segment
// (i,i..j-1) followed by the column segment (i+1..j, j), in Triangle's
// order, so (i,k) sits at k-i and (k+1,j) at (j-i)+(k-i).
func (m *MatrixChain) Compute(i, j int32, deps []dpx10.Cell[int64]) int64 {
	if i == j {
		return 0
	}
	best := int64(1) << 62
	for k := i; k < j; k++ {
		left := depAt(deps, int(k-i), i, k)
		right := depAt(deps, int(j-i+k-i), k+1, j)
		cost := left + right + m.Dims[i]*m.Dims[k+1]*m.Dims[j+1]
		if cost < best {
			best = cost
		}
	}
	return best
}

// AppFinished is a no-op; use Cost and Parenthesization.
func (m *MatrixChain) AppFinished(*dpx10.Dag[int64]) {}

// Cost returns the minimum scalar-multiplication count for the chain.
func (m *MatrixChain) Cost(dag *dpx10.Dag[int64]) int64 {
	return dag.Result(0, int32(m.N())-1)
}

// Parenthesization reconstructs an optimal bracketing, e.g.
// "((A0 A1) A2)".
func (m *MatrixChain) Parenthesization(dag *dpx10.Dag[int64]) string {
	var build func(i, j int32) string
	build = func(i, j int32) string {
		if i == j {
			return fmt.Sprintf("A%d", i)
		}
		target := dag.Result(i, j)
		for k := i; k < j; k++ {
			cost := dag.Result(i, k) + dag.Result(k+1, j) + m.Dims[i]*m.Dims[k+1]*m.Dims[j+1]
			if cost == target {
				return "(" + build(i, k) + " " + build(k+1, j) + ")"
			}
		}
		panic("matrixchain: no split reproduces the optimal cost")
	}
	return build(0, int32(m.N())-1)
}

// Serial computes the table with the classic length-order loops.
func (m *MatrixChain) Serial() [][]int64 {
	n := m.N()
	t := make([][]int64, n)
	for i := range t {
		t[i] = make([]int64, n)
	}
	for span := 1; span < n; span++ {
		for i := 0; i+span < n; i++ {
			j := i + span
			best := int64(1) << 62
			for k := i; k < j; k++ {
				cost := t[i][k] + t[k+1][j] + m.Dims[i]*m.Dims[k+1]*m.Dims[j+1]
				if cost < best {
					best = cost
				}
			}
			t[i][j] = best
		}
	}
	return t
}

// Verify checks the active cells against Serial.
func (m *MatrixChain) Verify(dag *dpx10.Dag[int64]) error {
	want := m.Serial()
	n := m.N()
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if got := dag.Result(int32(i), int32(j)); got != want[i][j] {
				return fmt.Errorf("matrixchain: m(%d,%d) = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
	return nil
}
