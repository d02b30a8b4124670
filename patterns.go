package dpx10

import (
	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
)

// The eight built-in DAG patterns of the paper's Figure 5, plus the
// 0/1-knapsack custom pattern of Figure 8. Constructors are thin wrappers
// over the pattern library so applications can stay on the public API.

// GridPattern (Fig 5a): (i,j) depends on its left and top neighbours —
// Manhattan Tourists and the 2D/0D family.
func GridPattern(h, w int32) Pattern { return patterns.NewGrid(h, w) }

// DiagonalPattern (Fig 5b): left, top and top-left neighbours — LCS and
// Smith-Waterman.
func DiagonalPattern(h, w int32) Pattern { return patterns.NewDiagonal(h, w) }

// RowWavePattern (Fig 5c): (i,j) depends on the whole previous row.
func RowWavePattern(h, w int32) Pattern { return patterns.NewRowWave(h, w) }

// IntervalPattern (Fig 5d): interval DP on the upper triangle — Longest
// Palindromic Subsequence.
func IntervalPattern(n int32) Pattern { return patterns.NewInterval(n) }

// ColWavePattern (Fig 5e): (i,j) depends on the whole previous column.
func ColWavePattern(h, w int32) Pattern { return patterns.NewColWave(h, w) }

// ChainPattern (Fig 5f): independent left-to-right chains, one per row.
func ChainPattern(h, w int32) Pattern { return patterns.NewChain(h, w) }

// TrianglePattern (Fig 5g): the 2D/1D interval family — matrix-chain
// multiplication, optimal BST.
func TrianglePattern(n int32) Pattern { return patterns.NewTriangle(n) }

// BandedPattern (Fig 5h): the diagonal wavefront restricted to the band
// |i-j| <= band — banded sequence alignment.
func BandedPattern(h, w, band int32) Pattern { return patterns.NewBanded(h, w, band) }

// KnapsackPattern (Fig 8): the 0/1 knapsack dependency structure for the
// given item weights and capacity — the paper's worked example of a
// custom pattern.
func KnapsackPattern(weights []int32, capacity int32) (Pattern, error) {
	return patterns.NewKnapsack(weights, capacity)
}

// CheckPattern validates a (custom) pattern exhaustively: bounds,
// dependency/anti-dependency symmetry, acyclicity and, for a Stencil, that
// its offsets are its dependencies. Run it in tests for
// every custom pattern; it walks all cells, so keep the size small.
func CheckPattern(p Pattern) error { return dag.Check(p) }
