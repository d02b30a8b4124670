// Package patterns is the DAG pattern library of DPX10 (paper §VI-B).
//
// It ships the eight built-in patterns of the paper's Figure 5 plus the
// 0/1-Knapsack custom pattern worked through in §VII-B. Each pattern is a
// dag.Pattern whose Dependencies/AntiDependencies are exact mirrors; the
// test suite validates every one of them with dag.Check.
//
// The paper's figure pins pattern (a) to the Manhattan Tourists shape
// (left + top), (b) to LCS/Smith-Waterman (left + top + diagonal) and (d)
// to Longest Palindromic Subsequence (interval DP on the upper triangle);
// the remaining shapes are the standard DP dependency families implied by
// the paper's tD/eD classification (§III).
package patterns

import (
	"github.com/dpx10/dpx10/internal/dag"
)

// The offsets (dag.Stencil) of the stencils, in Dependencies' order.
var (
	gridOffsets     = []dag.Offset{{DI: -1}, {DJ: -1}}
	diagonalOffsets = []dag.Offset{{DI: -1}, {DJ: -1}, {DI: -1, DJ: -1}}
	chainOffsets    = []dag.Offset{{DJ: -1}}
)

// Grid is Figure 5 (a): cell (i,j) depends on its left and top neighbours.
// This is the 2D/0D family of Algorithm 3.1 — Manhattan Tourists, edit
// distance without substitution, and similar.
type Grid struct{ H, W int32 }

// NewGrid returns an h×w Grid pattern.
func NewGrid(h, w int32) Grid { return Grid{H: h, W: w} }

func (p Grid) Bounds() (int32, int32) { return p.H, p.W }

func (p Grid) Offsets(int32) []dag.Offset { return gridOffsets }

func (p Grid) Dependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if i > 0 {
		buf = append(buf, dag.VertexID{I: i - 1, J: j})
	}
	if j > 0 {
		buf = append(buf, dag.VertexID{I: i, J: j - 1})
	}
	return buf
}

func (p Grid) AntiDependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if i+1 < p.H {
		buf = append(buf, dag.VertexID{I: i + 1, J: j})
	}
	if j+1 < p.W {
		buf = append(buf, dag.VertexID{I: i, J: j + 1})
	}
	return buf
}

// Diagonal is Figure 5 (b): left, top and top-left neighbours — the
// LCS / Smith-Waterman wavefront, used by the SWLAG evaluation app.
type Diagonal struct{ H, W int32 }

// NewDiagonal returns an h×w Diagonal pattern.
func NewDiagonal(h, w int32) Diagonal { return Diagonal{H: h, W: w} }

func (p Diagonal) Bounds() (int32, int32) { return p.H, p.W }

func (p Diagonal) Offsets(int32) []dag.Offset { return diagonalOffsets }

func (p Diagonal) Dependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if i > 0 {
		buf = append(buf, dag.VertexID{I: i - 1, J: j})
	}
	if j > 0 {
		buf = append(buf, dag.VertexID{I: i, J: j - 1})
	}
	if i > 0 && j > 0 {
		buf = append(buf, dag.VertexID{I: i - 1, J: j - 1})
	}
	return buf
}

func (p Diagonal) AntiDependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if i+1 < p.H {
		buf = append(buf, dag.VertexID{I: i + 1, J: j})
	}
	if j+1 < p.W {
		buf = append(buf, dag.VertexID{I: i, J: j + 1})
	}
	if i+1 < p.H && j+1 < p.W {
		buf = append(buf, dag.VertexID{I: i + 1, J: j + 1})
	}
	return buf
}

// RowWave is Figure 5 (c): cell (i,j) depends on every cell of row i-1 —
// the 2D/1D "full previous stage" family (Viterbi-style recurrences).
type RowWave struct{ H, W int32 }

// NewRowWave returns an h×w RowWave pattern.
func NewRowWave(h, w int32) RowWave { return RowWave{H: h, W: w} }

func (p RowWave) Bounds() (int32, int32) { return p.H, p.W }

func (p RowWave) Dependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if i == 0 {
		return buf
	}
	for k := int32(0); k < p.W; k++ {
		buf = append(buf, dag.VertexID{I: i - 1, J: k})
	}
	return buf
}

func (p RowWave) AntiDependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if i+1 >= p.H {
		return buf
	}
	for k := int32(0); k < p.W; k++ {
		buf = append(buf, dag.VertexID{I: i + 1, J: k})
	}
	return buf
}

// Interval is Figure 5 (d): interval DP on the upper triangle (j >= i) of
// an n×n matrix. Cell (i,j) depends on (i+1,j), (i,j-1) and (i+1,j-1) —
// the Longest Palindromic Subsequence recurrence. Cells below the diagonal
// are inactive.
type Interval struct{ N int32 }

// NewInterval returns an n×n Interval pattern.
func NewInterval(n int32) Interval { return Interval{N: n} }

func (p Interval) Bounds() (int32, int32) { return p.N, p.N }

// Active reports whether (i,j) lies on or above the main diagonal.
func (p Interval) Active(i, j int32) bool { return j >= i }

func (p Interval) Dependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if j <= i { // diagonal and inactive cells have no dependencies
		return buf
	}
	if i+1 <= j {
		buf = append(buf, dag.VertexID{I: i + 1, J: j})
	}
	if j-1 >= i {
		buf = append(buf, dag.VertexID{I: i, J: j - 1})
	}
	if i+1 <= j-1 {
		buf = append(buf, dag.VertexID{I: i + 1, J: j - 1})
	}
	return buf
}

func (p Interval) AntiDependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if j < i {
		return buf
	}
	if i-1 >= 0 {
		buf = append(buf, dag.VertexID{I: i - 1, J: j})
	}
	if j+1 < p.N {
		buf = append(buf, dag.VertexID{I: i, J: j + 1})
	}
	if i-1 >= 0 && j+1 < p.N {
		buf = append(buf, dag.VertexID{I: i - 1, J: j + 1})
	}
	return buf
}

// ColWave is Figure 5 (e): cell (i,j) depends on every cell of column j-1,
// the column-staged counterpart of RowWave.
type ColWave struct{ H, W int32 }

// NewColWave returns an h×w ColWave pattern.
func NewColWave(h, w int32) ColWave { return ColWave{H: h, W: w} }

func (p ColWave) Bounds() (int32, int32) { return p.H, p.W }

func (p ColWave) Dependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if j == 0 {
		return buf
	}
	for k := int32(0); k < p.H; k++ {
		buf = append(buf, dag.VertexID{I: k, J: j - 1})
	}
	return buf
}

func (p ColWave) AntiDependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if j+1 >= p.W {
		return buf
	}
	for k := int32(0); k < p.H; k++ {
		buf = append(buf, dag.VertexID{I: k, J: j + 1})
	}
	return buf
}

// Chain is Figure 5 (f): each row is an independent left-to-right chain —
// a batch of 1D DP problems laid out as a matrix (e.g. per-sequence scans).
type Chain struct{ H, W int32 }

// NewChain returns an h×w Chain pattern.
func NewChain(h, w int32) Chain { return Chain{H: h, W: w} }

func (p Chain) Bounds() (int32, int32) { return p.H, p.W }

func (p Chain) Offsets(int32) []dag.Offset { return chainOffsets }

func (p Chain) Dependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if j > 0 {
		buf = append(buf, dag.VertexID{I: i, J: j - 1})
	}
	return buf
}

func (p Chain) AntiDependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if j+1 < p.W {
		buf = append(buf, dag.VertexID{I: i, J: j + 1})
	}
	return buf
}

// Triangle is Figure 5 (g): the 2D/1D interval family of Algorithm 3.2
// (matrix-chain multiplication, optimal BST). Active cells satisfy j >= i;
// cell (i,j) with j > i depends on its full row segment (i,k), i <= k < j,
// and column segment (k,j), i < k <= j.
type Triangle struct{ N int32 }

// NewTriangle returns an n×n Triangle pattern.
func NewTriangle(n int32) Triangle { return Triangle{N: n} }

func (p Triangle) Bounds() (int32, int32) { return p.N, p.N }

// Active reports whether (i,j) lies on or above the main diagonal.
func (p Triangle) Active(i, j int32) bool { return j >= i }

func (p Triangle) Dependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if j <= i {
		return buf
	}
	for k := i; k < j; k++ {
		buf = append(buf, dag.VertexID{I: i, J: k})
	}
	for k := i + 1; k <= j; k++ {
		buf = append(buf, dag.VertexID{I: k, J: j})
	}
	return buf
}

func (p Triangle) AntiDependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if j < i {
		return buf
	}
	// (i,j) appears as a row-segment dependency of (i,j') for every j' > j,
	// and as a column-segment dependency of (i',j) for every i' < i.
	for jp := j + 1; jp < p.N; jp++ {
		buf = append(buf, dag.VertexID{I: i, J: jp})
	}
	for ip := int32(0); ip < i; ip++ {
		buf = append(buf, dag.VertexID{I: ip, J: j})
	}
	return buf
}

// Banded is Figure 5 (h): the Diagonal wavefront restricted to the band
// |i-j| <= Band — banded sequence alignment, where cells far from the
// diagonal are provably irrelevant and skipped.
type Banded struct {
	H, W int32
	Band int32
}

// NewBanded returns an h×w Banded pattern with half-width band.
func NewBanded(h, w, band int32) Banded { return Banded{H: h, W: w, Band: band} }

func (p Banded) Bounds() (int32, int32) { return p.H, p.W }

// Active reports whether (i,j) lies within the band.
func (p Banded) Active(i, j int32) bool {
	d := int64(i) - int64(j)
	if d < 0 {
		d = -d
	}
	return d <= int64(p.Band)
}

func (p Banded) Dependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if !p.Active(i, j) {
		return buf
	}
	if i > 0 && p.Active(i-1, j) {
		buf = append(buf, dag.VertexID{I: i - 1, J: j})
	}
	if j > 0 && p.Active(i, j-1) {
		buf = append(buf, dag.VertexID{I: i, J: j - 1})
	}
	if i > 0 && j > 0 { // (i-1,j-1) is always in band if (i,j) is
		buf = append(buf, dag.VertexID{I: i - 1, J: j - 1})
	}
	return buf
}

func (p Banded) AntiDependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if !p.Active(i, j) {
		return buf
	}
	if i+1 < p.H && p.Active(i+1, j) {
		buf = append(buf, dag.VertexID{I: i + 1, J: j})
	}
	if j+1 < p.W && p.Active(i, j+1) {
		buf = append(buf, dag.VertexID{I: i, J: j + 1})
	}
	if i+1 < p.H && j+1 < p.W {
		buf = append(buf, dag.VertexID{I: i + 1, J: j + 1})
	}
	return buf
}

// Transposed swaps the row and column axes of a pattern: cell (i,j) of
// the transposed pattern has the dependency structure of (j,i) in the
// original. Useful for matching a pattern's orientation to a
// distribution — e.g. running an LCS-style wavefront under a column
// partition without rewriting the app.
type Transposed struct {
	P dag.Pattern
}

// Transpose wraps p with swapped axes. Transposing twice restores the
// original structure.
func Transpose(p dag.Pattern) dag.Pattern {
	if t, ok := p.(Transposed); ok {
		return t.P
	}
	return Transposed{P: p}
}

func (t Transposed) Bounds() (int32, int32) {
	h, w := t.P.Bounds()
	return w, h
}

// Active reports the transposed activity of the wrapped pattern.
func (t Transposed) Active(i, j int32) bool {
	return dag.IsActive(t.P, j, i)
}

func (t Transposed) Dependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	start := len(buf)
	buf = t.P.Dependencies(j, i, buf)
	for k := start; k < len(buf); k++ {
		buf[k].I, buf[k].J = buf[k].J, buf[k].I
	}
	return buf
}

func (t Transposed) AntiDependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	start := len(buf)
	buf = t.P.AntiDependencies(j, i, buf)
	for k := start; k < len(buf); k++ {
		buf[k].I, buf[k].J = buf[k].J, buf[k].I
	}
	return buf
}
