// Package dag defines the dependency model of a DPX10 computation.
//
// A DP algorithm is described to the framework as a Pattern (paper §IV–V):
// the bounds of the vertex matrix plus, for each cell, the list of cells it
// depends on (getDependency) and the list of cells that depend on it
// (getAntiDependency). The two must be exact mirror images; Check verifies
// that, along with acyclicity, and is run over every built-in pattern in
// the test suite.
package dag

import (
	"fmt"
	"math"
	"slices"
)

// VertexID identifies one cell of the DP matrix. I is the row index and J
// the column index, matching the (i, j) pair of the paper's compute().
type VertexID struct {
	I, J int32
}

func (v VertexID) String() string { return fmt.Sprintf("(%d,%d)", v.I, v.J) }

// Linear returns the row-major linear index of v in a matrix of width w.
func (v VertexID) Linear(w int32) int64 { return int64(v.I)*int64(w) + int64(v.J) }

// Pattern describes the dependency structure of a DP algorithm. It is the
// Go analogue of the paper's abstract Dag class (Figure 3).
//
// Dependencies and AntiDependencies append to buf and return the extended
// slice, letting the engine reuse one buffer across millions of vertices.
// Both must only report active, in-bounds cells and must be mutual
// inverses: b lists a as a dependency iff a lists b as an anti-dependency.
type Pattern interface {
	// Bounds returns the matrix height (rows) and width (columns).
	Bounds() (h, w int32)
	// Dependencies appends the cells that must finish before (i,j).
	Dependencies(i, j int32, buf []VertexID) []VertexID
	// AntiDependencies appends the cells whose indegree drops when (i,j)
	// finishes.
	AntiDependencies(i, j int32, buf []VertexID) []VertexID
}

// Sparse is implemented by patterns that use only part of the matrix
// (e.g. the upper triangle for interval DP). Inactive cells are marked
// finished during initialization — the paper's §VI-E "set the unneeded
// vertices as finished" refinement — and take no part in the computation.
type Sparse interface {
	Active(i, j int32) bool
}

// IsActive reports whether (i,j) participates in the computation of p.
func IsActive(p Pattern, i, j int32) bool {
	if s, ok := p.(Sparse); ok {
		return s.Active(i, j)
	}
	return true
}

// ActiveCount returns the number of active cells in p.
func ActiveCount(p Pattern) int64 {
	h, w := p.Bounds()
	s, ok := p.(Sparse)
	if !ok {
		return int64(h) * int64(w)
	}
	var n int64
	for i := int32(0); i < h; i++ {
		for j := int32(0); j < w; j++ {
			if s.Active(i, j) {
				n++
			}
		}
	}
	return n
}

// Check validates a pattern exhaustively: all reported cells are in
// bounds, active, and distinct from their owner; dependencies and
// anti-dependencies are exact mirror images; the graph is acyclic; a Stencil
// keeps its contract. It walks every cell, so it is meant for tests and for
// small user-defined patterns, not for production-size matrices.
func Check(p Pattern) error {
	h, w := p.Bounds()
	if h <= 0 || w <= 0 {
		return fmt.Errorf("dag: non-positive bounds %dx%d", h, w)
	}
	sten := TabulateStencil(p)
	if _, ok := p.(Stencil); ok && sten == nil {
		return fmt.Errorf("dag: a stencil must be dense, but the pattern also implements Sparse")
	}
	inBounds := func(v VertexID) bool {
		return v.I >= 0 && v.I < h && v.J >= 0 && v.J < w
	}
	// deps[cell] as a set, for the mirror check.
	type edge struct{ from, to VertexID } // from must finish before to
	depSet := make(map[edge]bool)
	var buf, want []VertexID
	for i := int32(0); i < h; i++ {
		for k := 0; sten != nil && k < len(sten.rows[i]); k++ {
			if o := sten.rows[i][k]; o.DI > 0 || o.DJ > 0 || o == (Offset{}) {
				return fmt.Errorf("dag: row %d's stencil offset %+v is zero or leaves the lower-left quadrant", i, o)
			}
		}
		for j := int32(0); j < w; j++ {
			self := VertexID{i, j}
			active := IsActive(p, i, j)
			buf = p.Dependencies(i, j, buf[:0])
			if !active && len(buf) > 0 {
				return fmt.Errorf("dag: inactive cell %v has dependencies", self)
			}
			if sten != nil {
				if want = sten.Dependencies(i, j, want[:0]); !slices.Equal(buf, want) {
					return fmt.Errorf("dag: cell %v depends on %v, but its stencil offsets say %v", self, buf, want)
				}
			}
			seen := make(map[VertexID]bool, len(buf))
			for _, d := range buf {
				switch {
				case !inBounds(d):
					return fmt.Errorf("dag: cell %v depends on out-of-bounds %v", self, d)
				case d == self:
					return fmt.Errorf("dag: cell %v depends on itself", self)
				case !IsActive(p, d.I, d.J):
					return fmt.Errorf("dag: cell %v depends on inactive %v", self, d)
				case seen[d]:
					return fmt.Errorf("dag: cell %v lists dependency %v twice", self, d)
				}
				seen[d] = true
				depSet[edge{from: d, to: self}] = true
			}
		}
	}
	// Anti-dependencies must mirror exactly.
	antiCount := 0
	for i := int32(0); i < h; i++ {
		for j := int32(0); j < w; j++ {
			self := VertexID{i, j}
			buf = p.AntiDependencies(i, j, buf[:0])
			if !IsActive(p, i, j) && len(buf) > 0 {
				return fmt.Errorf("dag: inactive cell %v has anti-dependencies", self)
			}
			seen := make(map[VertexID]bool, len(buf))
			for _, a := range buf {
				if !inBounds(a) {
					return fmt.Errorf("dag: cell %v anti-depends on out-of-bounds %v", self, a)
				}
				if seen[a] {
					return fmt.Errorf("dag: cell %v lists anti-dependency %v twice", self, a)
				}
				seen[a] = true
				if !depSet[edge{from: self, to: a}] {
					return fmt.Errorf("dag: %v lists anti-dependency %v, but %v does not list %v as a dependency", self, a, a, self)
				}
				antiCount++
			}
		}
	}
	if antiCount != len(depSet) {
		return fmt.Errorf("dag: %d dependency edges but %d anti-dependency edges", len(depSet), antiCount)
	}
	// The cell graph is its own quotient, one cell a tile: the Kahn pass that
	// checks a tiling checks it.
	edges, _ := QuotientEdges(p, func(i, j int32) int { return int(VertexID{i, j}.Linear(w)) }, math.MaxInt)
	if _, ok := Span(edges, int(h)*int(w)); !ok {
		return fmt.Errorf("dag: cycle detected among the dependency edges")
	}
	return nil
}

// Stats summarizes a pattern's structure: cell and edge counts plus
// degree extremes. Profile walks every cell, so it suits analysis and
// tooling rather than hot paths.
type Stats struct {
	Cells       int64 // total cells in the bounds
	ActiveCells int64
	Edges       int64 // dependency edges among active cells
	MaxInDeg    int
	MaxOutDeg   int
	Sources     int64 // active cells with no dependencies
	Sinks       int64 // active cells with no anti-dependencies
}

// Profile computes structural statistics for a pattern.
func Profile(p Pattern) Stats {
	h, w := p.Bounds()
	var st Stats
	st.Cells = int64(h) * int64(w)
	var buf []VertexID
	for i := int32(0); i < h; i++ {
		for j := int32(0); j < w; j++ {
			if !IsActive(p, i, j) {
				continue
			}
			st.ActiveCells++
			buf = p.Dependencies(i, j, buf[:0])
			st.Edges += int64(len(buf))
			if len(buf) > st.MaxInDeg {
				st.MaxInDeg = len(buf)
			}
			if len(buf) == 0 {
				st.Sources++
			}
			buf = p.AntiDependencies(i, j, buf[:0])
			if len(buf) > st.MaxOutDeg {
				st.MaxOutDeg = len(buf)
			}
			if len(buf) == 0 {
				st.Sinks++
			}
		}
	}
	return st
}
