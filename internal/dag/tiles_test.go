package dag_test

import (
	"testing"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
)

func TestQuotientAcyclicRowTiles(t *testing.T) {
	// Row-major row tiles over a down/right Grid only ever point
	// downward: acyclic.
	pat := patterns.NewGrid(8, 8)
	if !dag.QuotientAcyclic(pat, func(i, j int32) int { return int(i) }, 8, 1<<16) {
		t.Fatal("row tiling of the grid reported cyclic")
	}
}

func TestQuotientCyclicCheckerboard(t *testing.T) {
	// A checkerboard projection of the same grid sends edges both ways
	// between the two tiles: cyclic, even though the vertex DAG is not.
	pat := patterns.NewGrid(8, 8)
	if dag.QuotientAcyclic(pat, func(i, j int32) int { return int(i+j) % 2 }, 2, 1<<16) {
		t.Fatal("checkerboard tiling reported acyclic")
	}
}

func TestQuotientColumnTilesOfColWave(t *testing.T) {
	// ColWave's long-range edges flow against the row-major order, but a
	// per-column tiling follows the wave: acyclic. (The engine's row-major
	// tiles over this pattern are cyclic — covered by the core tests.)
	pat := patterns.NewColWave(6, 6)
	if !dag.QuotientAcyclic(pat, func(i, j int32) int { return int(j) }, 6, 1<<16) {
		t.Fatal("column tiling of colwave reported cyclic")
	}
}

func TestQuotientEdgeBudgetConservative(t *testing.T) {
	pat := patterns.NewGrid(16, 16)
	// Every cell its own tile: ~2 edges per cell, far over a budget of 8.
	tileOf := func(i, j int32) int { return int(i)*16 + int(j) }
	if dag.QuotientAcyclic(pat, tileOf, 256, 8) {
		t.Fatal("edge budget overflow must report not-safe")
	}
	if !dag.QuotientAcyclic(pat, tileOf, 256, 1<<20) {
		t.Fatal("per-vertex projection of an acyclic DAG reported cyclic")
	}
}

func TestQuotientSingleTileTrivial(t *testing.T) {
	pat := patterns.NewGrid(4, 4)
	if !dag.QuotientAcyclic(pat, func(i, j int32) int { return 0 }, 1, 4) {
		t.Fatal("single tile must be trivially acyclic")
	}
}

func TestQuotientSpan(t *testing.T) {
	pat := patterns.NewDiagonal(12, 12)
	for _, tc := range []struct {
		name        string
		tileOf      func(i, j int32) int
		tiles, span int
	}{
		// Whole rows form a chain: every tile lies on it.
		{"rows", func(i, j int32) int { return int(i) }, 12, 12},
		// A 4 x 3 grid of 3 x 4 blocks: the longest chain walks one edge
		// of the grid and then the other.
		{"blocks", func(i, j int32) int { return int(i/3)*3 + int(j/4) }, 12, 4 + 3 - 1},
		// Every cell its own tile: the DAG's own critical path.
		{"cells", func(i, j int32) int { return int(i)*12 + int(j) }, 144, 12 + 12 - 1},
		{"one", func(i, j int32) int { return 0 }, 1, 1},
	} {
		span, ok := dag.QuotientSpan(pat, tc.tileOf, tc.tiles, 1<<16)
		if !ok || span != tc.span {
			t.Errorf("%s: span %d ok %v, want %d", tc.name, span, ok, tc.span)
		}
	}
	if _, ok := dag.QuotientSpan(pat, func(i, j int32) int { return int(i+j) % 2 }, 2, 1<<16); ok {
		t.Error("a cyclic quotient has no span")
	}
}
