package core

import (
	"fmt"
	"testing"

	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/sched"
)

// TestTilingStrategyParity is the tiling acceptance matrix: every
// scheduling strategy, run per-vertex (tile=1, the pre-tiling engine),
// with small fixed tiles, and with the auto pick, must produce a matrix
// cell-for-cell identical to the serial reference.
func TestTilingStrategyParity(t *testing.T) {
	pat := patterns.NewDiagonal(24, 18)
	strategies := map[string]sched.Strategy{
		"local":   sched.Local,
		"random":  sched.Random,
		"mincomm": sched.MinComm,
		"steal":   sched.Steal,
	}
	for name, st := range strategies {
		for _, tile := range []int{1, 4, 0} {
			name, st, tile := name, st, tile
			label := fmt.Sprintf("%s/tile=%d", name, tile)
			if tile == 0 {
				label = name + "/tile=auto"
			}
			t.Run(label, func(t *testing.T) {
				cfg := baseConfig(pat, 4)
				cfg.Strategy = st
				cfg.TileSize = tile
				runAndCheck(t, cfg)
			})
		}
	}
}

// TestTilingKillMidRunRecovers kills a place mid-run under tiled
// execution: the rebuilt epoch re-derives the per-vertex indegrees, the
// resume scan re-activates tiles from them, and the result must still
// match the reference bit-exactly.
func TestTilingKillMidRunRecovers(t *testing.T) {
	for _, tile := range []int{4, 0} {
		tile := tile
		t.Run(fmt.Sprintf("tile=%d", tile), func(t *testing.T) {
			pat := patterns.NewDiagonal(24, 18)
			cfg, gate, release := gatedConfig(pat, 4, 150)
			cfg.TileSize = tile
			cl, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- cl.Run() }()
			<-gate
			cl.Kill(2)
			release()
			if err := <-done; err != nil {
				t.Fatalf("Run: %v", err)
			}
			if cl.Stats().Recoveries < 1 {
				t.Fatal("no recovery recorded")
			}
			checkResult(t, cl, pat)
		})
	}
}

// TestTilingCyclicQuotientFallback runs a pattern whose tile quotient is
// cyclic under the row-major tiling (ColWave: columns advance against the
// row-major offset order, so coarse tiles depend on each other both
// ways). The engine must detect this and fall back to per-vertex
// scheduling uniformly — observable as one tile task per computed cell —
// rather than deadlock.
func TestTilingCyclicQuotientFallback(t *testing.T) {
	pat := patterns.NewColWave(12, 14)
	cfg := baseConfig(pat, 3)
	cfg.TileSize = 8
	cl := runAndCheck(t, cfg)
	s := cl.Stats()
	if s.TilesExecuted != s.ComputedCells {
		t.Fatalf("expected per-vertex fallback (tiles == cells), got %d tiles for %d cells",
			s.TilesExecuted, s.ComputedCells)
	}
}

// TestTilingCoarseTasks is the positive control for the fallback test:
// on a quotient-acyclic layout the engine must actually coarsen, not
// silently run per-vertex.
func TestTilingCoarseTasks(t *testing.T) {
	pat := patterns.NewGrid(24, 24)
	cfg := baseConfig(pat, 3)
	cfg.TileSize = 16
	cl := runAndCheck(t, cfg)
	s := cl.Stats()
	if s.TilesExecuted >= s.ComputedCells/8 {
		t.Fatalf("tiling not engaged: %d tile tasks for %d cells", s.TilesExecuted, s.ComputedCells)
	}
}

// TestTilingNoDepCacheParity re-runs tiled execution spilled to disk, the
// one configuration that runs without the dependency-resolution cache:
// the walk's on-the-fly resolution path must stay cell-for-cell identical
// to the reference for both a monotone wavefront pattern (whose cached
// runs take the ascending-offset fast path) and an interval pattern
// (whose same-tile deps point at larger offsets, forcing the Kahn walk).
func TestTilingNoDepCacheParity(t *testing.T) {
	pats := map[string]func() Config[int64]{
		"diagonal": func() Config[int64] { return baseConfig(patterns.NewDiagonal(24, 18), 3) },
		"interval": func() Config[int64] { return baseConfig(patterns.NewInterval(12), 3) },
	}
	for name, mk := range pats {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			cfg := mk()
			cfg.Spill = &SpillConfig{Dir: t.TempDir()}
			cfg.TileSize = 4
			runAndCheck(t, cfg)
		})
	}
}
