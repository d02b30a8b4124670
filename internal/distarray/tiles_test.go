package distarray

import (
	"sync/atomic"
	"testing"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/dist"
)

// Grid 6x6 on one place, tiles of 6 cells = one row per tile (row-major
// offsets). Tile t's cross-tile inputs are the vertical edges from row
// t-1: 6 for interior rows, 0 for row 0.
func tiledRowChunk(t *testing.T) (*Chunk[int32], dag.Pattern, dist.Dist) {
	t.Helper()
	pat := patterns.NewGrid(6, 6)
	d := dist.NewBlockRow(6, 6, 1)
	c := NewChunk[int32](0, d)
	c.InitIndegrees(pat)
	c.ConfigureTiles(6)
	return c, pat, d
}

func TestActivateTilesDerivesCrossTileIndegrees(t *testing.T) {
	c, pat, _ := tiledRowChunk(t)
	ready := c.ActivateTiles(pat)
	if len(ready) != 1 || ready[0] != 0 {
		t.Fatalf("ready tiles = %v, want [0] (only the top row has no cross-tile inputs)", ready)
	}
	// Row 1..5 each wait on the 6 vertical edges from the row above
	// (Grid deps are up and left; left edges are intra-tile).
	for tile := 1; tile < c.NumTiles(); tile++ {
		want := int32(6)
		if got := atomic.LoadInt32(&c.tileIndeg[tile]); got != want {
			t.Fatalf("tileIndeg[%d] = %d, want %d", tile, got, want)
		}
	}
}

func TestTileDecrementPreActivationFoldsIntoScan(t *testing.T) {
	c, pat, d := tiledRowChunk(t)
	// Before ActivateTiles: decrements must only lower the per-vertex
	// indegree; the later scan folds them in.
	off := d.LocalOffset(1, 0) // deps: (0,0) vertical only
	if tile, ready := c.TileDecrement(off); ready {
		t.Fatalf("tile %d reported ready before activation", tile)
	}
	if got := c.Indegree(off); got != 0 {
		t.Fatalf("indegree after pre-activation decrement = %d, want 0", got)
	}
	ready := c.ActivateTiles(pat)
	if len(ready) != 1 || ready[0] != 0 {
		t.Fatalf("ready tiles = %v, want [0]", ready)
	}
	// (1,0)'s only edge is already satisfied, so tile 1 now waits on one
	// fewer cross-tile edge than its siblings.
	if got := atomic.LoadInt32(&c.tileIndeg[1]); got != 5 {
		t.Fatalf("tileIndeg[1] = %d, want 5 (6 cross-tile edges, 1 pre-satisfied)", got)
	}
}

func TestTileDecrementDrainsToReady(t *testing.T) {
	c, pat, d := tiledRowChunk(t)
	c.ActivateTiles(pat)
	// Finish row 0 and deliver every cross-tile decrement into row 1:
	// the 6 vertical edges. The last one must flip the tile.
	for j := int32(0); j < 6; j++ {
		c.SetResult(d.LocalOffset(0, j), int32(j))
	}
	var flips int
	for j := int32(0); j < 6; j++ {
		if _, ready := c.TileDecrement(d.LocalOffset(1, j)); ready {
			flips++
		}
	}
	if flips != 1 {
		t.Fatalf("tile 1 became ready %d times, want exactly once", flips)
	}
	if got := atomic.LoadInt32(&c.tileIndeg[1]); got != 0 {
		t.Fatalf("tileIndeg[1] = %d after draining, want 0", got)
	}
}

func TestTileDecrementFinishedCellAbsorbed(t *testing.T) {
	c, pat, d := tiledRowChunk(t)
	// Mark (1,0) finished before activation (a recovery restore): the
	// scan skips it, and a late decrement aimed at it must not touch the
	// live counter.
	c.SetResult(d.LocalOffset(1, 0), 7)
	c.ActivateTiles(pat)
	before := atomic.LoadInt32(&c.tileIndeg[1])
	if _, ready := c.TileDecrement(d.LocalOffset(1, 0)); ready {
		t.Fatal("decrement of a finished cell made its tile ready")
	}
	if got := atomic.LoadInt32(&c.tileIndeg[1]); got != before {
		t.Fatalf("tileIndeg[1] changed %d -> %d on a finished-cell decrement", before, got)
	}
}

func TestTryMarkTileQueuedOnce(t *testing.T) {
	c, _, _ := tiledRowChunk(t)
	if !c.TryMarkTileQueued(2) {
		t.Fatal("first claim failed")
	}
	if c.TryMarkTileQueued(2) {
		t.Fatal("second claim succeeded; tiles must enqueue at most once per epoch")
	}
	if !c.TryMarkTileQueued(3) {
		t.Fatal("claim of a different tile failed")
	}
}

func TestConfigureTilesResetsPerEpoch(t *testing.T) {
	c, pat, _ := tiledRowChunk(t)
	c.ActivateTiles(pat)
	c.TryMarkTileQueued(0)
	// A recovery reconfigures: queued flags and counters must reset and
	// the counters must go inactive until the next activation scan.
	c.ConfigureTiles(6)
	if !c.TryMarkTileQueued(0) {
		t.Fatal("queued flag survived ConfigureTiles")
	}
	if c.tileLive.Load() {
		t.Fatal("tile counters still live after ConfigureTiles")
	}
}

// The two tests below keep the names they had when the activation scan
// filled a dependency cache; they check what the scan counts in the same
// two situations.

func TestDepCacheColWaveNotMonotone(t *testing.T) {
	// ColWave: (i,j) depends on all of column j-1, including rows below i —
	// larger row-major offsets — so ascending order is not topological. In
	// one tile over the whole box every dependency is in the tile: the fresh
	// scan must count the ones past the cell it is on as same-tile before it
	// has reached them, and the two-phase form a recovery runs must agree.
	pat := patterns.NewColWave(6, 6)
	d := dist.NewBlockRow(6, 6, 1)
	for _, fresh := range []bool{true, false} {
		c := NewChunk[int32](0, d)
		c.ConfigureTiles(36)
		var ready []int
		if fresh {
			ready = c.InitActivateTiles(pat)
		} else {
			c.InitIndegrees(pat)
			ready = c.ActivateTiles(pat)
		}
		if got := atomic.LoadInt32(&c.tileIndeg[0]); len(ready) != 1 || ready[0] != 0 || got != 0 {
			t.Fatalf("fresh=%v: ready %v, tileIndeg[0] = %d; want [0] and 0", fresh, ready, got)
		}
		if got := c.Indegree(d.LocalOffset(0, 1)); got != 6 {
			t.Fatalf("fresh=%v: indegree of (0,1) = %d, want 6 (all of column 0)", fresh, got)
		}
	}
}

func TestDepCacheRecoveryRefillSkipsFinished(t *testing.T) {
	// A recovery restores (1,0) finished and replays the decrements of its
	// edges to (2,0) and (1,1) before the resume scan. The scan must leave
	// the restored cell out: its own edge from (0,0) is not waited on, and
	// (1,1) counts it neither as a cross-tile input nor as a same-tile one.
	c, pat, d := tiledRowChunk(t)
	c.SetResult(d.LocalOffset(1, 0), 7)
	c.DecrementIndegree(d.LocalOffset(2, 0))
	c.DecrementIndegree(d.LocalOffset(1, 1))
	ready := c.ActivateTiles(pat)
	if len(ready) != 1 || ready[0] != 0 {
		t.Fatalf("ready tiles = %v, want [0]", ready)
	}
	// Rows 1 and 2 each wait on 5 vertical edges: row 1 has 5 unfinished
	// cells, and row 2's edge from (1,0) was replayed. Row 3 waits on all 6.
	for tile, want := range []int32{0, 5, 5, 6} {
		if got := atomic.LoadInt32(&c.tileIndeg[tile]); got != want {
			t.Fatalf("tileIndeg[%d] = %d, want %d", tile, got, want)
		}
	}
	if got := c.Indegree(d.LocalOffset(1, 1)); got != 1 {
		t.Fatalf("indegree of (1,1) = %d, want 1 (up only)", got)
	}
}
