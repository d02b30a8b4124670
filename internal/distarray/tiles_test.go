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
	c.SetDepCache(false) // the scans a disk-backed chunk runs
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

// --- dependency-resolution cache (depcache.go) ---

func TestDepCacheFilledByInitActivateTiles(t *testing.T) {
	pat := patterns.NewGrid(6, 6)
	d := dist.NewBlockRow(6, 6, 1)
	c := NewChunk[int32](0, d)
	c.ConfigureTiles(6)
	if c.DepCached() {
		t.Fatal("cache live before the activation scan ran")
	}
	c.InitActivateTiles(pat)
	if !c.DepCached() {
		t.Fatal("cache not live after InitActivateTiles")
	}
	if !c.DepMonotone() {
		t.Fatal("Grid deps (up, left) all have smaller offsets; want monotone")
	}
	var buf []dag.VertexID
	ids, at, allDeps, allRes := c.DepView(0, c.Len())
	for off := 0; off < c.Len(); off++ {
		i, j := d.CellAt(0, off)
		if id := ids[off]; id.I != i || id.J != j {
			t.Fatalf("ids[%d] = %v, want (%d,%d)", off, id, i, j)
		}
		buf = pat.Dependencies(i, j, buf[:0])
		deps, res := allDeps[at[off]:at[off+1]], allRes[at[off]:at[off+1]]
		if len(deps) != len(buf) || len(res) != len(buf) {
			t.Fatalf("deps of cell %d: %d deps / %d res, want %d", off, len(deps), len(res), len(buf))
		}
		for k, dep := range buf {
			if deps[k] != dep {
				t.Fatalf("deps of cell %d[%d] = %v, want %v", off, k, deps[k], dep)
			}
			owner, doff := d.PlaceOffset(dep.I, dep.J)
			if int(res[k].Owner) != owner || int(res[k].Off) != doff {
				t.Fatalf("deps of cell %d res[%d] = %+v, want (%d,%d)", off, k, res[k], owner, doff)
			}
		}
	}
}

func TestDepCacheColWaveNotMonotone(t *testing.T) {
	// ColWave: (i,j) depends on all of column j-1, including rows below i —
	// larger row-major offsets — so ascending order is not topological.
	pat := patterns.NewColWave(6, 6)
	d := dist.NewBlockRow(6, 6, 1)
	c := NewChunk[int32](0, d)
	c.ConfigureTiles(6)
	c.InitActivateTiles(pat)
	if !c.DepCached() {
		t.Fatal("cache not live after InitActivateTiles")
	}
	if c.DepMonotone() {
		t.Fatal("ColWave has column deps below the dependent; want non-monotone")
	}
}

func TestDepCacheRecoveryRefillSkipsFinished(t *testing.T) {
	pat := patterns.NewGrid(6, 6)
	d := dist.NewBlockRow(6, 6, 1)
	c := NewChunk[int32](0, d)
	c.InitIndegrees(pat)
	c.SetResult(0, 7) // (0,0) restored finished before the epoch activates
	c.ConfigureTiles(6)
	c.ActivateTiles(pat)
	if !c.DepCached() || !c.DepMonotone() {
		t.Fatalf("cache live=%v mono=%v after ActivateTiles, want true/true", c.DepCached(), c.DepMonotone())
	}
	_, at, _, _ := c.DepView(0, c.Len())
	if n := at[1] - at[0]; n != 0 {
		t.Fatalf("finished cell cached %d deps, want 0", n)
	}
	if n := at[8] - at[7]; n != 2 { // (1,1): up + left
		t.Fatalf("cell (1,1) cached %d deps, want 2", n)
	}
}

func TestConfigureTilesInvalidatesDepCache(t *testing.T) {
	pat := patterns.NewGrid(6, 6)
	d := dist.NewBlockRow(6, 6, 1)
	c := NewChunk[int32](0, d)
	c.ConfigureTiles(6)
	c.InitActivateTiles(pat)
	if !c.DepCached() {
		t.Fatal("cache not live after scan")
	}
	c.ConfigureTiles(6) // next epoch assembly
	if c.DepCached() || c.DepMonotone() {
		t.Fatal("cache still live after ConfigureTiles; resolutions are per-epoch")
	}
}
