package distarray

import (
	"sync"
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
	c.InitFlags(pat)
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
		if got := c.tileIndeg[tile].Load(); got != want {
			t.Fatalf("tileIndeg[%d] = %d, want %d", tile, got, want)
		}
	}
}

func TestTileDecrementPreActivationFoldsIntoScan(t *testing.T) {
	c, pat, d := tiledRowChunk(t)
	// Before ActivateTiles a decrement can only take the counter below zero;
	// the later scan adds its count on top.
	off := d.LocalOffset(1, 0) // deps: (0,0) vertical only
	if tile, ready := c.TileDecrement(off); ready {
		t.Fatalf("tile %d reported ready before activation", tile)
	}
	if got := c.tileIndeg[1].Load(); got != -1 {
		t.Fatalf("tileIndeg[1] after a pre-activation decrement = %d, want -1", got)
	}
	// So can a walk's batched settle: a tile the scan has already made ready
	// may run while it is still adding to the later ones.
	if c.TileAdd(2, 2) {
		t.Fatal("tile 2 reported ready before activation")
	}
	ready := c.ActivateTiles(pat)
	if len(ready) != 1 || ready[0] != 0 {
		t.Fatalf("ready tiles = %v, want [0]", ready)
	}
	// Tiles 1 and 2 now wait on one and two fewer of their 6 cross-tile
	// edges than their siblings.
	for tile, want := range []int32{0, 5, 4, 6} {
		if got := c.tileIndeg[tile].Load(); got != want {
			t.Fatalf("tileIndeg[%d] = %d, want %d", tile, got, want)
		}
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
	if got := c.tileIndeg[1].Load(); got != 0 {
		t.Fatalf("tileIndeg[1] = %d after draining, want 0", got)
	}
}

func TestTileDecrementFinishedCellCounted(t *testing.T) {
	// Grid 4x3 on two places: place 1 owns rows 2 and 3, one tile each.
	// (2,0) is restored finished before activation. Its remote edge from
	// (1,0) is counted all the same — its sender will decrement the tile,
	// not the cell — while (3,0)'s local edge from it is not: the scan reads
	// the restored flag.
	pat := patterns.NewGrid(4, 3)
	d := dist.NewBlockRow(4, 3, 2)
	c := NewChunk[int32](1, d)
	c.InitFlags(pat)
	c.ConfigureTiles(3)
	c.SetResult(d.LocalOffset(2, 0), 7)
	if ready := c.ActivateTiles(pat); len(ready) != 0 {
		t.Fatalf("ready tiles = %v, want none", ready)
	}
	for tile, want := range []int32{3, 2} {
		if got := c.tileIndeg[tile].Load(); got != want {
			t.Fatalf("tileIndeg[%d] = %d, want %d", tile, got, want)
		}
	}
	// Nothing is absorbed: the decrement aimed at the restored cell counts.
	flips := 0
	for j := int32(0); j < 3; j++ {
		if _, ready := c.TileDecrement(d.LocalOffset(2, j)); ready {
			flips++
		}
	}
	if got := c.tileIndeg[0].Load(); flips != 1 || got != 0 {
		t.Fatalf("tile 0 became ready %d times, counter %d; want once and 0", flips, got)
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
	if got := c.tileIndeg[1].Load(); got != 0 {
		t.Fatalf("tileIndeg[1] = %d after ConfigureTiles, want 0", got)
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
	// one tile over the whole box every dependency is in the tile, the ones
	// past the cell the scan is on included: none is a cross-tile edge.
	pat := patterns.NewColWave(6, 6)
	d := dist.NewBlockRow(6, 6, 1)
	c := NewChunk[int32](0, d)
	c.ConfigureTiles(36)
	ready := c.InitActivateTiles(pat)
	if got := c.tileIndeg[0].Load(); len(ready) != 1 || ready[0] != 0 || got != 0 {
		t.Fatalf("ready %v, tileIndeg[0] = %d; want [0] and 0", ready, got)
	}
}

func TestDepCacheRecoveryRefillSkipsFinished(t *testing.T) {
	// A recovery restores (1,0) finished before the resume scan. The scan
	// must leave the restored cell out: its own edge from (0,0) is not
	// waited on, and its edge to (2,0) is satisfied by its flag, with no
	// decrement replayed.
	c, pat, d := tiledRowChunk(t)
	c.SetResult(d.LocalOffset(1, 0), 7)
	ready := c.ActivateTiles(pat)
	if len(ready) != 1 || ready[0] != 0 {
		t.Fatalf("ready tiles = %v, want [0]", ready)
	}
	// Rows 1 and 2 each wait on 5 vertical edges: row 1 has 5 unfinished
	// cells, and row 2's edge from (1,0) is finished. Row 3 waits on all 6.
	for tile, want := range []int32{0, 5, 5, 6} {
		if got := c.tileIndeg[tile].Load(); got != want {
			t.Fatalf("tileIndeg[%d] = %d, want %d", tile, got, want)
		}
	}
}

// TestActivationRacesEarlyDecrements runs a recovery's resume scan against
// the decrements that may beat it there: a recovered place's chunk, every
// seventh cell restored, takes one decrement per edge from another place —
// restored targets' edges included, which are applied, not absorbed — on
// four goroutines while ActivateTiles runs, then the decrements of its own
// cross-tile edges. Every tile with an unfinished cell must be reported
// ready exactly once — by the scan or by a decrement — with no lock between
// them and no counter going negative; a tile with none, never: the scan
// retires it.
func TestActivationRacesEarlyDecrements(t *testing.T) {
	const h, w, places, self = 48, 40, 3, 1
	diag := patterns.NewDiagonal(h, w)
	d := dist.NewCyclicRow(h, w, places)
	box := d.LocalBox(self)
	for _, pat := range []dag.Pattern{diag, hidden{diag}} {
		for _, sh := range [][2]int{{1, 1}, {1, 8}, {4, 8}, {box.Rows, box.Cols}} {
			old := NewChunk[int32](self, d)
			old.InitFlags(pat)
			for off := 0; off < old.Len(); off += 7 {
				old.SetResult(off, 1)
			}
			c, _ := RebuildChunk(old, pat, d, false)
			g := NewTileGrid(box.Rows, box.Cols, sh[0], sh[1])
			c.ConfigureGrid(g)
			var remote, local []int // the target offset of each edge
			var buf []dag.VertexID
			for off := 0; off < c.Len(); off++ {
				i, j := d.CellAt(self, off)
				buf = pat.Dependencies(i, j, buf[:0])
				for _, dep := range buf {
					if dp, doff := d.PlaceOffset(dep.I, dep.J); dp != self {
						remote = append(remote, off)
					} else if !c.Finished(off) && !c.Finished(doff) && g.TileOf(doff) != g.TileOf(off) {
						local = append(local, off)
					}
				}
			}
			readies := make([]atomic.Int32, g.NumTiles())
			start := make(chan struct{})
			var wg sync.WaitGroup
			for k := 0; k < 4; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for e := k; e < len(remote); e += 4 {
						if tl, ready := c.TileDecrement(remote[e]); ready {
							readies[tl].Add(1)
						}
					}
				}()
			}
			close(start)
			for _, tl := range c.ActivateTiles(pat) {
				readies[tl].Add(1)
			}
			wg.Wait()
			for _, off := range local {
				if tl, ready := c.TileDecrement(off); ready {
					readies[tl].Add(1)
				}
			}
			for tl := range readies {
				b, live := g.TileBox(tl), false
				for off := b.Lo; off < b.Lo+b.Span(); off++ {
					live = live || b.Holds(off) && !c.Finished(off)
				}
				if got := readies[tl].Load(); live && got != 1 || !live && got != 0 {
					t.Fatalf("%T %s: tile %d (live %v) reported ready %d times", pat, g, tl, live, got)
				}
			}
		}
	}
}
