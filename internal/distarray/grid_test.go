package distarray

import (
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/dist"
)

// gridShapes covers the geometry's corners on a box of the given size:
// single cells, one-row and one-column tiles, blocks that divide the box and
// blocks that leave ragged edges (down to a strip one cell wide), and a tile
// larger than the box.
func gridShapes(rows, cols int) [][2]int {
	return [][2]int{{1, 1}, {1, 3}, {3, 1}, {2, 3}, {rows, 1}, {1, cols},
		{rows - 1, cols - 1}, {rows + 5, cols + 5}}
}

// TestTileGridPartitionsTheBox checks the one geometry against itself: every
// offset lies in exactly one tile, TileOf and TileBox agree and Holds is
// membership.
func TestTileGridPartitionsTheBox(t *testing.T) {
	for _, box := range [][2]int{{7, 10}, {1, 9}, {9, 1}, {4, 4}} {
		rows, cols := box[0], box[1]
		for _, sh := range gridShapes(rows, cols) {
			g := NewTileGrid(rows, cols, sh[0], sh[1])
			name := fmt.Sprintf("%s (asked %dx%d)", g, sh[0], sh[1])
			owner := make([]int, rows*cols)
			for i := range owner {
				owner[i] = -1
			}
			for tl := 0; tl < g.NumTiles(); tl++ {
				b := g.TileBox(tl)
				if b.Rows < 1 || b.W < 1 || b.Stride != cols {
					t.Fatalf("%s: tile %d is %+v", name, tl, b)
				}
				for r := 0; r < b.Rows; r++ {
					for off := b.Lo + r*b.Stride; off < b.Lo+r*b.Stride+b.W; off++ {
						if owner[off] != -1 {
							t.Fatalf("%s: offset %d in tiles %d and %d", name, off, owner[off], tl)
						}
						owner[off] = tl
					}
				}
			}
			for off, tl := range owner {
				if tl == -1 || g.TileOf(off) != tl {
					t.Fatalf("%s: offset %d enumerated by tile %d, TileOf says %d", name, off, tl, g.TileOf(off))
				}
				for other := 0; other < g.NumTiles(); other++ {
					if got := g.TileBox(other).Holds(off); got != (other == tl) {
						t.Fatalf("%s: tile %d Holds(%d) = %v, owner is %d", name, other, off, got, tl)
					}
				}
			}
			if b := g.TileBox(0); b.Holds(-1) || b.Holds(rows*cols) {
				t.Fatalf("%s: tile 0 holds an offset outside the box", name)
			}
		}
	}
}

// crossTileEdges counts, per tile of place p, the dependency edges that enter
// it from another tile or another place — what the activation scan must
// derive — straight from the pattern.
func crossTileEdges(pat dag.Pattern, d dist.Dist, p int, g *TileGrid) []int32 {
	want := make([]int32, g.NumTiles())
	var buf []dag.VertexID
	for off := 0; off < d.LocalCount(p); off++ {
		i, j := d.CellAt(p, off)
		if !dag.IsActive(pat, i, j) {
			continue
		}
		buf = pat.Dependencies(i, j, buf[:0])
		for _, dep := range buf {
			if dp, doff := d.PlaceOffset(dep.I, dep.J); dp != p || g.TileOf(doff) != g.TileOf(off) {
				want[g.TileOf(off)]++
			}
		}
	}
	return want
}

// TestActivationCountsCrossTileEdges runs both activation scans on every box
// dist and every shape, dependency cache on and off, and checks the counters,
// the ready set and the remote flags against the brute-force count; then
// that one TileDecrement per counted edge drains every counter to exactly
// zero — the contract benchmark/layers.go drives the chunk by.
func TestActivationCountsCrossTileEdges(t *testing.T) {
	const h, w, places = 9, 11, 3
	pat := patterns.NewDiagonal(h, w)
	dists := []dist.Dist{
		dist.NewBlockRow(h, w, places), dist.NewBlockCol(h, w, places),
		dist.NewCyclicRow(h, w, places), dist.NewCyclicCol(h, w, places),
		dist.NewBlockCyclicRow(h, w, 2, places), dist.NewBlock2D(h, w, 3, 1),
	}
	fn, err := dist.NewFunc(h, w, []int{0, 1, 2}, func(i, j int32) int { return int(i*3+j) % places })
	if err != nil {
		t.Fatal(err)
	}
	dists = append(dists, fn)
	for _, d := range dists {
		for p := 0; p < places; p++ {
			box := d.LocalBox(p)
			if box.Rows*box.Cols != d.LocalCount(p) {
				t.Fatalf("%s: place %d box %+v, LocalCount %d", d.Name(), p, box, d.LocalCount(p))
			}
			for _, sh := range gridShapes(box.Rows, box.Cols) {
				for _, fresh := range []bool{true, false} {
					for _, cache := range []bool{true, false} {
						g := NewTileGrid(box.Rows, box.Cols, sh[0], sh[1])
						name := fmt.Sprintf("%s place %d %s fresh=%v cache=%v", d.Name(), p, g, fresh, cache)
						c := NewChunk[int32](p, d)
						c.SetDepCache(cache)
						c.ConfigureGrid(g)
						var ready []int
						if fresh {
							ready = c.InitActivateTiles(pat)
						} else {
							c.InitIndegrees(pat)
							ready = c.ActivateTiles(pat)
						}
						want := crossTileEdges(pat, d, p, &g)
						isReady := map[int]bool{}
						for _, tl := range ready {
							isReady[tl] = true
						}
						for tl, n := range want {
							if got := atomic.LoadInt32(&c.tileIndeg[tl]); got != n {
								t.Fatalf("%s: tile %d counter %d, want %d", name, tl, got, n)
							}
							if isReady[tl] != (n == 0) {
								t.Fatalf("%s: tile %d ready=%v with %d cross-tile edges", name, tl, isReady[tl], n)
							}
						}
						if c.DepCached() != cache {
							t.Fatalf("%s: DepCached = %v", name, c.DepCached())
						}
						var buf []dag.VertexID
						flips := 0
						for off := 0; off < c.Len(); off++ {
							i, j := d.CellAt(p, off)
							buf = pat.Dependencies(i, j, buf[:0])
							remote := false
							for _, dep := range buf {
								dp, doff := d.PlaceOffset(dep.I, dep.J)
								remote = remote || dp != p
								if dp != p || g.TileOf(doff) != g.TileOf(off) {
									if _, became := c.TileDecrement(off); became {
										flips++
									}
								}
							}
							if remote && !c.TileRemote(g.TileOf(off)) {
								t.Fatalf("%s: tile %d has a remote dependency and no flag", name, g.TileOf(off))
							}
						}
						for tl := range want {
							if got := atomic.LoadInt32(&c.tileIndeg[tl]); got != 0 {
								t.Fatalf("%s: tile %d counter %d after every edge was applied", name, tl, got)
							}
						}
						if flips != g.NumTiles()-len(ready) {
							t.Fatalf("%s: %d tiles became ready by decrement, want %d", name, flips, g.NumTiles()-len(ready))
						}
					}
				}
			}
		}
	}
}

// TestConfigureTilesIsTheOneRowGrid pins what ConfigureTiles(size) means:
// runs of size consecutive offsets, whatever box the dist lays them out in.
func TestConfigureTilesIsTheOneRowGrid(t *testing.T) {
	d := dist.NewBlockRow(6, 7, 2)
	c := NewChunk[int32](1, d)
	c.ConfigureTiles(5)
	if bi, bj := c.Shape(); bi != 1 || bj != 5 || c.NumTiles() != (c.Len()+4)/5 {
		t.Fatalf("ConfigureTiles(5) over %d cells: %dx%d tiles, %d of them", c.Len(), bi, bj, c.NumTiles())
	}
	for off := 0; off < c.Len(); off++ {
		if c.TileOf(off) != off/5 {
			t.Fatalf("offset %d in tile %d, want %d", off, c.TileOf(off), off/5)
		}
	}
	if b := c.TileBox(c.NumTiles() - 1); b.Rows != 1 || b.Lo+b.W != c.Len() {
		t.Fatalf("last tile %+v does not end at %d", b, c.Len())
	}
}
