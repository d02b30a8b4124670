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

// hidden forwards only dag.Pattern: a stencil with its capability hidden,
// which the activation scans must walk through the generic arm.
type hidden struct{ dag.Pattern }

// bruteForce derives, straight from the pattern, what an activation scan of
// place p's chunk c (tile grid g) must find: per tile, the cross-tile edges
// into its cells that a decrement will still arrive for — every one from
// another place, restored target or not, and those from an unfinished cell
// of another of its tiles into an unfinished one — whether any unfinished
// cell of it depends on another place, and whether it has an unfinished
// cell at all. The scan's counter of a tile with none is retiredTile
// instead. (Both patterns are dense.)
func bruteForce(pat dag.Pattern, d dist.Dist, p int, g *TileGrid, c *Chunk[int32]) (edges []int32, remote, live []bool) {
	edges, remote, live = make([]int32, g.NumTiles()), make([]bool, g.NumTiles()), make([]bool, g.NumTiles())
	var buf []dag.VertexID
	for off := 0; off < c.Len(); off++ {
		done := c.Finished(off)
		live[g.TileOf(off)] = live[g.TileOf(off)] || !done
		i, j := d.CellAt(p, off)
		buf = pat.Dependencies(i, j, buf[:0])
		for _, dep := range buf {
			dp, doff := d.PlaceOffset(dep.I, dep.J)
			if dp != p && !done {
				remote[g.TileOf(off)] = true
			}
			if dp != p || !done && g.TileOf(doff) != g.TileOf(off) && !c.Finished(doff) {
				edges[g.TileOf(off)]++
			}
		}
	}
	return edges, remote, live
}

// TestActivationCountsCrossTileEdges runs the activation scan, for two
// stencils, on every box dist and dist.Func, whole and restricted to the
// survivors of a death, and every shape, in both arms —
// the stencil's, and the generic one with the stencil hidden — and checks
// the counters, the ready set and the remote flags against the brute-force
// count, fresh and with half the chunk restored finished; then that one
// TileDecrement per counted edge — every remote one, restored target or
// not — drains the counter of every tile with an unfinished cell to exactly
// zero, the contract benchmark/layers.go drives the chunk by, makes each of
// those that had a count ready once, and leaves every retired tile unready.
func TestActivationCountsCrossTileEdges(t *testing.T) {
	const h, w, places = 9, 11, 3
	// Diagonal, and Knapsack's row-dependent offsets, some reaching past the
	// grid (weights above the capacity) and some past a tile.
	ks, err := patterns.NewKnapsack([]int32{3, 1, 12, 2, 5, 11, 4, 7}, w-1)
	if err != nil {
		t.Fatal(err)
	}
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
	// ... and each as a recovery leaves it with place 1 dead, where the scan
	// that counts half restored chunks runs.
	for _, d := range dists {
		r, err := d.Restrict(func(p int) bool { return p != 1 })
		if err != nil {
			t.Fatal(err)
		}
		dists = append(dists, r)
	}
	for _, pat := range []dag.Pattern{patterns.NewDiagonal(h, w), ks} {
		arms := []struct {
			name string
			pat  dag.Pattern
		}{{"stencil", pat}, {"generic", hidden{pat}}}
		for _, d := range dists {
			for _, p := range d.Places() {
				box := d.LocalBox(p)
				if box.Rows*box.Cols != d.LocalCount(p) {
					t.Fatalf("%s: place %d box %+v, LocalCount %d", d.Name(), p, box, d.LocalCount(p))
				}
				for _, sh := range gridShapes(box.Rows, box.Cols) {
					for _, phase := range []string{"fresh", "half restored"} {
						for _, arm := range arms {
							g := NewTileGrid(box.Rows, box.Cols, sh[0], sh[1])
							name := fmt.Sprintf("%T %s place %d %s %s %s", pat, d.Name(), p, g, phase, arm.name)
							c := NewChunk[int32](p, d)
							c.ConfigureGrid(g)
							var ready []int
							if phase == "fresh" {
								ready = c.InitActivateTiles(arm.pat)
							} else {
								c.InitFlags(arm.pat)
								for off := 0; off < c.Len()/2; off++ {
									c.SetResult(off, 1)
								}
								ready = c.ActivateTiles(arm.pat)
							}
							_, custom := d.(*dist.Func)
							wantStencil := arm.name == "stencil" && !custom
							if (c.Stencil() != nil) != wantStencil {
								t.Fatalf("%s: stencil arm %v", name, c.Stencil() != nil)
							}
							edges, remote, live := bruteForce(pat, d, p, &g, c)
							isReady := map[int]bool{}
							for _, tl := range ready {
								isReady[tl] = true
							}
							want := make([]int32, len(edges))
							for tl, n := range edges {
								if want[tl] = n; !live[tl] {
									want[tl] = retiredTile
								}
								if got := atomic.LoadInt32(&c.tileIndeg[tl]); got != want[tl] {
									t.Fatalf("%s: tile %d counter %d, want %d", name, tl, got, want[tl])
								}
								if isReady[tl] != (live[tl] && n == 0) {
									t.Fatalf("%s: tile %d ready=%v with %d cross-tile edges", name, tl, isReady[tl], n)
								}
								if c.TileRemote(tl) != (remote[tl] || g.bi*g.bj == 1) {
									t.Fatalf("%s: tile %d remote flag %v, want %v", name, tl, c.TileRemote(tl), remote[tl])
								}
							}
							var buf []dag.VertexID
							flips, counted := 0, 0
							for tl, n := range edges {
								if live[tl] && n > 0 {
									counted++
								}
							}
							for off := 0; off < c.Len(); off++ {
								i, j := d.CellAt(p, off)
								buf = pat.Dependencies(i, j, buf[:0])
								for _, dep := range buf {
									dp, doff := d.PlaceOffset(dep.I, dep.J)
									if dp != p || !c.Finished(off) && g.TileOf(doff) != g.TileOf(off) && !c.Finished(doff) {
										if _, became := c.TileDecrement(off); became {
											flips++
										}
									}
								}
							}
							for tl := range want {
								if got := atomic.LoadInt32(&c.tileIndeg[tl]); got != want[tl]-edges[tl] || live[tl] && got != 0 {
									t.Fatalf("%s: tile %d counter %d after every edge was applied", name, tl, got)
								}
							}
							if flips != counted {
								t.Fatalf("%s: %d tiles became ready by decrement, want the %d with a count", name, flips, counted)
							}
						}
					}
				}
			}
		}
	}
}

// TestStencilNeedsTheBox: the stencil arm counts by offset arithmetic inside
// the dist's box, so a grid that is some other shape over the same cells —
// ConfigureTiles' one row over a taller box, as benchmark/layers.go cuts it —
// takes the generic arm.
func TestStencilNeedsTheBox(t *testing.T) {
	d := dist.NewBlockRow(8, 6, 2)
	c := NewChunk[int32](1, d)
	c.ConfigureTiles(5)
	c.InitActivateTiles(patterns.NewDiagonal(8, 6))
	if c.Stencil() != nil {
		t.Fatalf("one-row grid over a %+v box took the stencil arm", d.LocalBox(1))
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
