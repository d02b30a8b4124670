package distarray

import (
	"fmt"
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
// offset lies in exactly one tile, TileOf and TileBox agree, Holds is
// membership and TileMajor numbers the cells tile by tile, row by row.
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
			pos := 0
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
						if g.TileMajor(off) != pos {
							t.Fatalf("%s: TileMajor(%d) = %d, want %d", name, off, g.TileMajor(off), pos)
						}
						pos++
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

// bruteForce derives, straight from the pattern and a per-cell model of the
// finished state (fin, by local offset), what an activation scan of place p's
// chunk (tile grid g) must find: per tile, the cross-tile edges into its cells
// that a decrement will still arrive for — every one from another place,
// restored target or not, and those from an unfinished cell of another of its
// tiles into an unfinished one — and whether it has an unfinished cell at all.
// The scan's counter of a tile with none is retiredTile instead. (Both
// patterns are dense.)
func bruteForce(pat dag.Pattern, d dist.Dist, p int, g *TileGrid, fin []bool) (edges []int32, live []bool) {
	edges, live = make([]int32, g.NumTiles()), make([]bool, g.NumTiles())
	var buf []dag.VertexID
	for off, done := range fin {
		live[g.TileOf(off)] = live[g.TileOf(off)] || !done
		i, j := d.CellAt(p, off)
		buf = pat.Dependencies(i, j, buf[:0])
		for _, dep := range buf {
			dp, doff := d.PlaceOffset(dep.I, dep.J)
			if dp != p || !done && g.TileOf(doff) != g.TileOf(off) && !fin[doff] {
				edges[g.TileOf(off)]++
			}
		}
	}
	return edges, live
}

// restore finishes the cells of c that phase names, as a recovery's restore
// would, and returns the per-cell model of what it finished: "fresh" none;
// "half restored" the first half of the offsets, published as one run (it
// ends mid-word and mid-tile, and tiles share its words); "scattered" every
// seventh cell, so most tiles hold rows with restored cells beside unfinished
// ones; "fully restored" every cell, which retires every tile.
func restore(c *Chunk[int32], phase string) []bool {
	fin := make([]bool, c.Len())
	switch phase {
	case "half restored":
		for off := range c.Len() / 2 {
			c.SetValue(off, 1)
			fin[off] = true
		}
		c.Publish(0, c.Len()/2)
		c.AddDone(int64(c.Len() / 2))
	case "scattered":
		for off := 0; off < c.Len(); off += 7 {
			c.SetResult(off, 1)
			fin[off] = true
		}
	case "fully restored":
		for off := range fin {
			c.SetResult(off, 1)
			fin[off] = true
		}
	}
	return fin
}

// checkFinished compares every reading of c's finished state with the
// per-cell model fin: Finished, FinishedRun over every prefix of every tile
// row and over the whole chunk, ForEachFinished (every cell of a dense
// pattern is active), and pendingTiles against the model's live tiles.
func checkFinished(t *testing.T, name string, c *Chunk[int32], pat dag.Pattern, fin, live []bool) {
	t.Helper()
	count := func(lo, n int) (k int) {
		for _, f := range fin[lo : lo+n] {
			if f {
				k++
			}
		}
		return k
	}
	for off, f := range fin {
		if c.Finished(off) != f {
			t.Fatalf("%s: Finished(%d) = %v, model %v", name, off, !f, f)
		}
	}
	if got, want := c.FinishedRun(0, c.Len()), count(0, c.Len()); got != want {
		t.Fatalf("%s: FinishedRun over the chunk = %d, model %d", name, got, want)
	}
	for tl := 0; tl < c.NumTiles(); tl++ {
		b := c.TileBox(tl)
		for lo := b.Lo; lo < b.Lo+b.Span(); lo += b.Stride {
			for n := 1; n <= b.W; n++ {
				if got, want := c.FinishedRun(lo, n), count(lo, n); got != want {
					t.Fatalf("%s: FinishedRun(%d, %d) = %d, model %d", name, lo, n, got, want)
				}
			}
		}
	}
	seen := make([]bool, len(fin))
	c.ForEachFinished(pat, func(_, _ int32, off int, _ int32) { seen[off] = true })
	for off := range fin {
		if seen[off] != fin[off] {
			t.Fatalf("%s: ForEachFinished visited %d: %v, model %v", name, off, seen[off], fin[off])
		}
	}
	for tl, p := range c.pendingTiles() {
		if p != live[tl] {
			t.Fatalf("%s: pendingTiles[%d] = %v, model %v", name, tl, p, live[tl])
		}
	}
}

// TestActivationCountsCrossTileEdges runs the activation scan, for two
// stencils, on every box dist and dist.Func, whole and restricted to the
// survivors of a death, and every shape, in both arms —
// the stencil's, and the generic one with the stencil hidden — and checks
// the finished state (checkFinished), the counters and the ready set against
// a brute-force count over a per-cell model, in each of
// restore's phases (the boxes' rows are 1 to 11 cells long, so tiles share
// words and rows cross them); then that one
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
					for _, phase := range []string{"fresh", "half restored", "scattered", "fully restored"} {
						for _, arm := range arms {
							g := NewTileGrid(box.Rows, box.Cols, sh[0], sh[1])
							name := fmt.Sprintf("%T %s place %d %s %s %s", pat, d.Name(), p, g, phase, arm.name)
							c := NewChunk[int32](p, d)
							c.ConfigureGrid(g)
							c.InitFlags(arm.pat)
							fin := restore(c, phase)
							ready := c.ActivateTiles(arm.pat)
							_, custom := d.(*dist.Func)
							wantStencil := arm.name == "stencil" && !custom
							if (c.Stencil() != nil) != wantStencil {
								t.Fatalf("%s: stencil arm %v", name, c.Stencil() != nil)
							}
							edges, live := bruteForce(pat, d, p, &g, fin)
							checkFinished(t, name, c, pat, fin, live)
							isReady := map[int]bool{}
							for _, tl := range ready {
								isReady[tl] = true
							}
							want := make([]int32, len(edges))
							for tl, n := range edges {
								if want[tl] = n; !live[tl] {
									want[tl] = retiredTile
								}
								if got := c.tileIndeg[tl].Load(); got != want[tl] {
									t.Fatalf("%s: tile %d counter %d, want %d", name, tl, got, want[tl])
								}
								if isReady[tl] != (live[tl] && n == 0) {
									t.Fatalf("%s: tile %d ready=%v with %d cross-tile edges", name, tl, isReady[tl], n)
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
								if got := c.tileIndeg[tl].Load(); got != want[tl]-edges[tl] || live[tl] && got != 0 {
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
