package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/distarray"
)

// maxQuotientEdges bounds the memory the tile-quotient acyclicity check
// may spend collecting edges; beyond it the engine conservatively falls
// back to per-vertex scheduling.
const maxQuotientEdges = 1 << 22

// tilesPerWorker is how many tiles an auto-sized place cuts per worker.
const tilesPerWorker = 16

// autoTiles is how many tiles a place of threads workers (<= 0: the default,
// 2) asks for when no TileSize is configured: tilesPerWorker a worker. More
// buy nothing under a row split: the strip cut (stripExtent) already sets
// when the place below can start, and tilePriorities drains strip by strip,
// so a lower tile inside a strip only adds per-tile cost (its ghost frame,
// its settled rows, one scheduling step). Under a column split the band
// height is the unit the place to the right pipelines on, so the count
// there stays at least 64, the 4-worker count.
func autoTiles(threads int, box dist.Box) int {
	if threads <= 0 {
		threads = 2
	}
	tiles := tilesPerWorker * threads
	if box.ColAxis != dist.Whole {
		tiles = max(tiles, 64)
	}
	return tiles
}

// tileCells resolves the configured cells per tile for a box of n local
// cells. 0 auto-sizes to n / tiles, clamped so a tile amortizes scheduling
// overhead (>= 8 cells) without starving the worker pool or a recovery of
// parallelism, or growing a walk's scratch (<= 2048 cells).
func tileCells(cfgSize, n, tiles int) int {
	if cfgSize <= 0 {
		cfgSize = min(max(n/tiles, 8), 2048)
	}
	return max(min(cfgSize, n), 1)
}

// stripExtent is the furthest a tile may reach along an axis whose far edge
// another place waits on: the axis is cut into up to 8 strips, so the
// neighbour starts after an eighth of this place's work instead of all of
// it, each at least 64 cells long, because every strip that touches the
// boundary sends its own decrement batch and a shorter one is mostly header.
func stripExtent(n int) int {
	strips := min(max(n/64, 1), 8)
	return (n + strips - 1) / strips
}

// The tile shapes tileGrids tries, in order, until one's quotient is
// acyclic: the auto rectangle, then one row of it (a pattern whose cells
// read whole rows, RowWave, cycles between two rectangles more than a row
// high side by side), then one column as tall as the cell count allows
// (ColWave reads whole columns), and finally single cells.
const (
	shapeRect = iota
	shapeRow
	shapeCol
	shapeCell
)

// tileShape picks the tile of one place's box: the configured cell count (or
// the auto one, from the box and the place's worker count: autoTiles), as
// wide (along the contiguous axis) as the box allows — one row or one column
// of it when cand asks for that. The row count is rounded up, so a tile may
// pass the count, and the 2048 cap, by less than one row: SWLAG 1400² on two
// block-row places cuts 12x176 = 2 112 cells. Two things bound it. Across a
// dealt axis neighbouring local indexes are not neighbours in the grid, and
// a tile spanning two of them makes the tile quotient cyclic: the extent
// there is 1. And along an axis the dist leaves whole, a tile stops at a
// strip (stripExtent) whenever the other axis is split.
func (c *Common) tileShape(box dist.Box, cand int) (bi, bj int) {
	switch {
	case cand == shapeCell:
		return 1, 1
	case c.TileShape != [2]int{}:
		return c.TileShape[0], c.TileShape[1]
	}
	maxBI, maxBJ := box.Rows, box.Cols
	if box.RowAxis != dist.Whole {
		maxBJ = stripExtent(box.Cols)
	}
	if box.ColAxis != dist.Whole {
		maxBI = stripExtent(box.Rows)
	}
	if box.RowAxis == dist.Dealt || cand == shapeRow {
		maxBI = 1
	}
	if box.ColAxis == dist.Dealt || cand == shapeCol {
		maxBJ = 1
	}
	cells := tileCells(c.TileSize, box.Rows*box.Cols, autoTiles(c.Threads, box))
	bj = max(min(cells, maxBJ), 1)
	bi = max(min((cells+bj-1)/bj, maxBI), 1) // rounded up: no more tiles than the count asked for
	return bi, bj
}

// tilePriorities gives each tile of a place's grid its place in the order
// ready tiles are claimed (lowest first), so that the place drains toward
// the boundary a neighbour is waiting on: strip by strip under a row split
// (the first strip reaches the last local row, and the place below starts,
// after one strip's worth of work), band by band under a column split, and
// along anti-diagonals when both axes or neither are split.
func tilePriorities(g *distarray.TileGrid, box dist.Box) []int32 {
	rows, cols := g.TileRows(), g.TileCols()
	prio := make([]int32, g.NumTiles())
	for t := range prio {
		r, c := t/cols, t%cols
		switch {
		case box.RowAxis != dist.Whole && box.ColAxis == dist.Whole:
			prio[t] = int32(c*rows + r)
		case box.ColAxis != dist.Whole && box.RowAxis == dist.Whole:
			prio[t] = int32(t)
		default:
			prio[t] = int32(r + c)
		}
	}
	return prio
}

// tileLayout is what the tile-quotient check learned about a global tile
// layout: whether coarsening to some candidate shape is safe, which one, and
// how much parallelism the coarsened DAG exposes (tiles / span; dag.Span).
type tileLayout struct {
	ok          bool
	shape       int // the candidate that won; shapeCell when none did
	tiles, span int // zero when nothing was coarsened, so nothing checked
}

// parallelism is tiles per tile of the longest chain; 0 when unmeasured.
func (l tileLayout) parallelism() float64 {
	if !l.ok || l.span == 0 {
		return 0
	}
	return float64(l.tiles) / float64(l.span)
}

// epochLayout is a job's tile layout for one epoch, derived by the first of
// the job's in-process places to install the epoch while the others wait,
// so a generic scan runs once per epoch, not once per place. Every recovery
// attempt numbers a new epoch, so it derives afresh.
type epochLayout struct {
	mu    sync.Mutex
	next  uint64 // the epoch held, plus one; 0 holds none
	grids []distarray.TileGrid
	lay   tileLayout
}

func (s *epochLayout) get(c *Common, epoch uint64, d dist.Dist) ([]distarray.TileGrid, tileLayout) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next != epoch+1 {
		s.grids, s.lay = c.tileGrids(d)
		s.next = epoch + 1
	}
	return s.grids, s.lay
}

// cutGrids cuts every place's box under d into the tiles of candidate shape
// cand, indexed like d.Places(), and numbers the tiles globally: place k's
// are [base[k], base[k+1]).
func (c *Common) cutGrids(d dist.Dist, cand int) (grids []distarray.TileGrid, base []int) {
	places := d.Places()
	grids, base = make([]distarray.TileGrid, len(places)), make([]int, len(places)+1)
	for k, p := range places {
		box := d.LocalBox(p)
		bi, bj := c.tileShape(box, cand)
		grids[k] = distarray.NewTileGrid(box.Rows, box.Cols, bi, bj)
		base[k+1] = base[k] + grids[k].NumTiles()
	}
	return grids, base
}

// tileGrids decides every place's tile grid under d, indexed like
// d.Places(), and what the layout amounts to: the first candidate shape —
// the configured (or auto) one, then, unless a shape is pinned, one row and
// one column of it — that coarsens the DAG without a cycle, which could
// deadlock it; single cells when none does. Every place evaluates the same
// global predicate from the same inputs, so the choice is uniform across the
// cluster without any communication — required, because a single coarsened
// place can deadlock the whole run (see dag.QuotientAcyclic). A declared
// stencil on rectangle tiles has its quotient read off the tiles
// (coverEdges); any other candidate is scanned cell by cell.
func (c *Common) tileGrids(d dist.Dist) ([]distarray.TileGrid, tileLayout) {
	places := d.Places()
	rank := make([]int, places[len(places)-1]+1) // place id -> index in places
	cells := 0
	for k, p := range places {
		rank[p] = k
		cells += d.LocalCount(p)
	}
	grids, base := c.cutGrids(d, shapeRect)
	if base[len(places)] == cells {
		return grids, tileLayout{ok: true} // per-vertex everywhere: nothing coarsened
	}
	last := shapeCell
	if c.TileShape != [2]int{} {
		last = shapeRow // a pinned shape is the only candidate
	}
	for cand := shapeRect; cand < last; cand++ {
		g, b := grids, base
		if cand != shapeRect {
			// A thinner cut the boxes already had is the rectangle again (a
			// row and a column cut coincide only as single cells).
			if g, b = c.cutGrids(d, cand); slices.Equal(g, grids) {
				continue
			}
		}
		tiles := b[len(places)]
		if tiles == cells {
			continue
		}
		edges, ok := coverEdges(c.Pattern, d, g, b, rank, maxQuotientEdges)
		if !ok {
			edges, ok = dag.QuotientEdges(c.Pattern, func(i, j int32) int {
				p, off := d.PlaceOffset(i, j)
				k := rank[p]
				return b[k] + g[k].TileOf(off)
			}, maxQuotientEdges)
		}
		if !ok {
			continue
		}
		if span, ok := dag.Span(edges, tiles); ok {
			return g, tileLayout{ok: true, shape: cand, tiles: tiles, span: span}
		}
	}
	grids, _ = c.cutGrids(d, shapeCell)
	return grids, tileLayout{shape: shapeCell}
}

// coverEdges collects the tile quotient's edges of a declared stencil from the
// tiles, with no work per cell, when every tile is a rectangle of the global grid:
// no box is Scattered, and no tile spans two local rows or columns along an
// axis d deals out (tileShape keeps the extent there at 1 unless a TileShape
// is pinned). For each tile and each run of its rows sharing their offsets,
// the cells an offset reads are the run's rectangle shifted by it and
// clipped to the grid; every tile that rectangle meets, bar the tile itself,
// has an edge into it. The rectangle is covered band by band and tile by
// tile, one PlaceOffset a tile, so the work is O(tiles × offsets). ok is
// false when pat is no dense stencil (dag.TabulateStencil), a tile is no
// rectangle or the edges pass maxEdges.
func coverEdges(pat dag.Pattern, d dist.Dist, grids []distarray.TileGrid, base, rank []int, maxEdges int) (edges []uint64, ok bool) {
	sten, ok := pat.(dag.Stencil)
	if _, sparse := pat.(dag.Sparse); !ok || sparse {
		return nil, false
	}
	for k, p := range d.Places() {
		box := d.LocalBox(p)
		bi, bj := grids[k].Shape()
		if box.RowAxis == dist.Scattered || box.ColAxis == dist.Scattered ||
			box.RowAxis == dist.Dealt && bi > 1 || box.ColAxis == dist.Dealt && bj > 1 {
			return nil, false
		}
	}
	h, _ := pat.Bounds()
	// About one predecessor a tile per offset: room for them up front, not
	// by repeated growth.
	edges = make([]uint64, 0, base[len(base)-1]*len(sten.Offsets(h-1)))
	for k, p := range d.Places() {
		for t := range grids[k].NumTiles() {
			b := grids[k].TileBox(t)
			i0, j0 := d.CellAt(p, b.Lo)
			iEnd, to, first := i0+int32(b.Rows), uint64(base[k]+t), len(edges)
			for i := i0; i < iEnd; {
				offs, next := sten.Offsets(i), i+1
				for next < iEnd && slices.Equal(sten.Offsets(next), offs) {
					next++
				}
				for _, o := range offs {
					r1, c1 := next+o.DI, j0+int32(b.W)+o.DJ
					for r := max(i+o.DI, 0); r < r1; {
						band := r1 - r
						for c := max(j0+o.DJ, 0); c < c1; {
							p, off := d.PlaceOffset(r, c)
							q := rank[p]
							from, rows, cols := grids[q].TileAt(off)
							band, c = min(band, int32(rows)), c+int32(cols)
							// A tile has a few predecessors, each met under
							// several offsets: keep it once.
							if e := uint64(base[q]+from)<<32 | to; e>>32 != to && !slices.Contains(edges[first:], e) {
								edges = append(edges, e)
							}
						}
						r += band
					}
				}
				if len(edges) > maxEdges {
					return nil, false
				}
				i = next
			}
		}
	}
	return edges, true
}

// describeLayout renders a layout for a human: each distinct (box, tile)
// once with the number of places that have it, the parallelism the tile DAG
// exposes, and the activation's arm, "stencil" or "generic".
func describeLayout(grids []distarray.TileGrid, lay tileLayout, stencil bool) string {
	var kinds []string
	count := map[string]int{}
	for k := range grids {
		s := grids[k].String()
		if count[s]++; count[s] == 1 {
			kinds = append(kinds, s)
		}
	}
	var sb strings.Builder
	for _, s := range kinds {
		fmt.Fprintf(&sb, "%dx(%s) ", count[s], s)
	}
	switch {
	case !lay.ok:
		sb.WriteString("tile quotient cyclic, fell back to single cells, ")
	case lay.span > 0:
		fmt.Fprintf(&sb, "%d tiles, longest chain %d, parallelism %.1f, ", lay.tiles, lay.span, lay.parallelism())
	}
	if stencil {
		sb.WriteString("stencil")
	} else {
		sb.WriteString("generic")
	}
	return sb.String()
}
