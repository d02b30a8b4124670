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

// tileCells resolves the configured cells per tile for a box of n local
// cells. 0 auto-sizes: roughly 64 tiles per place, clamped so a tile
// amortizes scheduling overhead (>= 8 cells) without starving the worker
// pool or a recovery of parallelism, or growing a walk's scratch (<= 2048
// cells).
func tileCells(cfgSize, n int) int {
	if cfgSize <= 0 {
		cfgSize = min(max(n/64, 8), 2048)
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

// tileShape picks the tile of one place's box: the configured cell count,
// as wide (along the contiguous axis) as the box allows — one row or one
// column of it when cand asks for that. Two things bound it. Across a dealt
// axis neighbouring local indexes are not neighbours in the grid, and a
// tile spanning two of them makes the tile quotient cyclic: the extent
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
	cells := tileCells(c.TileSize, box.Rows*box.Cols)
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
// how much parallelism the coarsened DAG exposes (tiles / span;
// dag.QuotientSpan).
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

// tileLayoutCache memoizes tileLayouts per (pattern, distribution,
// configured tile). All places of a single-process cluster share one cache
// through the shared Config, so the O(cells) check runs once per epoch, not
// once per place.
type tileLayoutCache struct {
	mu sync.Mutex
	m  map[string]tileLayout
}

// check returns the memoized layout for key, running compute under the
// cache lock on a miss. Holding the lock across compute keeps the check
// single-flight: the P-1 sibling places block briefly instead of each
// redoing the O(cells) scan.
func (c *tileLayoutCache) check(key string, compute func() tileLayout) tileLayout {
	c.mu.Lock()
	defer c.mu.Unlock()
	if lay, hit := c.m[key]; hit {
		return lay
	}
	lay := compute()
	if c.m == nil {
		c.m = make(map[string]tileLayout, 4)
	} else if len(c.m) >= 64 {
		clear(c.m) // bound a long-lived process cycling through configs
	}
	c.m[key] = lay
	return lay
}

// globalTileCheck memoizes layouts across cluster lifetimes. Only keys
// that capture the pattern and the distribution entirely by value may use
// it: a key containing a memory address (closure or pointer field in a
// custom pattern) could alias a semantically different pattern once the
// address is reused, so those verdicts stay in the per-cluster cache.
var globalTileCheck tileLayoutCache

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
// place can deadlock the whole run (see dag.QuotientAcyclic).
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
	// The pattern's %v covers its parameters (sizes, weights); function
	// fields print as addresses, which distinguishes distinct closures. A
	// distribution with an ownership table says so by its digest.
	name := d.Name()
	if t, ok := d.(interface{ Digest() uint64 }); ok {
		name = fmt.Sprintf("%s#%x", name, t.Digest())
	}
	key := fmt.Sprintf("%T|%v|%s|%v|%d|%v", c.Pattern, c.Pattern, name, places, c.TileSize, c.TileShape)
	cache := c.tileCheck
	if !strings.Contains(key, "0x") {
		cache = &globalTileCheck
	}
	lay := cache.check(key, func() tileLayout {
		pat := c.Pattern
		if t := dag.TabulateStencil(pat); t != nil {
			pat = t // the same edges, from the offsets
		}
		last := shapeCell
		if c.TileShape != [2]int{} {
			last = shapeRow // a pinned shape is the only candidate
		}
		for cand := shapeRect; cand < last; cand++ {
			// A thinner cut the boxes already had is the rectangle again (a
			// row and a column cut coincide only as single cells).
			g, b := c.cutGrids(d, cand)
			tiles := b[len(places)]
			if tiles == cells || cand != shapeRect && slices.Equal(g, grids) {
				continue
			}
			tileOf := func(i, j int32) int {
				p, off := d.PlaceOffset(i, j)
				k := rank[p]
				return b[k] + g[k].TileOf(off)
			}
			if span, ok := dag.QuotientSpan(pat, tileOf, tiles, maxQuotientEdges); ok {
				return tileLayout{ok: true, shape: cand, tiles: tiles, span: span}
			}
		}
		return tileLayout{shape: shapeCell}
	})
	if lay.shape != shapeRect {
		grids, _ = c.cutGrids(d, lay.shape)
	}
	return grids, lay
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
