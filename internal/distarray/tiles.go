package distarray

import (
	"fmt"
	"sync/atomic"

	"github.com/dpx10/dpx10/internal/dag"
)

// Tile-granular readiness tracking.
//
// The engine coarsens its schedulable unit from one vertex to a tile, a
// rectangle of the place's local index box (TileGrid): a tile is ready
// when every cross-tile dependency of every unfinished cell it holds has
// finished, and one worker then executes the whole tile in intra-tile
// dependency order. Readiness is tracked by one atomic counter per tile,
// and nothing else: no per-vertex indegree exists. The counter of a tile
// holding an unfinished cell drains to zero exactly when its external
// inputs are satisfied:
//
//	tileIndeg(t) = Σ over active cells v in t, over dependencies u of v
//	               outside t, of [u is remote, or v and u are both local
//	               and unfinished]
//	             − decrements received
//
// A remote edge is counted whatever the state of either end, because its
// source's owner sends one decrement for it either way: replayed by a
// recovery if the source was finished, when it completes otherwise — into
// a cell restored finished as well, since the sender names only the tile.
// A local edge counts only while both ends are unfinished: the scan reads
// the source's flag instead of waiting for a decrement, and a local source
// completing later skips a finished target.
//
// A tile with no unfinished cell has nothing to run: the scan counts none of
// its edges and retires it, with a count no decrements sent to it can reach.
//
// Counters start at zero each epoch (ConfigureGrid). Runtime and replayed
// decrements may arrive before the activation scan, taking a counter below
// zero; the scan then adds its count with one atomic add per tile, and
// whichever add brings the counter to zero — the scan's or a decrement's —
// reports the tile ready, exactly once. No lock is needed. A tile can thus
// run, and decrement tiles the scan has not reached, while the scan is
// still adding; a counter below zero is an underflow only once it is done.

// TileGrid is one place's tile geometry: the place's local rows × cols
// index box (offset r*cols + c, dist.Box) cut into bi × bj rectangles,
// numbered row-major, ragged on the bottom and right edges. A run of
// consecutive offsets is the one-row case — a 1 × n box cut into 1 × size
// tiles — so there is no second geometry beside this one.
type TileGrid struct {
	rows, cols, bi, bj int
	tcols              int // tiles per row of tiles
}

// NewTileGrid cuts a rows × cols box into bi × bj tiles, clamping the tile
// to the box.
func NewTileGrid(rows, cols, bi, bj int) TileGrid {
	bi, bj = min(max(bi, 1), max(rows, 1)), min(max(bj, 1), max(cols, 1))
	return TileGrid{rows: rows, cols: cols, bi: bi, bj: bj, tcols: (cols + bj - 1) / bj}
}

// String renders the grid as "box in tile", e.g. "700x1401 in 12x176".
func (g TileGrid) String() string {
	return fmt.Sprintf("%dx%d in %dx%d", g.rows, g.cols, g.bi, g.bj)
}

// Shape returns the tile height and width (1, 1 = per-vertex scheduling).
func (g *TileGrid) Shape() (bi, bj int) { return g.bi, g.bj }

// TileRows and TileCols return the grid's extent in tiles.
func (g *TileGrid) TileRows() int { return (g.rows + g.bi - 1) / g.bi }
func (g *TileGrid) TileCols() int { return g.tcols }

// NumTiles returns the number of tiles covering the box.
func (g *TileGrid) NumTiles() int { return g.TileRows() * g.tcols }

// TileOf returns the tile holding local offset off.
func (g *TileGrid) TileOf(off int) int {
	r := uint32(off) / uint32(g.cols) // offsets fit 31 bits; 32-bit divides are the cheap ones
	c := uint32(off) - r*uint32(g.cols)
	return int(r/uint32(g.bi))*g.tcols + int(c/uint32(g.bj))
}

// RunEnd returns the offset just past off's tile in off's row.
func (g *TileGrid) RunEnd(off int) int {
	c := off % g.cols
	return off - c + min((c/g.bj+1)*g.bj, g.cols)
}

// TileBox is a tile's cells: Rows runs of W consecutive local offsets, the
// first run starting at Lo and each next one Stride further on.
type TileBox struct{ Lo, W, Rows, Stride int }

// Span is the length of the offset range [Lo, Lo+Span) the runs lie in.
func (b TileBox) Span() int { return (b.Rows-1)*b.Stride + b.W }

// Holds reports whether local offset off is one of the tile's cells.
func (b TileBox) Holds(off int) bool {
	d := uint32(off - b.Lo)
	return d < uint32(b.W) || d < uint32(b.Span()) && d%uint32(b.Stride) < uint32(b.W)
}

// boxAt returns the cells of the tile in tile row tr, tile column tc.
func (g *TileGrid) boxAt(tr, tc int) TileBox {
	top, left := tr*g.bi, tc*g.bj
	return TileBox{Lo: top*g.cols + left, W: min(g.bj, g.cols-left), Rows: min(g.bi, g.rows-top), Stride: g.cols}
}

// TileBox returns the cells of tile t.
func (g *TileGrid) TileBox(t int) TileBox { return g.boxAt(t/g.tcols, t%g.tcols) }

// ConfigureTiles tiles the chunk with runs of size consecutive local
// offsets: ConfigureGrid's one-row case.
func (c *Chunk[T]) ConfigureTiles(size int) { c.ConfigureGrid(NewTileGrid(1, c.n, 1, size)) }

// ConfigureGrid sets the chunk's tile geometry and allocates the per-tile
// state, with every counter at zero and no activation scan yet. Call once
// per epoch, before any message handler can touch the chunk.
func (c *Chunk[T]) ConfigureGrid(g TileGrid) {
	if g.rows*g.cols != c.n {
		panic(fmt.Sprintf("distarray: a %dx%d tile grid over %d local cells", g.rows, g.cols, c.n))
	}
	c.TileGrid = g
	n := g.NumTiles()
	c.tileIndeg = make([]int32, n)
	c.tileQueued = make([]uint32, n)
	c.tileLive.Store(false)
	c.sten.Store(nil) // the arm is per-epoch; the next scan picks it
}

// TryMarkTileQueued atomically claims the right to enqueue tile t on the
// place's work deques, exactly once per epoch: a tile can reach readiness
// through two concurrent paths during recovery (an early remote decrement
// and the activation scan), and this flag arbitrates.
func (c *Chunk[T]) TryMarkTileQueued(t int) bool {
	return atomic.CompareAndSwapUint32(&c.tileQueued[t], 0, 1)
}

// retiredTile is a retired tile's count: more than any tile has edges.
const retiredTile = 1 << 30

// ActivateTiles is the activation scan: it adds to the counter of each tile
// holding an unfinished cell the cross-tile edges into its cells that a
// decrement is still owed for, retires every other tile (see above), and
// returns the tiles that are immediately schedulable — those whose counter
// the add brought to zero. It must run once the epoch's finished flags are
// final (recovery: in the resume round, after the exchange); it may race
// decrements. It panics if a counter ends below zero: more decrements
// arrived than the tile has edges.
func (c *Chunk[T]) ActivateTiles(pat dag.Pattern) []int {
	s := newStencil(pat, c.d, c.place, &c.TileGrid)
	c.sten.Store(s) // the arm is kept for the epoch
	edges := make([]int32, len(c.tileIndeg))
	pending := c.pendingTiles()
	if s != nil {
		c.scanStencil(s, edges, pending)
	} else {
		c.scanGeneric(pat, edges, pending)
	}
	var ready []int
	for t, n := range edges {
		if !pending[t] {
			n = retiredTile
		}
		nv := atomic.AddInt32(&c.tileIndeg[t], n)
		if nv < 0 {
			panic(fmt.Sprintf("distarray: tile %d took %d more decrements than it has edges at place %d", t, -nv, c.place))
		}
		if nv == 0 {
			ready = append(ready, t)
		}
	}
	c.tileLive.Store(true)
	return ready
}

// TileRetired reports whether the activation scan retired tile t: it holds
// no unfinished cell, so it will not run this epoch. Before the scan it
// reports false.
func (c *Chunk[T]) TileRetired(t int) bool {
	return c.tileLive.Load() && atomic.LoadInt32(&c.tileIndeg[t]) > retiredTile/2
}

// pendingTiles reports, per tile, whether it holds an unfinished cell: the
// tiles that will run, and the only ones the scans count edges for.
func (c *Chunk[T]) pendingTiles() []bool {
	pending := make([]bool, c.NumTiles())
	for t := range pending {
		b := c.TileBox(t)
		for lo := b.Lo; lo < b.Lo+b.Span() && !pending[t]; lo += b.Stride {
			pending[t] = c.FinishedRun(lo, b.W) < b.W
		}
	}
	return pending
}

// InitActivateTiles is epoch 0's InitFlags followed by ActivateTiles. The
// chunk must be fresh and ConfigureGrid must have run.
func (c *Chunk[T]) InitActivateTiles(pat dag.Pattern) []int {
	c.InitFlags(pat)
	return c.ActivateTiles(pat)
}

// scanStencil counts tile by tile, with no Pattern call. Only a cell within
// reach of its tile's top or left edge locates its dependencies; any other's
// are in the tile, by arithmetic, so it has no cross-tile edge. A stencil is
// dense, so a finished cell of a pending tile is one a recovery restored:
// only its remote edges are owed.
func (c *Chunk[T]) scanStencil(s *Stencil, edges []int32, pending []bool) {
	g := &c.TileGrid
	for t := range edges {
		if !pending[t] {
			continue
		}
		b := g.TileBox(t)
		top, left := b.Lo/g.cols, b.Lo%g.cols
		for r := top; r < top+b.Rows; r++ {
			offs := s.Offsets(s.RowOf[r])
			for col := left; col < left+b.W && (r-top < s.ReachRows || col-left < s.ReachCols); col++ {
				off := r*g.cols + col
				done := c.Finished(off)
				for _, o := range offs {
					ref, ok := s.Locate(r, col, s.RowOf[r], s.ColOf[col], o.DI, o.DJ)
					if !ok {
						continue
					}
					if int(ref.Owner) != c.place {
						edges[t]++
					} else if !done && !b.Holds(int(ref.Off)) && !c.Finished(int(ref.Off)) {
						edges[t]++
					}
				}
			}
		}
	}
}

// scanGeneric asks the pattern: one Dependencies call, and one PlaceOffset
// per dependency, for every active cell of a pending tile. It keeps no
// answer; the walk asks again (core's describeTile). It goes row r of the box
// one tile column at a time, so the run a cell is in, and the one above it,
// are at hand for the same-tile test. A finished cell is inactive, or one a
// recovery restored, which is owed its remote edges only.
func (c *Chunk[T]) scanGeneric(pat dag.Pattern, edges []int32, pending []bool) {
	var buf []dag.VertexID
	g := &c.TileGrid
	for r := 0; r < g.rows; r++ {
		for tc, tr := 0, r/g.bi; tc < g.tcols; tc++ {
			t, box := tr*g.tcols+tc, g.boxAt(tr, tc)
			if !pending[t] {
				continue
			}
			lo := box.Lo + (r-tr*g.bi)*g.cols
			for off := lo; off < lo+box.W; off++ {
				i, j := c.d.CellAt(c.place, off)
				done := c.Finished(off)
				if done && !dag.IsActive(pat, i, j) {
					continue
				}
				buf = pat.Dependencies(i, j, buf[:0])
				for _, dep := range buf {
					owner, doff := c.d.PlaceOffset(dep.I, dep.J)
					if owner != c.place {
						edges[t]++
						continue
					}
					// Same tile? Nearly every dependency lies in this run or the
					// one above it, which two compares settle; Holds divides.
					x := doff - lo
					if done || uint(x) < uint(box.W) || lo != box.Lo && uint(x+box.Stride) < uint(box.W) ||
						(x < -box.Stride || x >= box.Stride) && box.Holds(doff) {
						continue
					}
					if !c.Finished(doff) {
						edges[t]++
					}
				}
			}
		}
	}
}

// TileDecrement applies one cross-tile decrement to the tile holding off
// and returns that tile and whether this decrement made it ready.
//
// Deprecated: the engine settles a unit's decrements per tile with TileAdd.
// Kept only so existing callers compile.
func (c *Chunk[T]) TileDecrement(off int) (tile int, ready bool) {
	t := c.TileOf(off)
	return t, c.TileAdd(t, 1)
}

// TileAdd settles n cross-tile decrements against tile t's counter — a unit
// parks its decrements per target tile and settles each in one add when it
// ends, here or, through a decrement record, at the tile's owner — and
// reports whether they made the tile ready. Before the
// activation scan has added t's count the counter can only go below zero,
// so nothing becomes ready early; once the scan is done, going below zero
// is an underflow and panics.
func (c *Chunk[T]) TileAdd(t int, n int32) bool {
	live := c.tileLive.Load() // before the add: a scan still to come would offset it
	nv := atomic.AddInt32(&c.tileIndeg[t], -n)
	if nv < 0 && live {
		panic(fmt.Sprintf("distarray: tile %d counter went negative at place %d", t, c.place))
	}
	return nv == 0
}
