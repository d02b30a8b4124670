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
// dependency order. Readiness is tracked by one atomic counter per tile.
//
// The per-vertex indegrees stay authoritative for recovery: they are
// rebuilt from scratch every epoch (InitIndegrees + decrement replay), and
// the tile counters are *derived* from them at epoch activation:
//
//	tileIndeg(t) = Σ over unfinished cells v in t of
//	               (indeg(v) − #unfinished same-tile dependencies of v)
//
// i.e. the number of unfinished cross-tile edges into the tile. Every
// such edge later produces exactly one runtime decrement, so the counter
// drains to zero exactly when the tile's external inputs are satisfied.
//
// Runtime decrements can arrive while an epoch is being rebuilt, before
// the derivation scan has run. TileDecrement therefore has two regimes,
// arbitrated by tileLive under tileMu: before activation it only lowers
// the per-vertex indegree (the scan will fold the edge into the counter);
// after activation it lowers the tile counter directly. The scan runs
// under tileMu and publishes tileLive before unlocking, so every edge is
// counted exactly once — by the scan or by a tile decrement, never both.

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
// state, leaving the counters inactive (TileDecrement folds early
// decrements into the per-vertex indegrees until ActivateTiles runs).
// Call once per epoch, before any message handler can touch the chunk.
func (c *Chunk[T]) ConfigureGrid(g TileGrid) {
	if g.rows*g.cols != c.n {
		panic(fmt.Sprintf("distarray: a %dx%d tile grid over %d local cells", g.rows, g.cols, c.n))
	}
	c.TileGrid = g
	n := g.NumTiles()
	c.tileIndeg = make([]int32, n)
	c.tileQueued = make([]uint32, n)
	c.tileRemote = nil
	if g.bi*g.bj > 1 {
		// A single-cell tile checks its own few dependencies faster than it
		// could read a flag, and skipping the flag keeps the per-cell footprint.
		c.tileRemote = make([]bool, n)
	}
	c.tileLive.Store(false)
	c.sten.Store(nil) // the arm is per-epoch; the next scan picks it
}

// TileRemote reports whether any cell of tile t that was unfinished at the
// epoch's activation scan has a dependency owned by another place — the
// tiles whose walk has a halo to resolve. Single-cell tiles carry no flag
// and always report true. Only meaningful after an activation scan.
func (c *Chunk[T]) TileRemote(t int) bool { return c.tileRemote == nil || c.tileRemote[t] }

// TryMarkTileQueued atomically claims the right to enqueue tile t on the
// place's work deques, exactly once per epoch: a tile can reach readiness
// through two concurrent paths during recovery (an early remote decrement
// and the activation scan), and this flag arbitrates.
func (c *Chunk[T]) TryMarkTileQueued(t int) bool {
	return atomic.CompareAndSwapUint32(&c.tileQueued[t], 0, 1)
}

// ActivateTiles derives the per-tile readiness counters from the
// per-vertex indegrees and switches the chunk into tile-tracking mode. It
// must run after the epoch's indegrees are final (recovery: in the resume
// phase, after the decrement replay). It returns the tiles that are
// immediately schedulable — those with at least one unfinished cell and no
// unfinished cross-tile inputs.
func (c *Chunk[T]) ActivateTiles(pat dag.Pattern) []int { return c.activate(pat, false) }

// InitActivateTiles fuses InitIndegrees and ActivateTiles into one scan
// for epoch 0, where no cell is finished yet and no decrement can be in
// flight: each cell's dependency list is computed once and used for both
// the per-vertex indegree and the tile counter derivation. Recovery keeps
// the two-phase form — the decrement replay must run between them.
// ConfigureTiles must have run; the chunk must be fresh (unpublished), so
// plain stores suffice.
func (c *Chunk[T]) InitActivateTiles(pat dag.Pattern) []int { return c.activate(pat, true) }

// activate is the activation scan: one pass over the local cells,
// accumulating into each cell's tile. fresh selects the epoch-0 form (see
// InitActivateTiles). The arm, kept for the epoch, is scanStencil where
// newStencil applies, scanGeneric otherwise.
func (c *Chunk[T]) activate(pat dag.Pattern, fresh bool) []int {
	c.tileMu.Lock()
	defer c.tileMu.Unlock()
	s := newStencil(pat, c.d, c.place, &c.TileGrid)
	c.sten.Store(s)
	if fresh {
		c.done.Store(0)
		c.active = 0
	}
	clear(c.tileRemote)
	indeg := make([]int32, len(c.tileIndeg)) // per tile: unfinished cross-tile edges into it
	pending := make([]bool, len(c.tileIndeg))
	if s != nil {
		c.scanStencil(s, fresh, indeg, pending)
	} else {
		c.scanGeneric(pat, fresh, indeg, pending)
	}
	var ready []int
	for t, n := range indeg {
		atomic.StoreInt32(&c.tileIndeg[t], n)
		if pending[t] && n == 0 {
			ready = append(ready, t)
		}
	}
	c.tileLive.Store(true)
	return ready
}

// scanStencil counts tile by tile, with no Pattern call. Only a cell within
// reach of its tile's top or left edge locates its dependencies; any other's
// are in the tile, by arithmetic.
func (c *Chunk[T]) scanStencil(s *Stencil, fresh bool, indeg []int32, pending []bool) {
	g := &c.TileGrid
	for t := range indeg {
		b := g.TileBox(t)
		top, left := b.Lo/g.cols, b.Lo%g.cols
		for r := top; r < top+b.Rows; r++ {
			offs := s.Offsets(s.RowOf[r])
			for col := left; col < left+b.W; col++ {
				off := r*g.cols + col
				if c.Finished(off) {
					continue // restored by a recovery
				}
				edge := r-top < s.ReachRows || col-left < s.ReachCols
				if !edge && fresh { // every dependency in the tile, and unfinished
					c.addCell(off, t, int32(len(offs)), int32(len(offs)), true, indeg, pending)
					continue
				}
				n, same := int32(0), int32(0)
				for _, o := range offs {
					ref, ok := CellRef{Owner: int32(c.place), Off: int32(off + int(o.DI)*g.cols + int(o.DJ))}, true
					if edge {
						ref, ok = s.Locate(r, col, s.RowOf[r], s.ColOf[col], o.DI, o.DJ)
					}
					if !ok {
						continue
					}
					n++
					if int(ref.Owner) != c.place {
						if c.tileRemote != nil {
							c.tileRemote[t] = true
						}
					} else if (!edge || b.Holds(int(ref.Off))) && !c.Finished(int(ref.Off)) {
						same++
					}
				}
				c.addCell(off, t, n, same, fresh, indeg, pending)
			}
		}
	}
}

// scanGeneric asks the pattern: one Dependencies call, and one PlaceOffset
// per dependency, for every unfinished cell. It keeps no answer; the walk
// asks again (core's describeTile). It goes in offset order, row r of the
// box one tile column at a time, which a fresh scan's flags rely on.
func (c *Chunk[T]) scanGeneric(pat dag.Pattern, fresh bool, indeg []int32, pending []bool) {
	var buf []dag.VertexID
	g := &c.TileGrid
	for r := 0; r < g.rows; r++ {
		for tc, tr := 0, r/g.bi; tc < g.tcols; tc++ {
			t, box := tr*g.tcols+tc, g.boxAt(tr, tc)
			lo := box.Lo + (r-tr*g.bi)*g.cols
			for off := lo; off < lo+box.W; off++ {
				i, j := c.d.CellAt(c.place, off)
				if fresh && dag.IsActive(pat, i, j) {
					c.flags[off] = 0 //dpx10:allow atomicmix fresh unpublished chunk; no reader exists yet (see InitActivateTiles)
				} else if fresh {
					c.indeg[off] = 0 //dpx10:allow atomicmix fresh unpublished chunk; no reader exists yet (see InitActivateTiles)
					c.flags[off] = 1 //dpx10:allow atomicmix fresh unpublished chunk; no reader exists yet (see InitActivateTiles)
				}
				if c.Finished(off) {
					continue // never executes: inactive, or restored by a recovery
				}
				buf = pat.Dependencies(i, j, buf[:0])
				same := int32(0)
				for _, dep := range buf {
					owner, doff := c.d.PlaceOffset(dep.I, dep.J)
					if owner != c.place {
						if c.tileRemote != nil {
							c.tileRemote[t] = true
						}
						continue
					}
					// Same tile? Nearly every dependency lies in this run or the
					// one above it, which two compares settle; Holds divides.
					x := doff - lo
					if uint(x) >= uint(box.W) && (lo == box.Lo || uint(x+box.Stride) >= uint(box.W)) &&
						(x >= -box.Stride && x < box.Stride || !box.Holds(doff)) {
						continue
					}
					// A fresh scan has not set the flags of the cells past off yet,
					// so there it asks the pattern whether the cell will ever run.
					if fresh && doff > off && dag.IsActive(pat, dep.I, dep.J) || (!fresh || doff < off) && !c.Finished(doff) {
						same++
					}
				}
				c.addCell(off, t, int32(len(buf)), same, fresh, indeg, pending)
			}
		}
	}
}

// addCell folds an unfinished cell of tile t, with n dependencies of which
// same are unfinished cells of t, into the scan.
func (c *Chunk[T]) addCell(off, t int, n, same int32, fresh bool, indeg []int32, pending []bool) {
	pending[t] = true
	if fresh {
		c.active++
		c.indeg[off] = n //dpx10:allow atomicmix fresh unpublished chunk; no reader exists yet (see InitActivateTiles)
	} else {
		n = atomic.LoadInt32(&c.indeg[off])
	}
	if n -= same; n < 0 {
		i, j := c.d.CellAt(c.place, off)
		panic(fmt.Sprintf("distarray: vertex (%d,%d) has more unfinished same-tile deps than indegree", i, j))
	}
	indeg[t] += n
}

// TileDecrement applies one cross-tile decrement to the cell at off: the
// per-vertex indegree always drops (keeping recovery's source of truth
// exact), and the owning tile's counter drops once the counters are live.
// It returns the tile index and whether the tile just became ready.
// Decrements aimed at finished cells (restored by a recovery) are absorbed
// without touching the tile counter — the activation scan never counted
// their edges.
func (c *Chunk[T]) TileDecrement(off int) (tile int, ready bool) {
	if c.tileLive.Load() {
		return c.tileDecrementLive(off)
	}
	c.tileMu.Lock()
	defer c.tileMu.Unlock()
	if !c.tileLive.Load() {
		// Pre-activation: lower only the vertex indegree, under the mutex,
		// so the activation scan (which also runs under it) folds this edge
		// into the tile counters instead of losing or double-counting it.
		c.DecrementIndegree(off)
		return 0, false
	}
	return c.tileDecrementLive(off)
}

// VertexDecrement lowers only the per-vertex indegree for one cross-tile
// edge and reports whether the edge counts toward the owning tile's
// counter (it does unless the target was restored finished by a recovery).
// It is the deferred half of TileDecrement: a tile walk calls it per edge,
// accumulates the counts per target tile, and settles them in one TileAdd
// each when the walk ends. Callers must know the counters are live
// (walks only run after activation), so the pre-activation regime of
// TileDecrement does not apply.
func (c *Chunk[T]) VertexDecrement(off int) (tile int, counts bool) {
	c.DecrementIndegree(off)
	return c.TileOf(off), !c.Finished(off)
}

// TileAdd settles n deferred cross-tile decrements against tile t's
// readiness counter and reports whether the tile just became ready.
func (c *Chunk[T]) TileAdd(t int, n int32) bool {
	nv := atomic.AddInt32(&c.tileIndeg[t], -n)
	if nv < 0 {
		panic(fmt.Sprintf("distarray: tile %d counter went negative at place %d", t, c.place))
	}
	return nv == 0
}

func (c *Chunk[T]) tileDecrementLive(off int) (int, bool) {
	c.DecrementIndegree(off)
	if c.Finished(off) {
		return 0, false
	}
	t := c.TileOf(off)
	nv := atomic.AddInt32(&c.tileIndeg[t], -1)
	if nv < 0 {
		panic(fmt.Sprintf("distarray: tile %d counter went negative at place %d", t, c.place))
	}
	return t, nv == 0
}
