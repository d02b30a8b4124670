package distarray

import (
	"fmt"
	"sync/atomic"

	"github.com/dpx10/dpx10/internal/dag"
)

// Tile-granular readiness tracking.
//
// The engine coarsens its schedulable unit from one vertex to a tile of
// tileSize contiguous local offsets: a tile is ready when every cross-tile
// dependency of every unfinished cell it holds has finished, and one
// worker then executes the whole tile in intra-tile dependency order.
// Readiness is tracked by one atomic counter per tile.
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

// ConfigureTiles sets the chunk's tile size and allocates the per-tile
// state, leaving the counters inactive (TileDecrement folds early
// decrements into the per-vertex indegrees until ActivateTiles runs).
// Call once per epoch, before any message handler can touch the chunk.
func (c *Chunk[T]) ConfigureTiles(size int) {
	if size < 1 {
		size = 1
	}
	if size > c.n && c.n > 0 {
		size = c.n
	}
	c.tileSize = size
	c.numTiles = 0
	if c.n > 0 {
		c.numTiles = (c.n + size - 1) / size
	}
	c.tileIndeg = make([]int32, c.numTiles)
	c.tileQueued = make([]uint32, c.numTiles)
	c.tileRemote = nil
	if size > 1 {
		// A single-cell tile checks its own few dependencies faster than it
		// could read a flag, and skipping the flag keeps the per-cell footprint.
		c.tileRemote = make([]bool, c.numTiles)
	}
	c.tileLive.Store(false)
	c.depLive = false // resolutions are per-epoch; the next scan refills
}

// TileSize returns the configured tile size (1 = per-vertex scheduling).
func (c *Chunk[T]) TileSize() int { return c.tileSize }

// NumTiles returns the number of tiles covering the local cells.
func (c *Chunk[T]) NumTiles() int { return c.numTiles }

// TileOf returns the tile index owning local offset off. Only meaningful
// after ConfigureTiles.
func (c *Chunk[T]) TileOf(off int) int { return off / c.tileSize }

// TileRange returns the half-open local-offset range [lo, hi) of tile t.
func (c *Chunk[T]) TileRange(t int) (lo, hi int) {
	lo = t * c.tileSize
	hi = lo + c.tileSize
	if hi > c.n {
		hi = c.n
	}
	return lo, hi
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
// must run after the epoch's indegrees are final (epoch 0: right after
// InitIndegrees; recovery: in the resume phase, after the decrement
// replay). It returns the tiles that are immediately schedulable — those
// with at least one unfinished cell and no unfinished cross-tile inputs.
func (c *Chunk[T]) ActivateTiles(pat dag.Pattern) []int {
	c.tileMu.Lock()
	defer c.tileMu.Unlock()
	var ready []int
	var buf []dag.VertexID
	if c.depOn {
		c.depReset()
	}
	for t := 0; t < c.numTiles; t++ {
		lo, hi := c.TileRange(t)
		var indeg int32
		pending, remote := false, false
		for off := lo; off < hi; off++ {
			if c.Finished(off) {
				// Restored cells never execute, so the cache keeps an empty
				// dependency list for them.
				if c.depOn {
					c.cdepAt[off+1] = int32(len(c.cdeps))
				}
				continue
			}
			pending = true
			n := atomic.LoadInt32(&c.indeg[off])
			i, j := c.d.CellAt(c.place, off)
			buf = pat.Dependencies(i, j, buf[:0])
			if c.depOn {
				c.cids[off] = dag.VertexID{I: i, J: j}
				c.cdeps = append(c.cdeps, buf...)
			}
			for _, dep := range buf {
				owner, doff := c.d.PlaceOffset(dep.I, dep.J)
				if c.depOn {
					c.cres = append(c.cres, CellRef{Owner: int32(owner), Off: int32(doff)})
				}
				if owner != c.place {
					remote = true
					continue
				}
				if doff >= off {
					c.depMono = false
				}
				if doff >= lo && doff < hi && !c.Finished(doff) {
					n--
				}
			}
			if c.depOn {
				c.cdepAt[off+1] = int32(len(c.cdeps))
				if len(c.cdeps) > depCacheMaxEntries {
					c.depAbandon()
				}
			}
			if n < 0 {
				panic(fmt.Sprintf("distarray: vertex (%d,%d) has more unfinished same-tile deps than indegree", i, j))
			}
			indeg += n
		}
		atomic.StoreInt32(&c.tileIndeg[t], indeg)
		if c.tileRemote != nil {
			c.tileRemote[t] = remote
		}
		if pending && indeg == 0 {
			ready = append(ready, t)
		}
	}
	c.depLive = c.depOn
	c.tileLive.Store(true)
	return ready
}

// InitActivateTiles fuses InitIndegrees and ActivateTiles into one scan
// for epoch 0, where no cell is finished yet and no decrement can be in
// flight: each cell's dependency list is computed once and used for both
// the per-vertex indegree and the tile counter derivation. Recovery keeps
// the two-phase form — the decrement replay must run between them.
// ConfigureTiles must have run; the chunk must be fresh (unpublished), so
// plain stores suffice.
func (c *Chunk[T]) InitActivateTiles(pat dag.Pattern) []int {
	c.tileMu.Lock()
	defer c.tileMu.Unlock()
	var ready []int
	var buf []dag.VertexID
	if c.depOn {
		c.depReset()
	}
	c.done.Store(0)
	c.active = 0
	t := 0
	lo, hi := c.TileRange(0)
	var tindeg int32
	pending, remote := false, false
	closeTile := func() {
		c.tileIndeg[t] = tindeg //dpx10:allow atomicmix fresh unpublished chunk; no reader exists yet (see func doc)
		if c.tileRemote != nil {
			c.tileRemote[t] = remote
		}
		if pending && tindeg == 0 {
			ready = append(ready, t)
		}
	}
	for off := 0; off < c.n; off++ {
		if off >= hi {
			closeTile()
			t++
			lo, hi = c.TileRange(t)
			tindeg, pending, remote = 0, false, false
		}
		i, j := c.d.CellAt(c.place, off)
		if !dag.IsActive(pat, i, j) {
			c.indeg[off] = 0 //dpx10:allow atomicmix fresh unpublished chunk; no reader exists yet (see func doc)
			c.flags[off] = 1 //dpx10:allow atomicmix fresh unpublished chunk; no reader exists yet (see func doc)
			if c.depOn {
				c.cdepAt[off+1] = int32(len(c.cdeps))
			}
			continue
		}
		c.active++
		pending = true
		buf = pat.Dependencies(i, j, buf[:0])
		c.indeg[off] = int32(len(buf)) //dpx10:allow atomicmix fresh unpublished chunk; no reader exists yet (see func doc)
		c.flags[off] = 0               //dpx10:allow atomicmix fresh unpublished chunk; no reader exists yet (see func doc)
		if c.depOn {
			c.cids[off] = dag.VertexID{I: i, J: j}
			c.cdeps = append(c.cdeps, buf...)
		}
		// Cross-tile indegree: total deps minus the active same-tile ones.
		n := int32(len(buf))
		for _, dep := range buf {
			owner, doff := c.d.PlaceOffset(dep.I, dep.J)
			if c.depOn {
				c.cres = append(c.cres, CellRef{Owner: int32(owner), Off: int32(doff)})
			}
			if owner != c.place {
				remote = true
				continue
			}
			if doff >= off {
				c.depMono = false
			}
			if doff < lo || doff >= hi {
				continue
			}
			di, dj := dep.I, dep.J
			if dag.IsActive(pat, di, dj) {
				n--
			}
		}
		if c.depOn {
			c.cdepAt[off+1] = int32(len(c.cdeps))
			if len(c.cdeps) > depCacheMaxEntries {
				c.depAbandon()
			}
		}
		tindeg += n
	}
	if c.numTiles > 0 {
		closeTile()
	}
	c.depLive = c.depOn
	c.tileLive.Store(true)
	return ready
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
	return off / c.tileSize, !c.Finished(off)
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
	t := off / c.tileSize
	nv := atomic.AddInt32(&c.tileIndeg[t], -1)
	if nv < 0 {
		panic(fmt.Sprintf("distarray: tile %d counter went negative at place %d", t, c.place))
	}
	return t, nv == 0
}
