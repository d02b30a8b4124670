// Package distarray provides the distributed 2-D vertex array that backs a
// DPX10 computation (paper §VI-B) and the state transfer that implements
// its recovery mechanism (§VI-D).
//
// The array is SPMD: each place holds one Chunk — the values and finished
// bits of the cells it owns under the current dist.Dist, plus one
// readiness counter per tile (tiles.go). Cross-place reads and writes are
// the engine's job (they go through the transport); this package is
// deliberately communication-free so that it can be tested exhaustively in
// isolation.
//
// SnapshotArray implements the periodic-snapshot recovery baseline that
// the paper argues against (X10's ResilientDistArray); it exists so the
// recovery ablation benchmark has the paper's comparison point.
package distarray

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dist"
)

// Chunk is one place's partition of the distributed vertex array. Values
// and finished bits are indexed by the dense local offset defined by the Dist.
//
// Concurrency: SetResult, Publish, Finished, FinishedRun, Value and TileAdd
// are safe for concurrent use by a place's worker pool. The finished state is
// one bit per cell, 32 to a word that tiles may share, and every access to a
// word is atomic: the unit that owns a cell stores its value (SetValue), then
// sets its bit with an atomic OR, one per word for a whole row (Publish), so
// any goroutine that observes Finished(off) == true also observes the value.
type Chunk[T any] struct {
	place  int
	d      dist.Dist
	values []T           // dense in-memory values (nil when store != nil)
	store  ValueStore[T] // optional disk-backed value storage
	n      int
	fin    []atomic.Uint32 // finished state: bit off&31 of word off>>5
	done   atomic.Int64
	active int64 // cells that participate (finished inactive ones pre-counted)

	// Tile-granular scheduling state (tiles.go). The schedulable unit is a
	// rectangle of the local index box; its counter is the only readiness
	// state, derived afresh each epoch from the finished bits.
	TileGrid
	tileIndeg  []atomic.Int32
	tileQueued []atomic.Uint32
	tileLive   atomic.Bool // true once the activation scan has added its counts

	sten atomic.Pointer[Stencil] // non-nil when the activation took the stencil arm
}

// ValueStore is pluggable storage for a chunk's vertex values — the hook
// for the disk-spilling store (paper §X future work: "spilling some data
// to local disk to enable computations on large scale of DP problems").
// A fresh store must read as zero values. Implementations must be safe
// for concurrent use.
type ValueStore[T any] interface {
	Get(off int) T
	Set(off int, v T)
	Close() error
}

// NewChunk allocates place p's chunk under d with all cells unfinished and
// values held densely in memory.
func NewChunk[T any](p int, d dist.Dist) *Chunk[T] {
	n := d.LocalCount(p)
	return &Chunk[T]{
		place:  p,
		d:      d,
		values: make([]T, n),
		n:      n,
		fin:    make([]atomic.Uint32, (n+31)/32),
	}
}

// NewChunkBacked is NewChunk with vertex values kept in vs instead of a
// dense slice. vs must cover d.LocalCount(p) values and start zeroed.
func NewChunkBacked[T any](p int, d dist.Dist, vs ValueStore[T]) *Chunk[T] {
	n := d.LocalCount(p)
	return &Chunk[T]{
		place: p,
		d:     d,
		store: vs,
		n:     n,
		fin:   make([]atomic.Uint32, (n+31)/32),
	}
}

// SetDepCache does nothing: a chunk keeps no dependency lists, and a tile
// walk resolves its cells' dependencies itself.
//
// Deprecated: kept only so existing callers compile.
func (c *Chunk[T]) SetDepCache(bool) {}

func (c *Chunk[T]) getValue(off int) T {
	if c.store != nil {
		return c.store.Get(off)
	}
	return c.values[off]
}

// SetValue stores the value of the cell at off, which its caller owns.
func (c *Chunk[T]) SetValue(off int, v T) {
	if c.store != nil {
		c.store.Set(off, v)
		return
	}
	c.values[off] = v
}

// SetValues stores the values of the len(src) cells from off on, which its
// caller owns, as SetValue would one at a time.
func (c *Chunk[T]) SetValues(off int, src []T) {
	if c.store == nil {
		copy(c.values[off:off+len(src)], src)
		return
	}
	for k, v := range src {
		c.store.Set(off+k, v)
	}
}

// Close releases value storage (the spill scratch file, if any).
func (c *Chunk[T]) Close() error {
	if c.store != nil {
		return c.store.Close()
	}
	return nil
}

// Place returns the owning place id.
func (c *Chunk[T]) Place() int { return c.place }

// Dist returns the distribution the chunk is laid out by.
func (c *Chunk[T]) Dist() dist.Dist { return c.d }

// Len returns the number of local cells.
func (c *Chunk[T]) Len() int { return c.n }

// InitFlags readies a fresh chunk for pattern pat: it marks the inactive
// cells finished with the zero value their fresh storage already holds
// (paper §VI-E: unneeded vertices are set as finished at initialization)
// and counts the active ones.
func (c *Chunk[T]) InitFlags(pat dag.Pattern) {
	c.done.Store(0)
	c.active = int64(c.n)
	if _, sparse := pat.(dag.Sparse); !sparse {
		return
	}
	for off := 0; off < c.n; off++ {
		if i, j := c.d.CellAt(c.place, off); !dag.IsActive(pat, i, j) {
			c.Publish(off, 1)
			c.active--
		}
	}
}

// InitIndegrees is InitFlags, returning the active cells with no
// dependencies.
//
// Deprecated: a chunk keeps no per-vertex indegrees; readiness is per tile
// (InitActivateTiles, ActivateTiles). Kept only so existing callers compile.
func (c *Chunk[T]) InitIndegrees(pat dag.Pattern) []int {
	c.InitFlags(pat)
	var ready []int
	var buf []dag.VertexID
	for off := 0; off < c.n; off++ {
		i, j := c.d.CellAt(c.place, off)
		if buf = pat.Dependencies(i, j, buf[:0]); len(buf) == 0 && !c.Finished(off) {
			ready = append(ready, off)
		}
	}
	return ready
}

// ActiveCount returns the number of local cells that participate in the
// computation (inactive cells excluded).
func (c *Chunk[T]) ActiveCount() int64 { return c.active }

// FinishedCount returns how many active local cells have finished.
func (c *Chunk[T]) FinishedCount() int64 { return c.done.Load() }

// AllFinished reports whether every active local cell is finished.
func (c *Chunk[T]) AllFinished() bool { return c.done.Load() == c.active }

// SetResult stores the computed value of the cell at off, marks it finished
// and counts it done. It panics if the cell was already finished: a vertex
// must complete exactly once per epoch, and a double completion indicates an
// engine bug (e.g. a stale pre-recovery activity slipping through).
func (c *Chunk[T]) SetResult(off int, v T) {
	c.SetValue(off, v)
	c.Publish(off, 1)
	c.done.Add(1)
}

// Publish marks the n cells from off finished, one atomic OR per word, after
// their values were stored; a unit counts them done in one AddDone. It panics
// if any of them was finished already, which the OR's old word tells.
func (c *Chunk[T]) Publish(off, n int) {
	for k, end := 0, off+n; off < end; off += k {
		k = min(end-off, 32-off&31)
		m := ^uint32(0) >> (32 - k) << (off & 31)
		if old := c.fin[off>>5].Or(m); old&m != 0 {
			i, j := c.d.CellAt(c.place, off&^31+bits.TrailingZeros32(old&m))
			panic(fmt.Sprintf("distarray: vertex (%d,%d) finished twice", i, j))
		}
	}
}

// AddDone advances the finished-cell counter by n — the batched
// counterpart of the per-cell add inside SetResult.
func (c *Chunk[T]) AddDone(n int64) {
	if n != 0 {
		c.done.Add(n)
	}
}

// Finished reports whether the cell at off has completed.
func (c *Chunk[T]) Finished(off int) bool {
	return c.fin[off>>5].Load()&(1<<(off&31)) != 0
}

// FinishedRun counts the finished cells among the n from off, 32 per load.
func (c *Chunk[T]) FinishedRun(off, n int) (finished int) {
	for k, end := 0, off+n; off < end; off += k {
		k = min(end-off, 32-off&31)
		finished += bits.OnesCount32(c.fin[off>>5].Load() & (^uint32(0) >> (32 - k) << (off & 31)))
	}
	return finished
}

// stateEnd returns the first offset from off on, before end, whose finished
// state is not done, or end: a word at a time.
func (c *Chunk[T]) stateEnd(off, end int, done bool) int {
	for off < end {
		w := c.fin[off>>5].Load()
		if done {
			w = ^w
		}
		if w >>= off & 31; w != 0 {
			return min(off+bits.TrailingZeros32(w), end)
		}
		off += 32 - off&31
	}
	return end
}

// Value returns the cell's value. Callers must have observed
// Finished(off) == true for the value to be meaningful.
func (c *Chunk[T]) Value(off int) T { return c.getValue(off) }

// Values copies the values of the len(dst) cells from off on into dst, as
// Value would one at a time.
func (c *Chunk[T]) Values(dst []T, off int) {
	if c.store == nil {
		copy(dst, c.values[off:off+len(dst)])
		return
	}
	for k := range dst {
		dst[k] = c.store.Get(off + k)
	}
}

// ForEachFinished calls f for every finished active local cell. Intended
// for quiesced phases (result collection, recovery); it does not lock.
func (c *Chunk[T]) ForEachFinished(pat dag.Pattern, f func(i, j int32, off int, v T)) {
	for w := range c.fin {
		for word := c.fin[w].Load(); word != 0; word &= word - 1 {
			off := w<<5 + bits.TrailingZeros32(word)
			if i, j := c.d.CellAt(c.place, off); dag.IsActive(pat, i, j) {
				f(i, j, off, c.getValue(off))
			}
		}
	}
}
