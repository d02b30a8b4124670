// Package vcache implements the per-place cache of remotely fetched
// vertices (paper §VI-C). It holds fetched values only: values a sender
// pushes wait in the box of the tile that reads them (internal/core).
//
// To cut data-transmission overhead, each DPX10 place keeps a cache of
// recently transferred vertex values. Following the paper, the cache is a
// static (fixed-capacity) array with FIFO replacement — DP DAGs are
// regular, so a vertex is typically needed only within a short window and
// recency-tracking buys little over plain FIFO. The array is a ring of
// slots with one FIFO hand; beside it an open-addressed table (linear
// probing, backward-shift deletion) maps each live id to its slot. One
// mutex guards both, so eviction follows the global insertion order at
// every capacity, and nothing is allocated after New. The cache counts
// nothing: its one caller, the engine's halo step, already counts each
// lookup and each eviction a put reports.
package vcache

import (
	"math/bits"
	"sync"

	"github.com/dpx10/dpx10/internal/dag"
)

// Cache is a fixed-capacity FIFO map from vertex id to value. A capacity
// of zero disables caching (every lookup misses), matching the paper's
// overhead experiment where "the cache list was not used". Safe for
// concurrent use by a place's worker pool.
type Cache[T any] struct {
	mu    sync.Mutex
	slots []entry[T] // the ring; fixed at New, so reading its length takes no lock
	// table holds 1 + the slot of each live id at the first free position
	// probing forward from the id's home; 0 marks a free position. Its
	// length is a power of two at least twice len(slots), so a probe always
	// meets a free position.
	table []int32
	shift uint // 64 - log2(len(table)): home takes the hash's top bits
	next  int  // next slot to overwrite (FIFO hand)
	live  int  // slots written so far, up to len(slots); slots[:live] hold live ids
}

type entry[T any] struct {
	id    dag.VertexID
	value T
}

// New creates a cache holding up to capacity entries.
func New[T any](capacity int) *Cache[T] {
	capacity = max(capacity, 0)
	c := &Cache[T]{slots: make([]entry[T], capacity)}
	if capacity > 0 {
		logSize := bits.Len(uint(2*capacity - 1)) // 2*capacity rounded up to a power of two
		c.table = make([]int32, 1<<logSize)
		c.shift = uint(64 - logSize)
	}
	return c
}

// Cap returns the configured capacity.
func (c *Cache[T]) Cap() int { return len(c.slots) }

// Get returns the cached value for id, if present.
func (c *Cache[T]) Get(id dag.VertexID) (v T, ok bool) {
	if len(c.slots) == 0 {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.table[c.find(id)]; s != 0 {
		return c.slots[s-1].value, true
	}
	return v, false
}

// Put inserts a value, evicting the oldest entry when full, and reports
// whether it evicted one. Re-inserting an existing id refreshes its value
// in place without consuming a slot.
func (c *Cache[T]) Put(id dag.VertexID, v T) (evicted bool) {
	if len(c.slots) == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.putLocked(id, v)
}

// PutAll puts each of ids with its value, in order and under one lock, as
// that many Puts would, and returns how many entries they evicted. ids and
// vals must have equal length.
func (c *Cache[T]) PutAll(ids []dag.VertexID, vals []T) (evicted int) {
	if len(c.slots) == 0 || len(ids) == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, id := range ids {
		if c.putLocked(id, vals[k]) {
			evicted++
		}
	}
	return evicted
}

// PutPushed puts each of ids with its value under one lock and returns how
// many entries were written (0 when the cache is disabled). ids and vals
// must have equal length.
//
// Deprecated: pushed values no longer enter the cache; kept only so existing
// callers compile. Use PutAll.
func (c *Cache[T]) PutPushed(ids []dag.VertexID, vals []T) int {
	if len(c.slots) == 0 {
		return 0
	}
	c.PutAll(ids, vals)
	return len(ids)
}

// home is id's first probe position in the table: the top bits of a
// multiplicative (Fibonacci) hash of its two coordinates.
func (c *Cache[T]) home(id dag.VertexID) int {
	key := uint64(uint32(id.I))<<32 | uint64(uint32(id.J))
	return int(key * 0x9e3779b97f4a7c15 >> c.shift)
}

// find returns the table position that holds id, or the free position that
// ends its probe chain when id is absent. Caller holds mu; the cache has
// slots.
func (c *Cache[T]) find(id dag.VertexID) int {
	mask := len(c.table) - 1
	p := c.home(id)
	for {
		s := c.table[p]
		if s == 0 || c.slots[s-1].id == id {
			return p
		}
		p = (p + 1) & mask
	}
}

// putLocked refreshes id's entry in place or writes a fresh one at the
// FIFO hand, reporting whether that overwrote a live entry. Caller holds
// mu; the cache has slots.
func (c *Cache[T]) putLocked(id dag.VertexID, v T) (evicted bool) {
	p := c.find(id)
	if s := c.table[p]; s != 0 {
		c.slots[s-1].value = v
		return false
	}
	e := &c.slots[c.next]
	if evicted = c.live == len(c.slots); evicted {
		c.remove(c.find(e.id))
		p = c.find(id) // the removal may have freed a position earlier in id's chain
	} else {
		c.live++
	}
	*e = entry[T]{id: id, value: v}
	c.table[p] = int32(c.next + 1)
	c.next++
	if c.next == len(c.slots) {
		c.next = 0
	}
	return evicted
}

// remove frees table position p by backward-shift deletion: each later
// entry of the run p belongs to moves back into the gap when the gap lies
// between its home and its position, so every probe chain stays unbroken
// without tombstones. Caller holds mu.
func (c *Cache[T]) remove(p int) {
	mask := len(c.table) - 1
	for q := (p + 1) & mask; c.table[q] != 0; q = (q + 1) & mask {
		s := c.table[q]
		// The entry at q may fill the gap at p unless its home lies
		// cyclically in (p, q].
		if h := c.home(c.slots[s-1].id); (q-h)&mask >= (q-p)&mask {
			c.table[p] = s
			p = q
		}
	}
	c.table[p] = 0
}

// Len returns the number of live entries.
func (c *Cache[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}
