// Package vcache implements the per-place cache of remotely fetched
// vertices (paper §VI-C). It holds fetched values only: values a sender
// pushes wait in the box of the tile that reads them (internal/core).
//
// To cut data-transmission overhead, each DPX10 place keeps a cache of
// recently transferred vertex values. Following the paper, the cache is a
// static (fixed-capacity) array with FIFO replacement — DP DAGs are
// regular, so a vertex is typically needed only within a short window and
// recency-tracking buys little over plain FIFO. One mutex guards the array
// and its index, so eviction follows the global insertion order at every
// capacity. The cache counts nothing: its one caller, the engine's halo
// step, already counts each lookup and each eviction Put reports.
package vcache

import (
	"sync"

	"github.com/dpx10/dpx10/internal/dag"
)

// Cache is a fixed-capacity FIFO map from vertex id to value. A capacity
// of zero disables caching (every lookup misses), matching the paper's
// overhead experiment where "the cache list was not used". Safe for
// concurrent use by a place's worker pool.
type Cache[T any] struct {
	mu    sync.Mutex
	slots []entry[T] // fixed at New, so reading its length takes no lock
	index map[dag.VertexID]int
	next  int // next slot to overwrite (FIFO hand)
}

type entry[T any] struct {
	id    dag.VertexID
	value T
	used  bool
}

// New creates a cache holding up to capacity entries.
func New[T any](capacity int) *Cache[T] {
	capacity = max(capacity, 0)
	return &Cache[T]{slots: make([]entry[T], capacity), index: make(map[dag.VertexID]int, capacity)}
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
	if slot, hit := c.index[id]; hit {
		return c.slots[slot].value, true
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

// PutPushed puts each of ids with its value under one lock and returns how
// many entries were written (0 when the cache is disabled). ids and vals
// must have equal length.
//
// Deprecated: pushed values no longer enter the cache; kept only so existing
// callers compile.
func (c *Cache[T]) PutPushed(ids []dag.VertexID, vals []T) int {
	if len(c.slots) == 0 || len(ids) == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, id := range ids {
		c.putLocked(id, vals[k])
	}
	return len(ids)
}

// putLocked refreshes id's entry in place or writes a fresh one at the
// FIFO hand, reporting whether that overwrote a live entry. Caller holds
// mu; the cache has slots.
func (c *Cache[T]) putLocked(id dag.VertexID, v T) (evicted bool) {
	if slot, ok := c.index[id]; ok {
		c.slots[slot].value = v
		return false
	}
	e := &c.slots[c.next]
	if evicted = e.used; evicted {
		delete(c.index, e.id)
	}
	*e = entry[T]{id: id, value: v, used: true}
	c.index[id] = c.next
	c.next = (c.next + 1) % len(c.slots)
	return evicted
}

// Len returns the number of live entries.
func (c *Cache[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}
