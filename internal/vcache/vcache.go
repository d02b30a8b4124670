// Package vcache implements the per-worker cache of remotely fetched
// vertices (paper §VI-C). It holds fetched values only: values a sender
// pushes wait in the box of the tile that reads them (internal/core).
//
// To cut data-transmission overhead, each DPX10 worker keeps a cache of
// recently transferred vertex values. Following the paper, the cache is a
// static (fixed-capacity) array with FIFO replacement — DP DAGs are
// regular, so a vertex is typically needed only within a short window and
// recency-tracking buys little over plain FIFO.
//
// A place's whole worker pool shares one cache, so at useful capacities
// the entries are split across independently locked shards keyed by a
// hash of the vertex id; small caches stay single-sharded to keep the
// strict global-FIFO eviction order that tiny configurations imply.
package vcache

import (
	"sync"

	"github.com/dpx10/dpx10/internal/dag"
)

// shardThreshold is the capacity at which a cache starts sharding. Below
// it a single shard preserves exact global FIFO order; above it the
// slight per-shard skew is irrelevant next to the lock contention saved.
const shardThreshold = 256

// shardCount is the number of shards of a sharded cache. Power of two so
// the hash can be masked.
const shardCount = 8

// Cache is a fixed-capacity FIFO map from vertex id to value. A capacity
// of zero disables caching (every lookup misses), matching the paper's
// overhead experiment where "the cache list was not used". Safe for
// concurrent use by a place's worker pool.
type Cache[T any] struct {
	shards []shard[T]
	mask   uint32
	cap    int
}

// shard is one independently locked slice of the cache, FIFO within
// itself.
type shard[T any] struct {
	mu      sync.Mutex
	slots   []entry[T]
	index   map[dag.VertexID]int
	next    int // next slot to overwrite (FIFO hand)
	hits    int64
	misses  int64
	evicted int64
}

type entry[T any] struct {
	id    dag.VertexID
	value T
	used  bool
}

// New creates a cache holding up to capacity entries, sharded when the
// capacity is large enough that strict global FIFO order stops mattering.
func New[T any](capacity int) *Cache[T] {
	shards := 1
	if capacity >= shardThreshold {
		shards = shardCount
	}
	return NewSharded[T](capacity, shards)
}

// NewSharded creates a cache of the given total capacity spread over the
// given number of shards (rounded up to a power of two, at least 1).
// Eviction is FIFO per shard.
func NewSharded[T any](capacity, shards int) *Cache[T] {
	if capacity < 0 {
		capacity = 0
	}
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	if n > capacity && capacity > 0 {
		// More shards than entries degenerates to zero-capacity shards.
		n = 1
		for n*2 <= capacity {
			n <<= 1
		}
	}
	if capacity == 0 {
		n = 1
	}
	c := &Cache[T]{shards: make([]shard[T], n), mask: uint32(n - 1), cap: capacity}
	per := capacity / n
	extra := capacity % n
	for i := range c.shards {
		sz := per
		if i < extra {
			sz++
		}
		c.shards[i].slots = make([]entry[T], sz)
		c.shards[i].index = make(map[dag.VertexID]int, sz)
	}
	return c
}

// shardFor hashes the vertex id onto a shard (splitmix-style finalizer —
// neighbouring cells must not all land on one shard).
func (c *Cache[T]) shardFor(id dag.VertexID) *shard[T] {
	if c.mask == 0 {
		return &c.shards[0]
	}
	x := uint64(uint32(id.I))<<32 | uint64(uint32(id.J))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return &c.shards[uint32(x)&c.mask]
}

// Cap returns the configured capacity.
func (c *Cache[T]) Cap() int { return c.cap }

// Get returns the cached value for id, if present.
func (c *Cache[T]) Get(id dag.VertexID) (v T, ok bool) {
	s := c.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot, hit := s.index[id]; hit {
		s.hits++
		return s.slots[slot].value, true
	}
	s.misses++
	return v, false
}

// Put inserts a value, evicting the shard's oldest entry when full.
// Re-inserting an existing id refreshes its value in place without
// consuming a slot.
func (c *Cache[T]) Put(id dag.VertexID, v T) {
	if c.cap == 0 {
		return
	}
	s := c.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.slots) == 0 {
		return
	}
	s.putLocked(id, v)
}

// PutPushed puts each of ids with its value, acquiring each touched shard's
// lock once per contiguous run, and returns how many entries were written (0
// when the cache is disabled). ids and vals must have equal length.
//
// Deprecated: pushed values no longer enter the cache; kept only so existing
// callers compile.
func (c *Cache[T]) PutPushed(ids []dag.VertexID, vals []T) int {
	if c.cap == 0 || len(ids) == 0 {
		return 0
	}
	var cur *shard[T]
	for k, id := range ids {
		s := c.shardFor(id)
		if s != cur {
			if cur != nil {
				cur.mu.Unlock()
			}
			cur = s
			cur.mu.Lock()
		}
		if len(s.slots) > 0 {
			s.putLocked(id, vals[k])
		}
	}
	if cur != nil {
		cur.mu.Unlock()
	}
	return len(ids)
}

// putLocked refreshes id's entry in place or writes a fresh one at the
// shard's FIFO hand. Caller holds mu; the shard has slots.
func (s *shard[T]) putLocked(id dag.VertexID, v T) {
	if slot, ok := s.index[id]; ok {
		s.slots[slot].value = v
		return
	}
	e := &s.slots[s.next]
	if e.used {
		delete(s.index, e.id)
		s.evicted++
	}
	*e = entry[T]{id: id, value: v, used: true}
	s.index[id] = s.next
	s.next = (s.next + 1) % len(s.slots)
}

// Len returns the number of live entries.
func (c *Cache[T]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.index)
		s.mu.Unlock()
	}
	return n
}

// Clear drops all entries (used when a recovery invalidates remote state).
func (c *Cache[T]) Clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k := range s.slots {
			s.slots[k] = entry[T]{}
		}
		s.index = make(map[dag.VertexID]int, len(s.slots))
		s.next = 0
		s.mu.Unlock()
	}
}

// ShardStat is one shard's cumulative counters, exposed for the per-shard
// metrics vecs: the skew between shards is itself a useful signal (a hot
// shard means the id hash clusters under the current access pattern).
type ShardStat struct {
	Hits, Misses, Evicted int64
}

// ShardStats returns every shard's cumulative counters, indexed by shard.
func (c *Cache[T]) ShardStats() []ShardStat {
	out := make([]ShardStat, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out[i] = ShardStat{Hits: s.hits, Misses: s.misses, Evicted: s.evicted}
		s.mu.Unlock()
	}
	return out
}

// Stats returns cumulative hit/miss/eviction counts.
func (c *Cache[T]) Stats() (hits, misses, evicted int64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		evicted += s.evicted
		s.mu.Unlock()
	}
	return hits, misses, evicted
}
