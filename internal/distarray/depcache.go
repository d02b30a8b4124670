package distarray

import "github.com/dpx10/dpx10/internal/dag"

// Dependency-resolution cache.
//
// The tile activation scans (InitActivateTiles, ActivateTiles) already
// derive, for every unfinished local cell, its coordinates, its
// dependency list and each dependency's dist.PlaceOffset resolution —
// and then throw the work away, leaving the engine's tile walk to
// re-derive all of it when the tile executes. Both run exactly once per
// epoch, so remembering the scan's results here halves the total
// resolution cost: the walk's ordering pass becomes plain slice reads
// with no pattern or dist calls.
//
// The cache is epoch-scoped by construction: a recovery rebuilds the
// chunk under the remapped dist and re-runs an activation scan, which
// refills the cache with the new resolutions. ConfigureTiles (called at
// every epoch assembly) invalidates it until the next scan completes.
//
// Cost: roughly 16 + 16·deg bytes per local cell (deg = dependency
// count). That is an order of magnitude above the value storage itself,
// so a disk-backed chunk (NewChunkBacked) runs without it — a run that
// cannot afford dense values in memory cannot afford dense dep lists
// either. Nor does a stencil's (Stencil), which needs no lists at all.
//
// Concurrency: the cache is written only inside the activation scans
// (before the epoch state is published, or under tileMu during a
// recovery's activation) and read only by workers executing tiles of the
// activated epoch, so readers never observe a partial fill.

// CellRef is a dist.PlaceOffset resolution: the owning place and the
// dense local offset of a cell within it.
type CellRef struct {
	Owner int32
	Off   int32
}

// depCacheMaxEntries bounds the cached dependency entries per chunk
// (16 bytes each — 64 MiB at the bound). Patterns with O(n) in-degree
// (full-row/column dependencies) would make the cache quadratic in the
// grid size; crossing the bound abandons the fill and the epoch falls
// back to on-the-fly resolution.
const depCacheMaxEntries = 4 << 20

// SetDepCache overrides the constructor's choice (NewChunk on,
// NewChunkBacked off). Call before the epoch's activation scan; flipping
// it later has no effect until the next epoch.
func (c *Chunk[T]) SetDepCache(on bool) { c.depOn = on }

// DepCached reports whether the cache holds this epoch's resolutions.
// False until an activation scan completes with the cache enabled.
func (c *Chunk[T]) DepCached() bool { return c.depLive }

// DepMonotone reports whether every cached local dependency resolved to a
// strictly smaller local offset than its dependent cell. When true,
// ascending offset order is a valid topological order within any set of
// local cells, a tile's runs included — wavefront DP patterns under the
// repo's dists all have this shape — so a tile walk can skip its Kahn
// ordering pass entirely. Only meaningful when DepCached() is true, or
// under a stencil (Stencil), whose offsets make it so.
func (c *Chunk[T]) DepMonotone() bool { return c.depLive && c.depMono || c.Stencil() != nil }

// DepView returns the cached resolutions of the local cells in [lo, hi):
// cell lo+s has coordinates ids[s] and dependency list deps[at[s]:at[s+1]],
// each entry's PlaceOffset resolution at the same index of res. A cell that
// was finished at activation has an empty list and no meaningful id. Only
// valid when DepCached() is true; the slices alias the cache, so callers
// must not modify them or retain them past the epoch.
func (c *Chunk[T]) DepView(lo, hi int) (ids []dag.VertexID, at []int32, deps []dag.VertexID, res []CellRef) {
	return c.cids[lo:hi], c.cdepAt[lo : hi+1], c.cdeps, c.cres
}

// depReset prepares the cache buffers for an activation scan's fill.
// The flat dep arrays start at 4 entries per cell — enough for every
// stencil pattern in the repo without append-growth copying; heavier
// patterns grow them once and the capacity persists for the chunk.
func (c *Chunk[T]) depReset() {
	c.depLive = false
	c.depMono = true
	if cap(c.cids) < c.n || cap(c.cdepAt) < c.n+1 {
		c.cids = make([]dag.VertexID, c.n)
		c.cdepAt = make([]int32, c.n+1)
	}
	c.cids = c.cids[:c.n]
	c.cdepAt = c.cdepAt[:c.n+1]
	if c.cdeps == nil {
		guess := 4 * c.n
		if guess > depCacheMaxEntries {
			guess = depCacheMaxEntries
		}
		c.cdeps = make([]dag.VertexID, 0, guess)
		c.cres = make([]CellRef, 0, guess)
	}
	c.cdeps = c.cdeps[:0]
	c.cres = c.cres[:0]
	if c.n > 0 {
		c.cdepAt[0] = 0
	}
}

// depAbandon gives up on the cache mid-fill (entry bound exceeded): the
// buffers are dropped and the chunk stays on on-the-fly resolution.
func (c *Chunk[T]) depAbandon() {
	c.depOn = false
	c.depLive = false
	c.depMono = false
	c.cids, c.cdeps, c.cdepAt, c.cres = nil, nil, nil, nil
}
