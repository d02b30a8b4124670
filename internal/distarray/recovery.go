package distarray

import (
	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dist"
)

// Transfer is a finished vertex value that must move to a new owner during
// recovery. RebuildChunk emits transfers only in restore-remote mode; the
// engine ships them over the transport.
type Transfer[T any] struct {
	To    int // new owning place
	ID    dag.VertexID
	Value T
}

// RebuildChunk performs the local half of the paper's recovery mechanism
// (§VI-D): given the chunk this place held under the old distribution, it
// allocates this place's chunk under newDist and carries surviving results
// into it.
//
// A finished vertex is kept in place iff its owner is unchanged — the
// paper's Figure 6, where vertex (2,2) is dropped because its result lives
// on a *remote* alive place and "it may take less time to recompute them
// rather than copy them across the network". With restoreRemote set (the
// §VI-E "Restore manner" refinement), those vertices are not dropped:
// they are returned as Transfers for the engine to deliver to their new
// owners.
//
// The rebuilt chunk holds finished flags and nothing else about readiness.
// The paper's "reset the indegree" step (§VI-D) is the new epoch's
// activation scan: the engine replays the decrements of finished vertices
// to their remote dependents, and ActivateTiles counts each tile's
// remaining edges from the flags.
func RebuildChunk[T any](old *Chunk[T], pat dag.Pattern, newDist dist.Dist, restoreRemote bool) (*Chunk[T], []Transfer[T]) {
	nc := NewChunk[T](old.place, newDist)
	nc.InitFlags(pat)
	return nc, CarryOver(old, nc, pat, restoreRemote)
}

// CarryOver applies the keep/drop rule from old into the freshly
// initialized nc (same place, new distribution) and returns the outbound
// transfers. Split out of RebuildChunk so the engine can construct nc
// itself — e.g. with a disk-backed value store.
func CarryOver[T any](old, nc *Chunk[T], pat dag.Pattern, restoreRemote bool) []Transfer[T] {
	newDist := nc.Dist()
	var out []Transfer[T]
	old.ForEachFinished(pat, func(i, j int32, _ int, v T) {
		newOwner := newDist.Place(i, j)
		if newOwner == old.place {
			nc.SetResult(newDist.LocalOffset(i, j), v)
			return
		}
		if restoreRemote {
			out = append(out, Transfer[T]{To: newOwner, ID: dag.VertexID{I: i, J: j}, Value: v})
		}
		// Otherwise dropped: the new owner recomputes it.
	})
	return out
}

// ReplayDecrements walks the finished active cells of c and invokes emit
// for every anti-dependency edge leaving them. The engine counts each edge
// whose target another place owns against the target's tile there, finished
// target or not — the owner's activation scan counted every remote edge into
// a tile with work left, and retired the others — so every remote dependency
// edge contributes exactly one decrement per epoch (replayed here for
// finished dependencies, at runtime for recomputed ones). An edge between
// two cells of one place needs no decrement: the activation scan reads the
// source's finished flag itself.
func ReplayDecrements[T any](c *Chunk[T], pat dag.Pattern, emit func(target dag.VertexID)) {
	edges := pat
	if t := dag.TabulateStencil(pat); t != nil {
		edges = t
	}
	var buf []dag.VertexID
	c.ForEachFinished(pat, func(i, j int32, _ int, _ T) {
		buf = edges.AntiDependencies(i, j, buf[:0])
		for _, a := range buf {
			emit(a)
		}
	})
}
