package distarray

import (
	"slices"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dist"
)

// Transfer is a run of finished vertex values that must move to a new owner
// during recovery: the len(Values) cells of row ID.I from column ID.J on,
// consecutive in one box row of place To. RebuildChunk emits transfers only
// in restore-remote mode; the engine ships them over the transport.
type Transfer[T any] struct {
	To     int          // new owning place
	ID     dag.VertexID // the run's first cell
	Values []T
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
//
// It goes a run at a time, never a cell at a time: each row of old's box
// splits into runs of finished cells a word of flags at a time, and each run
// is cut where its new owner's box row ends. A piece that stays here is
// copied in one Values and one SetValues and published in one Publish, less
// the inactive cells InitFlags finished already; a piece that moves is one
// Transfer, less its inactive cells. Along a dealt or scattered column axis
// every cell is a run of its own, as in Border.
func CarryOver[T any](old, nc *Chunk[T], pat dag.Pattern, restoreRemote bool) []Transfer[T] {
	box := old.d.LocalBox(old.place)
	to := newOwners(nc.d)
	_, sparse := pat.(dag.Sparse)
	var out []Transfer[T]
	var buf, moved []T // one piece's values; every transfer's, end to end
	var lens []int     // each transfer's share of moved
	for r := 0; r < box.Rows; r++ {
		lo := r * box.Cols
		old.finishedRuns(lo, lo+box.Cols, !runCols(box), func(off, n int) {
			i, j := old.d.CellAt(old.place, off)
			for k := 0; n > 0; off, j, n = off+k, j+int32(k), n-k {
				var p, noff int
				p, noff, k = to.at(i, j, n)
				if p == old.place {
					buf = nc.carry(old, off, noff, k, buf)
					continue
				}
				if !restoreRemote {
					continue // dropped: the new owner recomputes it
				}
				for a := 0; a < k; {
					b := k
					if sparse {
						for ; a < k && !dag.IsActive(pat, i, j+int32(a)); a++ {
						}
						for b = a; b < k && dag.IsActive(pat, i, j+int32(b)); b++ {
						}
					}
					if a < b {
						out = append(out, Transfer[T]{To: p, ID: dag.VertexID{I: i, J: j + int32(a)}})
						lens = append(lens, b-a)
						moved = slices.Grow(moved, b-a)[:len(moved)+b-a]
						old.Values(moved[len(moved)-(b-a):], off+a)
					}
					a = b
				}
			}
		})
	}
	// moved has stopped growing: the transfers can point into it.
	for k, start := 0, 0; k < len(out); start, k = start+lens[k], k+1 {
		out[k].Values = moved[start : start+lens[k] : start+lens[k]]
	}
	return out
}

// carry copies old's k finished values from off into c from noff, which
// this place keeps, skipping the cells InitFlags finished already (inactive
// ones): one Values, one SetValues, one Publish and one AddDone per run of
// unfinished cells. It returns buf, grown as needed.
func (c *Chunk[T]) carry(old *Chunk[T], off, noff, k int, buf []T) []T {
	end := noff + k
	for a := c.stateEnd(noff, end, true); a < end; {
		b := c.stateEnd(a, end, false)
		buf = slices.Grow(buf[:0], b-a)[:b-a]
		old.Values(buf, off+a-noff)
		c.SetValues(a, buf)
		c.Publish(a, b-a)
		c.AddDone(int64(b - a))
		a = c.stateEnd(b, end, true)
	}
	return buf
}

// ReplayDecrements walks the finished cells a rebuilt place holds for the new
// epoch — the finished active cells of its new chunk c and those it hands
// over (out) — and invokes emit for every run of anti-dependency edges
// leaving them whose targets another place owns than the source's new owner
// from: the n targets at offsets off… of place owner, in one of its box rows.
// The engine turns each such edge into one decrement of the target's tile
// there, finished target or not — the owner's activation scan counted every
// remote edge into a tile with work left, and retired the others — so every
// remote edge contributes exactly one decrement per epoch (replayed for
// finished sources, at runtime for recomputed ones). An edge within one place
// needs none: the activation scan reads the source's finished flag itself.
//
// A declared stencil replays by runs: each finished run of a row, shifted by
// each offset that lands on it, is a run of targets, cut where their owners'
// box rows end, so a place costs a few owner lookups per row and offset, not
// one AntiDependencies call per cell and one lookup per edge. Any other
// pattern is asked cell by cell, one edge per emit.
func ReplayDecrements[T any](c *Chunk[T], out []Transfer[T], pat dag.Pattern, emit func(from, owner, off, n int)) {
	t := dag.TabulateStencil(pat)
	if t == nil {
		replayCells(c, out, pat, emit)
		return
	}
	to := newOwners(c.d)
	box := c.d.LocalBox(c.place)
	for r := 0; r < box.Rows; r++ {
		lo := r * box.Cols
		c.finishedRuns(lo, lo+box.Cols, !runCols(box), func(off, n int) {
			i, j := c.d.CellAt(c.place, off)
			replayRun(t, &to, c.place, i, j, n, emit)
		})
	}
	for _, tr := range out {
		replayRun(t, &to, tr.To, tr.ID.I, tr.ID.J, len(tr.Values), emit)
	}
}

// replayRun emits the edges leaving the n finished cells of row i from
// column j on, whose new owner is from: for each offset of a row i2 that
// reads row i, the shifted run clipped to the grid, a piece per owner box row.
func replayRun(t *dag.StencilTable, to *owners, from int, i, j int32, n int, emit func(from, owner, off, n int)) {
	h, w := t.Bounds()
	for i2 := i; i2 <= min(i+t.ReachI, h-1); i2++ {
		for _, o := range t.Offsets(i2) {
			if i2+o.DI != i {
				continue
			}
			for J, end, k := j-o.DJ, min(j+int32(n)-o.DJ, w), 0; J < end; J += int32(k) {
				var p, off int
				if p, off, k = to.at(i2, J, int(end-J)); p != from {
					emit(from, p, off, k)
				}
			}
		}
	}
}

// replayCells is ReplayDecrements for a pattern that declares no stencil: one
// AntiDependencies call per finished cell and one owner lookup per edge.
func replayCells[T any](c *Chunk[T], out []Transfer[T], pat dag.Pattern, emit func(from, owner, off, n int)) {
	var buf []dag.VertexID
	replay := func(from int, i, j int32) {
		buf = pat.AntiDependencies(i, j, buf[:0])
		for _, a := range buf {
			if p, off := c.d.PlaceOffset(a.I, a.J); p != from {
				emit(from, p, off, 1)
			}
		}
	}
	c.ForEachFinished(pat, func(i, j int32, _ int, _ T) { replay(c.place, i, j) })
	for _, tr := range out {
		for k := range tr.Values {
			replay(tr.To, tr.ID.I, tr.ID.J+int32(k))
		}
	}
}

// owners cuts runs of a row's cells where their owners' box rows end under d.
type owners struct {
	d    dist.Dist
	cols []int // place id -> its box width, 0 along a dealt or scattered column axis
}

func newOwners(d dist.Dist) owners {
	ps := d.Places()
	o := owners{d: d, cols: make([]int, ps[len(ps)-1]+1)}
	for _, p := range ps {
		if b := d.LocalBox(p); runCols(b) {
			o.cols[p] = b.Cols
		}
	}
	return o
}

// at returns the owner of (i, j), its offset there, and how many of the n
// cells of row i from column j on lie in the same box row of that owner.
func (o *owners) at(i, j int32, n int) (p, off, k int) {
	p, off = o.d.PlaceOffset(i, j)
	if w := o.cols[p]; w > 0 {
		return p, off, min(n, w-off%w)
	}
	return p, off, 1
}

// runCols reports whether neighbouring local columns of box are neighbouring
// global ones, so that a row's cells go in runs.
func runCols(box dist.Box) bool { return box.ColAxis == dist.Whole || box.ColAxis == dist.Block }

// finishedRuns calls f for each run of finished cells among the offsets
// lo…hi-1, found a word of flags at a time; with single, for each finished
// cell.
func (c *Chunk[T]) finishedRuns(lo, hi int, single bool, f func(off, n int)) {
	for off := c.stateEnd(lo, hi, false); off < hi; {
		end := off + 1
		if !single {
			end = c.stateEnd(off, hi, true)
		}
		f(off, end-off)
		off = c.stateEnd(end, hi, false)
	}
}
