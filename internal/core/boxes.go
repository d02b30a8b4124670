package core

import (
	"sync"

	"github.com/dpx10/dpx10/internal/distarray"
)

// Pushed values wait for the tile that reads them. Under value push a
// decrement record's tile entry carries the sender's cells that the named
// tile reads (proto.go); the receiver deposits them in that tile's box
// before it applies the entry's count, and the tile's halo step pours the
// box into what the walk reads — the halo of a generic tile a value at a
// time (fillHalo, drainBox), the ghost slab of a stencil tile a run at a
// time, each run cut where the sender's box rows end and clipped to the slab
// (ghostFrame, pourBox), which drops what falls outside it — and fetches
// only what the box did not hold. The vertex cache never sees a pushed value.
//
// A box is pinned until its tile runs here or leaves (steal, exec,
// lifeline); its storage then goes back to the epoch's free list. A deposit
// for a tile that will not run here — one that ran or left already, or one
// the activation scan retired — is dropped. So is a deposit past the bound:
// a place pins at most as many pushed values across its boxes as it owns
// cells, so the boxes at most double the chunk; it keeps the oldest, and the
// tile fetches the rest. The bound is the place's own size, not the vertex
// cache's, because every value pushed here has a tile here that reads it: a
// value dropped at arrival costs the tile a round trip for a value that
// already crossed the wire. The boxes belong to one epoch and are discarded
// with it.

// pushBoxes is one epoch's boxes. Without value push there are none: a nil
// *pushBoxes takes, drops and sweeps nothing, and no deposit reaches it.
type pushBoxes[T any] struct {
	mu     sync.Mutex
	box    []*boxStore[T] // per local tile: nil while empty, &closed once it will not run here, else its values
	closed boxStore[T]    // the mark of a closed box; holds nothing
	free   []*boxStore[T] // storage no box holds
	made   int            // storage allocated this epoch, in a box or free
	pinned int            // values held across the boxes
	limit  int            // the chunk's cell count
	peak   int            // the most values ever pinned at once
}

// boxStore is one box's values: runs of their senders' local offsets, and
// the values in run order.
type boxStore[T any] struct {
	runs []boxRun
	vals []T
}

// boxRun is a run of values from place from.
type boxRun struct {
	from int32
	valRun
}

func newPushBoxes[T any](tiles, limit int) *pushBoxes[T] {
	return &pushBoxes[T]{box: make([]*boxStore[T], tiles), limit: limit}
}

// deposit puts the values a decrement batch from place from carries into the
// boxes of the tiles its entries name, each run whole or — at the bound —
// its older part, and returns how many values it kept. The caller has vetted
// the batch.
func (bx *pushBoxes[T]) deposit(ch *distarray.Chunk[T], from int, b *decrBatch[T]) (kept int) {
	bx.mu.Lock()
	defer bx.mu.Unlock()
	for k, tc := range b.tiles {
		tv := &b.vals[k]
		if len(tv.runs) == 0 || bx.box[tc.tile] == &bx.closed || ch.TileRetired(int(tc.tile)) {
			continue
		}
		at := 0
		for _, r := range tv.runs {
			n := min(int(r.n), bx.limit-bx.pinned)
			if n == 0 {
				return kept
			}
			s := bx.storeOf(int(tc.tile))
			s.runs = append(s.runs, boxRun{from: int32(from), valRun: valRun{off: r.off, n: uint32(n)}})
			s.vals = append(s.vals, tv.vals[at:at+n]...)
			at += int(r.n)
			bx.pinned += n
			bx.peak = max(bx.peak, bx.pinned)
			kept += n
		}
	}
	return kept
}

// storeOf returns tile t's storage, giving its open box one — free or new —
// if it has none. Caller holds mu.
func (bx *pushBoxes[T]) storeOf(t int) *boxStore[T] {
	if bx.box[t] == nil {
		if n := len(bx.free); n > 0 {
			bx.box[t], bx.free = bx.free[n-1], bx.free[:n-1]
		} else {
			bx.box[t] = &boxStore[T]{}
			bx.made++
		}
	}
	return bx.box[t]
}

// take closes tile t's box, which is about to run, and returns its storage,
// or nil when it holds nothing. The values stay put until release: no
// deposit reaches a closed box.
func (bx *pushBoxes[T]) take(t int) *boxStore[T] {
	if bx == nil {
		return nil
	}
	bx.mu.Lock()
	defer bx.mu.Unlock()
	s := bx.box[t]
	bx.box[t] = &bx.closed
	if s == &bx.closed {
		return nil
	}
	return s
}

// release unpins storage take returned and puts it back on the free list.
func (bx *pushBoxes[T]) release(s *boxStore[T]) {
	bx.mu.Lock()
	bx.releaseLocked(s)
	bx.mu.Unlock()
}

func (bx *pushBoxes[T]) releaseLocked(s *boxStore[T]) {
	bx.pinned -= len(s.vals)
	s.runs, s.vals = s.runs[:0], s.vals[:0]
	bx.free = append(bx.free, s)
}

// drop closes tile t's box and frees it: the tile left this place.
func (bx *pushBoxes[T]) drop(t int) {
	if s := bx.take(t); s != nil {
		bx.release(s)
	}
}

// dropRetired frees the boxes of the tiles the activation scan retired:
// deposits that arrived before it, which no tile will read.
func (bx *pushBoxes[T]) dropRetired(ch *distarray.Chunk[T]) {
	if bx == nil {
		return
	}
	bx.mu.Lock()
	defer bx.mu.Unlock()
	for t, s := range bx.box {
		if s != nil && s != &bx.closed && ch.TileRetired(t) {
			bx.box[t] = &bx.closed
			bx.releaseLocked(s)
		}
	}
}
