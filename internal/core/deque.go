package core

import (
	"sync"
	"sync/atomic"
)

// tileSched is one place's per-epoch work scheduler: one deque per worker
// plus a wake semaphore. It replaces the old single shared ready channel,
// which made every enqueue and dequeue contend on one MPMC queue.
//
// Discipline: tiles carry a priority (tilePriorities; called wave here, for
// the anti-diagonal index it once was), and each deque keeps its entries
// sorted by it. A worker pushes tiles it enables onto its own deque and pops
// its own minimum — the place drains toward the boundary its neighbour
// waits on, strip by strip or band by band, so successive tiles share
// cache-resident dependency rows. Thieves, local and remote, pop a victim's
// maximum: the tile farthest from that boundary, where they least disturb
// the owner's locality. Protocol handlers, which have no worker identity,
// spread their pushes round-robin.
type tileSched struct {
	deques []workDeque
	// notify wakes the place's shared worker pool after a push has made
	// its tile visible. The host's wake semaphore guarantees a parked
	// worker rescans after every notify, so no wakeup is lost even though
	// the pool is shared by many epochs and many jobs.
	notify func()
	rr     atomic.Uint32 // round-robin cursor for identity-less pushes
}

func newTileSched(workers int, notify func()) *tileSched {
	if workers < 1 {
		workers = 1
	}
	return &tileSched{
		deques: make([]workDeque, workers),
		notify: notify,
	}
}

// push makes tile t claimable at wavefront position wave. wkr >= 0 targets
// that worker's own deque; handlers pass -1.
func (ts *tileSched) push(t, wkr int, wave int32) {
	if wkr < 0 || wkr >= len(ts.deques) {
		wkr = int(ts.rr.Add(1)) % len(ts.deques)
	}
	ts.deques[wkr].push(t, wave)
	ts.notify()
}

// take returns a runnable tile for worker w: the earliest wave of its own
// deque first, then the latest wave of each sibling.
func (ts *tileSched) take(w int) (int, bool) {
	if t, ok := ts.deques[w].popMin(); ok {
		return t, true
	}
	n := len(ts.deques)
	for k := 1; k < n; k++ {
		if t, ok := ts.deques[(w+k)%n].popMax(); ok {
			return t, true
		}
	}
	return 0, false
}

// steal pops one queued tile on behalf of a remote thief (the kindSteal
// victim side) or any caller without a worker identity. Remote thieves get
// the latest-wave tile — the one whose inputs are coldest here.
func (ts *tileSched) steal() (int, bool) {
	for i := range ts.deques {
		if t, ok := ts.deques[i].popMax(); ok {
			return t, true
		}
	}
	return 0, false
}

// queued returns the number of tiles currently claimable across the
// place's deques. Racy by nature (pushes and pops continue), which is
// fine for its one caller: the lifeline pusher's surplus estimate.
func (ts *tileSched) queued() int {
	n := 0
	for i := range ts.deques {
		n += ts.deques[i].size()
	}
	return n
}

// stealIfOver is steal with a don't-starve-yourself guard: it pops a tile
// only while more than keep tiles are queued place-wide, so the lifeline
// pusher never gives away work the local workers are about to want.
func (ts *tileSched) stealIfOver(keep int) (int, bool) {
	if ts.queued() <= keep {
		return 0, false
	}
	return ts.steal()
}

// waveEntry is one queued tile and its anti-diagonal wavefront index.
type waveEntry struct {
	tile int
	wave int32
}

// workDeque is a mutex-protected wave-sorted deque of tiles. Contention is
// low by construction — the owner is the only min-end user and thieves
// only arrive when their own deque is empty — so a plain mutex beats a
// lock-free design for this footprint. Entries in [head:] are sorted
// ascending by wave; pushes arrive in near-ascending order as the front
// advances, so the insertion bubble almost always stops immediately.
type workDeque struct {
	mu   sync.Mutex
	buf  []waveEntry
	head int
}

func (q *workDeque) push(t int, wave int32) {
	q.mu.Lock()
	q.buf = append(q.buf, waveEntry{tile: t, wave: wave})
	for i := len(q.buf) - 1; i > q.head && q.buf[i-1].wave > q.buf[i].wave; i-- {
		q.buf[i-1], q.buf[i] = q.buf[i], q.buf[i-1]
	}
	q.mu.Unlock()
}

// size returns the number of queued entries.
func (q *workDeque) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf) - q.head
}

// popMin takes the earliest-wave tile (the owner's end).
func (q *workDeque) popMin() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head >= len(q.buf) {
		q.reset()
		return 0, false
	}
	t := q.buf[q.head].tile
	q.head++
	if q.head >= len(q.buf) {
		q.reset()
	}
	return t, true
}

// popMax takes the latest-wave tile (the thieves' end).
func (q *workDeque) popMax() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head >= len(q.buf) {
		q.reset()
		return 0, false
	}
	t := q.buf[len(q.buf)-1].tile
	q.buf = q.buf[:len(q.buf)-1]
	if q.head >= len(q.buf) {
		q.reset()
	}
	return t, true
}

// reset reclaims the consumed prefix once the deque drains; the buffer's
// capacity is kept for the epoch.
func (q *workDeque) reset() {
	q.buf = q.buf[:0]
	q.head = 0
}
