package core

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/dpx10/dpx10/internal/dag"
)

// Lifeline-based global load balancing (GLB, Saraswat et al.), adapted to
// tiled DP DAGs. An idle place spends a bounded budget of random steal
// probes (Config.LifelineProbes); when all are spent it registers itself
// as a parked buddy on its lifeline edges — a cyclic hypercube over the
// epoch's alive places (internal/sched.LifelineEdges) — and goes quiet.
// A victim that later has surplus ready tiles pushes whole tiles to its
// parked buddies (transfer.go). Registrations are persistent: a buddy stays
// in the victim's parked list across any number of pushes, and only new
// *local* work on the buddy (enqueueTile) re-arms its probing — so a long
// burst of surplus streams out with no per-batch probe/park round trips. A
// buddy with more pushed work than its own workers can drain forwards the
// excess along its own lifelines, so work diffuses over the strongly
// connected lifeline graph no matter where it appears.

// lifelineParkDelay is the park interval of a worker whose steal probes
// are all spent: progress is then message-driven (a push wakes the pool),
// so the timer is only a belt-and-braces rescan.
const lifelineParkDelay = 5 * time.Millisecond

// lifelineState is the epoch-owned lifeline bookkeeping of one place: the
// buddies parked on this place and the kick channel that wakes the epoch's
// pusher goroutine. Tiles pushed here wait in the epoch's inbox, with the
// exec tiles.
type lifelineState[T any] struct {
	edges []int // this place's outgoing lifeline edges (alive-place ids)

	mu      sync.Mutex
	parked  []int        // places parked on this place, dedup, FIFO
	nParked atomic.Int32 // len(parked) mirror for lock-free fast paths

	// armed is set once a registration pass has parked this place on its
	// lifelines, and cleared only when new *local* work is enqueued — a
	// lifeline delivery leaves it set, so registrations persist across
	// pushes and the victim keeps streaming without re-registration churn.
	armed atomic.Bool

	kick chan struct{} // capacity 1; coalesced pusher wakeups
	done chan struct{} // closed when the pusher goroutine has exited
}

func newLifelineState[T any](edges []int) *lifelineState[T] {
	return &lifelineState[T]{edges: edges, kick: make(chan struct{}, 1), done: make(chan struct{})}
}

// kickPush wakes the pusher; a full channel already guarantees a drain.
func (l *lifelineState[T]) kickPush() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// addParked registers a parked buddy (idempotent). Registrations are
// persistent: a buddy stays parked across any number of pushes — the
// registration means "idle until further notice", and the notice is a
// failed delivery (removeParked) or the buddy's own re-registration after
// running local work (a no-op here thanks to the dedup).
func (l *lifelineState[T]) addParked(p int) {
	l.mu.Lock()
	for _, q := range l.parked {
		if q == p {
			l.mu.Unlock()
			return
		}
	}
	l.parked = append(l.parked, p)
	l.nParked.Store(int32(len(l.parked)))
	l.mu.Unlock()
}

// parkedList snapshots the parked buddies into buf.
func (l *lifelineState[T]) parkedList(buf []int) []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append(buf[:0], l.parked...)
}

// removeParked forgets a buddy whose delivery failed (dead, stale or
// refusing); it re-registers itself if it is in fact alive and idle.
func (l *lifelineState[T]) removeParked(p int) {
	l.mu.Lock()
	for k, q := range l.parked {
		if q == p {
			l.parked = append(l.parked[:k], l.parked[k+1:]...)
			l.nParked.Store(int32(len(l.parked)))
			break
		}
	}
	l.mu.Unlock()
}

func (l *lifelineState[T]) parkedCount() int { return int(l.nParked.Load()) }

// lifelineLoop is the epoch's pusher goroutine: woken by kickPush when
// ready tiles appear while buddies are parked, it drains the surplus to
// them. Epoch-owned: it exits when the epoch's quit channel closes (a
// recovery's pause or stop), like the decrement aggregator's flusher.
func (pe *placeEngine[T]) lifelineLoop(st *epochState[T]) {
	defer close(st.life.done)
	for {
		select {
		case <-st.quit:
			return
		case <-pe.stopCh:
			return
		case <-st.life.kick:
		}
		pe.drainLifelines(st)
	}
}

// drainLifelines pushes surplus ready work to parked buddies: each buddy
// gets an equal share of the tiles beyond what this place's own workers
// need (one per thread), drawn from the forwarding inbox first, then from
// the place's own deques. Buddies stay registered across pushes, so a
// burst of ready tiles streams out round after round with no registration
// round trips in between. Runs on the pusher goroutine only.
func (pe *placeEngine[T]) drainLifelines(st *epochState[T]) {
	life := st.life
	sc := pe.getScratch()
	defer pe.putScratch(sc)
	keep := pe.cfg.Threads
	var buddies []int
	for {
		if pe.stale(st) {
			return
		}
		select {
		case <-st.quit:
			return
		case <-pe.stopCh:
			return
		default:
		}
		buddies = life.parkedList(buddies)
		n := len(buddies)
		if n == 0 {
			return
		}
		avail := st.sched.queued() + st.inbox.len()
		if avail <= keep {
			return
		}
		share := max((avail-keep+n)/(n+1), 1)
		pushed := false
		for _, buddy := range buddies {
			for sent := 0; sent < share; sent++ {
				mt, ok := pe.takeSurplus(st, sc, keep)
				if !ok {
					break
				}
				if !pe.pushTile(st, sc, buddy, transferLifeline, mt.cells) {
					// The buddy is gone, stale or refusing: keep the tile here
					// and stop feeding it — it re-registers if it is in fact
					// alive and idle.
					life.removeParked(buddy)
					pe.depositMigrated(st, mt)
					break
				}
				pe.lifePushes.Add(1)
				pe.mLifePush.Inc(-1)
				pushed = true
			}
		}
		if !pushed {
			return
		}
	}
}

// takeSurplus claims one surplus ready tile: pushed tiles beyond the local
// keep first (forwarding), then the place's own queued tiles, packed as
// their unfinished cells in intra-tile order.
func (pe *placeEngine[T]) takeSurplus(st *epochState[T], sc *scratch[T], keep int) (migratedTile, bool) {
	if mt, ok := st.inbox.take(keep, true); ok {
		return mt, true
	}
	t, ok := st.sched.stealIfOver(keep)
	if !ok {
		return migratedTile{}, false
	}
	st.boxes.drop(t) // it runs as a cell list wherever it lands, here included
	td := pe.describeTile(st, sc, t)
	return migratedTile{reason: transferLifeline, cells: td.appendOrder(make([]dag.VertexID, 0, len(td.order)))}, true
}

// maybePark registers this place as a parked buddy on its alive lifeline
// edges, once per idle episode (the armed flag; incoming work re-arms).
// Registration rides the steal payload's lifeline flag, so a victim with
// work ready hands a tile back immediately instead of parking us; the
// pass reports whether any such steal did work.
func (pe *placeEngine[T]) maybePark(st *epochState[T], sc *scratch[T]) bool {
	life := st.life
	if !life.armed.CompareAndSwap(false, true) {
		return false
	}
	got := false
	registered := 0
	for _, buddy := range life.edges {
		if !pe.isAlive(buddy) {
			continue
		}
		if pe.stealFrom(st, sc, buddy, true) {
			// The edge handed work back — this was no park at all. Stop
			// probing: the remaining registrations can wait for the next
			// genuinely idle episode.
			got = true
			break
		}
		registered++
	}
	pe.mLifeParks.Inc(sc.wkr)
	if got || registered == 0 {
		// Either we found work, or no buddy heard us (all dead or
		// failing): stay un-armed so the next idle pass probes and tries
		// to register again.
		life.armed.Store(false)
	}
	return got
}
