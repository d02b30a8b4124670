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
// A victim that later has surplus ready tiles pushes whole tiles — their
// cell lists, what a steal reply carries — to its parked buddies over
// kindLifelineDeliver. Registrations are persistent: a buddy stays in the
// victim's parked list across any number of pushes, and only new *local*
// work on the buddy (enqueueTile) re-arms its probing — so a long burst of
// surplus streams out with no per-batch probe/park round trips. A buddy
// with more pushed work than its own workers can drain forwards the
// excess along its own lifelines, so work diffuses over the strongly
// connected lifeline graph no matter where it appears.
// Results return over the ordinary steal-done path, so the owner stores
// values and propagates decrements exactly as for a random steal.

// lifelineParkDelay is the park interval of a worker whose steal probes
// are all spent: progress is then message-driven (a push wakes the pool),
// so the timer is only a belt-and-braces rescan.
const lifelineParkDelay = 5 * time.Millisecond

// migratedTile is one ready tile in flight between places: its unfinished
// cells in intra-tile dependency order. tile is the local tile index when
// the sender packed it from its own deques (so a failed push can requeue
// it), -1 for a tile received over the wire.
type migratedTile struct {
	tile  int
	cells []dag.VertexID
}

// lifelineState is the epoch-owned lifeline bookkeeping of one place: the
// buddies parked on this place, the inbox of tiles pushed here, and the
// kick channel that wakes the epoch's pusher goroutine.
type lifelineState[T any] struct {
	edges []int // this place's outgoing lifeline edges (alive-place ids)

	mu     sync.Mutex
	parked []int          // places parked on this place, dedup, FIFO
	inbox  []migratedTile // tiles pushed here, not yet claimed

	nParked atomic.Int32 // len(parked) mirror for lock-free fast paths
	nInbox  atomic.Int32 // len(inbox) mirror

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

// deposit appends a delivered tile to the inbox.
func (l *lifelineState[T]) deposit(mt migratedTile) {
	l.mu.Lock()
	l.inbox = append(l.inbox, mt)
	l.nInbox.Store(int32(len(l.inbox)))
	l.mu.Unlock()
}

// popInbox claims the oldest pushed tile (worker execution path).
func (l *lifelineState[T]) popInbox() (migratedTile, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.inbox) == 0 {
		return migratedTile{}, false
	}
	mt := l.inbox[0]
	l.inbox[0] = migratedTile{}
	l.inbox = append(l.inbox[:0], l.inbox[1:]...)
	l.nInbox.Store(int32(len(l.inbox)))
	return mt, true
}

// popInboxOver claims the newest pushed tile, but only while more than
// keep remain — the diffusion source: a buddy forwards pushed work it
// cannot drain itself, keeping the oldest tiles for its own workers.
func (l *lifelineState[T]) popInboxOver(keep int) (migratedTile, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.inbox) <= keep {
		return migratedTile{}, false
	}
	mt := l.inbox[len(l.inbox)-1]
	l.inbox[len(l.inbox)-1] = migratedTile{}
	l.inbox = l.inbox[:len(l.inbox)-1]
	l.nInbox.Store(int32(len(l.inbox)))
	return mt, true
}

func (l *lifelineState[T]) inboxLen() int { return int(l.nInbox.Load()) }

// lifelinesOn reports whether this engine runs the lifeline protocol.
func (pe *placeEngine[T]) lifelinesOn() bool {
	return pe.cfg.Lifelines && pe.cfg.Places > 1
}

// lifelineLoop is the epoch's pusher goroutine: woken by kickPush when
// ready tiles appear while buddies are parked, it drains the surplus to
// them. Epoch-owned: it exits when the epoch's quit channel closes (pause
// or stop), like the decrement aggregator's flusher.
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
		avail := st.sched.queued() + life.inboxLen()
		if avail <= keep {
			return
		}
		share := (avail - keep + n) / (n + 1)
		if share < 1 {
			share = 1
		}
		pushed := false
		for _, buddy := range buddies {
			for sent := 0; sent < share; sent++ {
				mt, ok := pe.takeSurplus(st, sc, keep)
				if !ok {
					break
				}
				if !pe.pushMigrated(st, buddy, mt) {
					// The buddy is gone, stale or refusing; keep the tile
					// runnable here and stop feeding it — it re-registers
					// if it is in fact alive and idle.
					life.removeParked(buddy)
					pe.depositMigrated(st, mt)
					break
				}
				pushed = true
			}
		}
		if !pushed {
			return
		}
	}
}

// takeSurplus claims one surplus ready tile: pushed tiles beyond the local
// keep first (forwarding), then the place's own queued tiles. Own tiles
// that a recovery fully restored are consumed and skipped.
func (pe *placeEngine[T]) takeSurplus(st *epochState[T], sc *scratch[T], keep int) (migratedTile, bool) {
	if mt, ok := st.life.popInboxOver(keep); ok {
		return mt, true
	}
	for {
		t, ok := st.sched.stealIfOver(keep)
		if !ok {
			return migratedTile{}, false
		}
		if mt, ok := pe.packTile(st, sc, t); ok {
			return mt, true
		}
	}
}

// packTile turns one of this place's own queued tiles into a migrated
// tile: the unfinished cells in intra-tile dependency order, the order the
// receiver computes them in.
func (pe *placeEngine[T]) packTile(st *epochState[T], sc *scratch[T], t int) (migratedTile, bool) {
	td := pe.describeTile(st, sc, t)
	if len(td.order) == 0 {
		return migratedTile{}, false
	}
	cells := make([]dag.VertexID, len(td.order))
	for k, s := range td.order {
		cells[k] = td.ids[s]
	}
	return migratedTile{tile: t, cells: cells}, true
}

// pushMigrated delivers one tile to a parked buddy and reports acceptance.
func (pe *placeEngine[T]) pushMigrated(st *epochState[T], buddy int, mt migratedTile) bool {
	if !pe.isAlive(buddy) {
		return false
	}
	reply, err := pe.tr.Call(buddy, kindLifelineDeliver, encodeIDBatch(st.epoch, mt.cells))
	if err != nil {
		pe.peerError(buddy, err)
		return false
	}
	if len(reply) == 0 || reply[0] != 1 {
		return false
	}
	pe.lifePushes.Add(1)
	pe.mLifePush.Inc(-1)
	return true
}

// depositMigrated keeps an unpushable tile runnable on this place: own
// tiles go back on the deques (their queued flag is still set), received
// tiles back into the inbox. Stale epochs drop the tile — the recovery's
// rebuilt counters cover it.
func (pe *placeEngine[T]) depositMigrated(st *epochState[T], mt migratedTile) {
	if pe.stale(st) {
		return
	}
	if mt.tile >= 0 {
		st.sched.push(mt.tile, -1, st.prio[mt.tile])
		return
	}
	st.life.deposit(mt)
	pe.host.notify()
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

// runMigrated executes a pushed tile (runForeign) and counts the run when
// its results went back to the owning place over the steal-done path.
func (pe *placeEngine[T]) runMigrated(st *epochState[T], sc *scratch[T], mt migratedTile) {
	if _, returned := pe.runForeign(st, sc, mt.cells); returned {
		pe.migrRun.Add(1)
	}
}
