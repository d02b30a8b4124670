package core

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/transport"
)

// jobRunner is one job's claim on a place's shared worker pool. tryRun
// executes at most one ready tile for worker w and reports whether it did
// any work; idlePull is the idle-path hook (remote stealing) consulted
// only when no runner on the place had local work; parkDelay is how long
// worker w may sleep before the job wants another idle pull (lifeline-
// parked jobs stretch it — their progress is message-driven).
type jobRunner interface {
	tryRun(w int) bool
	idlePull(w int) bool
	usesSteal() bool
	parkDelay(w int) time.Duration
}

// tilesPerPass is how many tiles a worker runs for one job in a scheduling
// pass before moving to the next job: concurrent jobs interleave at this
// granularity, round-robin, with no job given priority.
const tilesPerPass = 8

// placeHost owns one place's worker pool, shared by every active job.
// Jobs come and go (admission attaches a slot, completion removes it);
// the pool's lifetime is the cluster's, which is what decouples place
// lifetime from job lifetime. Workers scan the active slots in order,
// running up to tilesPerPass tiles per job per pass, and park on the wake
// semaphore when no slot has work.
type placeHost struct {
	threads int

	// wake carries worker wake tokens. Capacity `threads` suffices: a
	// notify that finds the channel full proves `threads` tokens are
	// pending, and every pending token triggers a full rescan that starts
	// after the notifying push made its tile visible — so each of the
	// pool's workers is guaranteed a rescan and no wakeup is lost.
	wake     chan struct{}
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu    sync.Mutex // guards slot list replacement
	slots atomic.Pointer[[]jobRunner]

	mParks *metrics.Counter
}

func newPlaceHost(threads int, reg *metrics.Registry) *placeHost {
	if threads < 1 {
		threads = 1
	}
	h := &placeHost{
		threads: threads,
		wake:    make(chan struct{}, threads),
		stopCh:  make(chan struct{}),
		mParks:  reg.Counter(metrics.SchedDequeParksID),
	}
	empty := []jobRunner{}
	h.slots.Store(&empty)
	for w := 0; w < threads; w++ {
		h.wg.Add(1)
		go h.worker(w)
	}
	return h
}

// placeStack is everything one place shares between its jobs, in both
// deployments: the delivery stack — endpoint, then the metrics meter
// (directly above the endpoint so its per-kind counts equal the endpoint's
// own Stats number for number), then chaos injection on the send side, then
// reliable delivery on top so retries re-traverse the faulty layer, then
// the job router multiplexing every job's traffic over the shared stream —
// and the worker-pool host.
type placeStack struct {
	common  *Common
	sink    *eventSink
	abortCh <-chan struct{}

	// ep is the raw endpoint under the stack: the cluster-formed barrier and
	// the post-run stats gather call on it directly, below chaos injection.
	ep     transport.Transport
	reg    *metrics.Registry      // nil when Metrics is off
	chaos  *transport.FaultFabric // nil without a chaos plan
	rel    *reliableTransport     // nil unless Reliable
	top    transport.Transport    // what place-scoped traffic and the detector use
	router *jobRouter
	host   *placeHost
}

// newPlaceStack builds place p's stack over endpoint ep and installs the
// place-scoped handlers on it: the failure detector's heartbeat echo and
// the post-run metrics read. These kinds describe the place, not a job, so
// they bypass the job router (TestEveryKindHasOneHandler checks each kind's
// handler is where its scope says). abortCh ends the reliable layer's
// retries and any detector built on the stack.
func newPlaceStack(p int, ep transport.Transport, c *Common, sink *eventSink, abortCh <-chan struct{}) *placeStack {
	ps := &placeStack{common: c, sink: sink, abortCh: abortCh, ep: ep}
	if c.Metrics {
		ps.reg = metrics.New(p)
	}
	ps.top = transport.NewMetered(ep, ps.reg)
	if c.Chaos != nil {
		ps.chaos = transport.NewFaultFabric(ps.top, c.Chaos)
		ps.top = ps.chaos
	}
	if c.Reliable {
		ps.rel = newReliableTransport(ps.top, c, abortCh, ps.reg)
		ps.top = ps.rel
	}
	ps.router = newJobRouter(ps.top, ps.reg)
	ps.host = newPlaceHost(c.Threads, ps.reg)
	ps.top.Handle(kindPing, handlePing)
	ps.top.Handle(kindStats, func(int, []byte) ([]byte, error) {
		return metrics.EncodeSnapshot(nil, ps.reg.Snapshot()), nil
	})
	return ps
}

// addReliableStats adds the reliable layer's delivery counters, if the
// stack has one.
func (ps *placeStack) addReliableStats(s *Stats) {
	if ps.rel != nil {
		s.Retries += ps.rel.retries.Load()
		s.DedupHits += ps.rel.dedupHits.Load()
	}
}

// newDetector builds a heartbeat failure detector probing targets from
// this place; it runs until the stack's abort channel closes.
func (ps *placeStack) newDetector(targets []int, onDead func(int)) *detector {
	return &detector{
		tr:        ps.top,
		targets:   targets,
		interval:  ps.common.ProbeInterval,
		threshold: ps.common.SuspicionThreshold,
		onSuspect: func(p, misses int) {
			ps.sink.emit(RunEvent{Kind: EventPlaceSuspected, Place: p, Misses: misses})
		},
		onDead:  onDead,
		mMisses: ps.reg.Counter(metrics.TransportHeartbeatMissesID),
		stopCh:  ps.abortCh,
	}
}

// attach adds a job's runner to the scan list.
func (h *placeHost) attach(r jobRunner) {
	h.mu.Lock()
	old := *h.slots.Load()
	upd := new([]jobRunner)
	*upd = append(append(make([]jobRunner, 0, len(old)+1), old...), r)
	h.slots.Store(upd)
	h.mu.Unlock()
	h.wakeAll()
}

// detach removes a job's runner; its queued tiles die with its epoch
// state, so no drain is needed.
func (h *placeHost) detach(r jobRunner) {
	h.mu.Lock()
	old := *h.slots.Load()
	upd := new([]jobRunner)
	*upd = make([]jobRunner, 0, len(old))
	for _, s := range old {
		if s != r {
			*upd = append(*upd, s)
		}
	}
	h.slots.Store(upd)
	h.mu.Unlock()
}

// stop tears the pool down. Workers finish their in-flight tile and
// exit; stop does not wait for them (the fabric teardown unblocks any
// in-flight transport call).
func (h *placeHost) stop() {
	h.stopOnce.Do(func() { close(h.stopCh) })
}

// notify wakes one parked worker; a full channel means every worker
// already has a pending rescan token, so dropping the token is safe.
func (h *placeHost) notify() {
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// wakeAll queues a rescan for every worker (job attach, epoch resume).
func (h *placeHost) wakeAll() {
	for i := 0; i < h.threads; i++ {
		select {
		case h.wake <- struct{}{}:
		default:
			return
		}
	}
}

// worker is the shared scheduling loop: round-robin over the
// active jobs' deques, then the idle path (remote stealing) per job,
// then park. One goroutine per worker index for the host's lifetime —
// jobs never spawn or join workers.
func (h *placeHost) worker(w int) {
	defer h.wg.Done()
	var park *time.Timer
	defer func() {
		if park != nil {
			park.Stop()
		}
	}()
	for {
		select {
		case <-h.stopCh:
			return
		default:
		}
		slots := *h.slots.Load()
		progressed := false
		for _, r := range slots {
			for q := 0; q < tilesPerPass; q++ {
				if !r.tryRun(w) {
					break
				}
				progressed = true
			}
		}
		if progressed {
			continue
		}
		// Idle: offer each job a remote steal attempt (only Steal-strategy
		// jobs act on it). Any success re-enters the scan loop.
		steal := false
		delay := stealRetryDelay
		for _, r := range slots {
			if r.usesSteal() {
				if !steal || r.parkDelay(w) < delay {
					delay = r.parkDelay(w)
				}
				steal = true
				if r.idlePull(w) {
					progressed = true
					break
				}
			}
		}
		if progressed {
			continue
		}
		h.mParks.Inc(w)
		if steal {
			// Park and retry on the shortest delay any steal job asked for:
			// the usual brief pace while probes remain, the long lifeline
			// pace when every such job is parked on its lifelines.
			if park == nil {
				park = time.NewTimer(delay)
			} else {
				park.Reset(delay)
			}
			select {
			case <-h.stopCh:
				return
			case <-h.wake:
			case <-park.C:
			}
			continue
		}
		select {
		case <-h.stopCh:
			return
		case <-h.wake:
		}
	}
}
