package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/dpx10/dpx10/internal/metrics"
)

// JobRun is one job on a JobManager's places: its own engines (chunk,
// cache, epoch state, deques) and coordinator, sharing the manager's
// transport stacks, worker pools and registries. The zero job of a
// single-job Cluster and every Submit on a persistent cluster are both
// JobRuns.
type JobRun[T any] struct {
	jobID uint32
	m     *JobManager
	cfg   Config[T]

	ports   []*jobPort
	engines []*placeEngine[T]
	co      *coordinator[T]

	abortCh   chan struct{}
	abortOnce sync.Once
	abortErr  error
	abortMu   sync.Mutex

	admitCh <-chan struct{}

	done      chan struct{}
	err       error
	elapsed   time.Duration
	queueWait time.Duration
}

// SubmitJob registers a job on the manager and starts it. The job waits
// in the admission queue if MaxActiveJobs are already running. Cluster-
// scoped fields of cfg.Common (places, threads, transport, chaos,
// metrics) are overridden by the manager's configuration — jobs cannot
// reshape the places they run on.
func SubmitJob[T any](m *JobManager, cfg Config[T]) (*JobRun[T], error) {
	jr, err := newJobRun(m, cfg)
	if err != nil {
		return nil, err
	}
	jr.start()
	return jr, nil
}

// newJobRun validates the job configuration and builds its engines,
// without starting anything — Cluster wires the pieces up for tests
// before running; SubmitJob starts immediately.
func newJobRun[T any](m *JobManager, cfg Config[T]) (*JobRun[T], error) {
	// Cluster-scoped settings come from the manager; the transport stack
	// below the job ports already implements chaos/reliable/metrics, so
	// the job config must not re-wrap them.
	cfg.Places = m.common.Places
	cfg.Threads = m.common.Threads
	cfg.Chaos = nil
	cfg.Reliable = m.common.Reliable
	cfg.Metrics = m.common.Metrics
	cfg.MetricsObserver = nil
	cfg.Events = nil
	cfg.tileCheck = m.common.tileCheck
	if cfg.Weight == 0 {
		cfg.Weight = m.common.Weight
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var jr *JobRun[T]
	if _, err := m.register(func(id uint32) jobHandle {
		jr = &JobRun[T]{
			jobID:   id,
			m:       m,
			cfg:     cfg,
			abortCh: make(chan struct{}),
			done:    make(chan struct{}),
			ports:   make([]*jobPort, cfg.Places),
			engines: make([]*placeEngine[T], cfg.Places),
		}
		for p := 0; p < cfg.Places; p++ {
			ps := m.stacks[p]
			port := ps.router.newPort(id)
			// The engine registers its handlers on the port in its
			// constructor; only then is the port routed, so inbound dispatch
			// never sees a half-built handler table.
			pe := newPlaceEngine[T](p, &jr.cfg, port, jr.abortWith, ps.reg, ps.host, id)
			jr.ports[p] = port
			jr.engines[p] = pe
			ps.router.add(port)
		}
		jr.co = newCoordinator(jr.engines[0], jr.abortCh, jr.abortError, true)
		jr.co.sink = m.sink
		jr.engines[0].events = jr.co.events
		return jr
	}); err != nil {
		return nil, err
	}
	return jr, nil
}

// start enters the admission queue and runs the job asynchronously.
func (jr *JobRun[T]) start() {
	jr.admitCh = jr.m.admit(jr.jobID)
	go jr.run(time.Now())
}

func (jr *JobRun[T]) run(submitted time.Time) {
	defer close(jr.done)
	select {
	case <-jr.admitCh:
	case <-jr.abortCh:
		// Aborted while queued (or racing admission): return the slot if
		// the ticket was already released, otherwise just leave the queue.
		if jr.m.dequeue(jr.jobID) {
			jr.m.jobDone()
		}
		jr.detachAll()
		jr.err = jr.abortError()
		return
	case <-jr.m.closeCh:
		jr.abortWith(ErrCanceled)
		if jr.m.dequeue(jr.jobID) {
			jr.m.jobDone()
		}
		jr.detachAll()
		jr.err = jr.abortError()
		return
	}
	jr.queueWait = time.Since(submitted)
	jr.m.recordQueueWait(jr.jobID, jr.queueWait)
	jr.m.start()
	start := time.Now()
	err := jr.execute()
	jr.elapsed = time.Since(start)
	jr.err = err
	jr.detachAll()
	jr.m.jobDone()
}

// execute mirrors the single-cluster run loop over this job's engines.
func (jr *JobRun[T]) execute() error {
	cfg := &jr.cfg
	h, w := cfg.Pattern.Bounds()
	d := cfg.NewDist(h, w, cfg.Places)
	if got := len(d.Places()); got != cfg.Places {
		return fmt.Errorf("core: distribution covers %d places, cluster has %d", got, cfg.Places)
	}
	// Two-phase start: every place installs its epoch-0 state before any
	// worker runs, so no early message finds a place without state.
	for _, pe := range jr.engines {
		pe.prepare(d)
	}
	// Only now may the shared workers see this job: the slot scan starts
	// after epoch-0 state is installed everywhere.
	for p, pe := range jr.engines {
		jr.m.stacks[p].host.attach(pe, cfg.Weight)
	}
	// A job submitted after a place died never hears the original death;
	// replay the known dead set so its first epoch recovers immediately.
	for _, p := range jr.m.deadPlaces() {
		jr.fault(p)
	}
	for _, pe := range jr.engines {
		pe.launch()
	}
	err := jr.co.run()
	if err == nil {
		// Make sure every place observed the stop before returning. A
		// place declared dead after the coordinator's last recovery (so
		// co.alive is stale) never receives the stop broadcast — the
		// fabric check is race-free because a failed stop send implies
		// the dead mark landed before it.
		for _, pe := range jr.engines {
			if jr.co.alive[pe.self] && jr.m.fabric.Alive(pe.self) {
				pe.wait()
				pe.quiesce()
			}
		}
	} else {
		jr.abortWith(err)
	}
	for _, pe := range jr.engines {
		pe.stop()
	}
	return err
}

// detachAll removes the job from the shared pools and routers and banks
// its final cache counters in the registries. Idempotent by
// construction (detach/remove/fold all tolerate repeats).
func (jr *JobRun[T]) detachAll() {
	for p, pe := range jr.engines {
		jr.m.stacks[p].host.detach(pe)
		pe.foldFinalCache()
		jr.m.stacks[p].router.remove(jr.jobID)
	}
}

// Wait blocks until the job finishes and returns its terminal error.
func (jr *JobRun[T]) Wait() error {
	<-jr.done
	return jr.err
}

// Done exposes completion for select-based callers.
func (jr *JobRun[T]) Done() <-chan struct{} { return jr.done }

// awaitDone blocks until the job's run goroutine exits (jobHandle).
func (jr *JobRun[T]) awaitDone() { <-jr.done }

func (jr *JobRun[T]) abortError() error {
	jr.abortMu.Lock()
	defer jr.abortMu.Unlock()
	return jr.abortErr
}

func (jr *JobRun[T]) abortWith(err error) {
	jr.abortOnce.Do(func() {
		jr.abortMu.Lock()
		jr.abortErr = err
		jr.abortMu.Unlock()
		close(jr.abortCh)
	})
}

// --- jobHandle (manager-facing) ---------------------------------------

func (jr *JobRun[T]) id() uint32 { return jr.jobID }
func (jr *JobRun[T]) finished() bool {
	select {
	case <-jr.done:
		return true
	default:
		return false
	}
}

// fault delivers a place death to this job's coordinator.
func (jr *JobRun[T]) fault(p int) {
	select {
	case jr.co.events <- coEvent{fault: true, place: p}:
	case <-jr.abortCh:
	case <-jr.m.closeCh:
	}
}

// placeKilled tears down this job's local state on a killed place, as a
// real crash would.
func (jr *JobRun[T]) placeKilled(p int) {
	if st := jr.engines[p].current(); st != nil {
		st.closeQuit()
	}
	jr.engines[p].stop()
}

// cancel aborts the job.
func (jr *JobRun[T]) cancel(err error) {
	jr.abortWith(err)
	for _, pe := range jr.engines {
		pe.stop()
	}
}

// Cancel aborts the job with ErrCanceled. Safe at any time; a finished
// job is unaffected.
func (jr *JobRun[T]) Cancel() { jr.cancel(ErrCanceled) }

func (jr *JobRun[T]) overlayCache(p int, s *metrics.Snapshot) {
	jr.engines[p].overlayCacheStats(s)
}

// --- results & introspection ------------------------------------------

// ID returns the job's cluster-unique id (the wire envelope value).
func (jr *JobRun[T]) ID() uint32 { return jr.jobID }

// Elapsed is the execution wall time (excluding admission queue wait);
// QueueWait is the time spent queued. Meaningful after Wait.
func (jr *JobRun[T]) Elapsed() time.Duration   { return jr.elapsed }
func (jr *JobRun[T]) QueueWait() time.Duration { return jr.queueWait }

// Progress returns the vertices finished in the job's current epoch
// across alive places.
func (jr *JobRun[T]) Progress() int64 {
	var n int64
	for p, pe := range jr.engines {
		st := pe.current()
		if st == nil {
			continue
		}
		if jr.m.fabric.Alive(p) {
			n += st.chunk.FinishedCount()
		}
	}
	return n
}

// Result gives read access to the finished vertex values. Call after
// Wait returned nil.
func (jr *JobRun[T]) Result() (*Result[T], error) {
	if !jr.finished() {
		return nil, fmt.Errorf("core: Result before the job finished")
	}
	if jr.err != nil {
		return nil, fmt.Errorf("core: run failed: %w", jr.err)
	}
	var ref *placeEngine[T]
	for p, pe := range jr.engines {
		if jr.co.alive[p] {
			ref = pe
			break
		}
	}
	if ref == nil {
		return nil, fmt.Errorf("core: no surviving places")
	}
	return &Result[T]{engines: jr.engines, d: ref.current().d, pattern: jr.cfg.Pattern}, nil
}

// Stats aggregates this job's counters across places. Transport counts
// come from the job's ports (envelope traffic only); Retries and
// DedupHits are delivery-layer totals shared by every job on the
// cluster.
func (jr *JobRun[T]) Stats() Stats {
	s := Stats{
		Places:        jr.cfg.Places,
		Epochs:        int(jr.co.epoch) + 1,
		Recoveries:    jr.co.recoveries,
		RecoveryNanos: jr.co.recoveryNanos,
	}
	for _, pe := range jr.engines {
		pe.addStats(&s)
	}
	for _, ps := range jr.m.stacks {
		ps.addReliableStats(&s)
	}
	return s
}
