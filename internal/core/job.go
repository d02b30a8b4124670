package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/metrics"
)

// JobRun is one job on a JobManager's places, in every deployment the only
// thing that assembles, launches, aborts, waits for and reports a job: its
// engines (chunk, cache, epoch state, deques) on the places local to this
// process, and its coordinator iff place 0 is among them.
type JobRun[T any] struct {
	jobID uint32
	m     *JobManager
	cfg   Config[T]
	d     dist.Dist // the epoch-0 distribution, built at submission

	// engines parallels m.stacks: one per local place, so on an in-process
	// cluster the index is the place id.
	engines []*placeEngine[T]
	co      *coordinator[T] // nil unless place 0 is local

	abortCh  chan struct{}
	abortMu  sync.Mutex
	abortErr error // guarded by abortMu; set once, with abortCh's close

	admitCh  <-chan struct{}
	admitted bool // holds an admission slot; run goroutine, then release

	done      chan struct{} // closed when run returns: err is final
	relOnce   sync.Once
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
	d, err := initialDist(&cfg.Common)
	if err != nil {
		return nil, err
	}
	id, err := m.newJobID()
	if err != nil {
		return nil, err
	}
	jr := &JobRun[T]{
		jobID:   id,
		m:       m,
		cfg:     cfg,
		d:       d,
		abortCh: make(chan struct{}),
		done:    make(chan struct{}),
		engines: make([]*placeEngine[T], len(m.stacks)),
	}
	for k, ps := range m.stacks {
		port := ps.router.newPort(id)
		// The engine registers its handlers on the port in its constructor;
		// only then is the port routed, so inbound dispatch never sees a
		// half-built handler table.
		jr.engines[k] = newPlaceEngine[T](port.Self(), &jr.cfg, port, jr.abortWith, ps.reg, ps.host, id)
		ps.router.add(port)
	}
	if pe := jr.engines[0]; pe.self == 0 {
		jr.co = newCoordinator(pe, jr.abortCh, jr.abortError)
		jr.co.sink = m.sink
		pe.events = jr.co.events
	}
	return jr, nil
}

// initialDist builds a job's epoch-0 distribution, covering every place. A
// constructor's panic (a bad option) is Submit's error, not the job's crash.
func initialDist(c *Common) (d dist.Dist, err error) {
	defer func() {
		if r := recover(); r != nil {
			d, err = nil, fmt.Errorf("core: distribution: %v", r)
		}
	}()
	h, w := c.Pattern.Bounds()
	d = c.NewDist(h, w, c.Places)
	if got := len(d.Places()); got != c.Places {
		return nil, fmt.Errorf("core: distribution covers %d places, cluster has %d", got, c.Places)
	}
	return d, nil
}

// start enters the admission queue and runs the job asynchronously.
func (jr *JobRun[T]) start() {
	jr.admitCh = jr.m.admit(jr.jobID, jr)
	go jr.run(time.Now())
}

// run is the job's lifecycle: admission, execute, and — where the places
// are all local — release. In a multi-process cluster the job stays up after
// execute, serving result reads, until the manager's Close releases it.
func (jr *JobRun[T]) run(submitted time.Time) {
	defer close(jr.done)
	select {
	case <-jr.admitCh:
		jr.admitted = true
		jr.queueWait = time.Since(submitted)
		jr.m.mQueueWait.Add(uint8(jr.jobID), jr.queueWait.Nanoseconds())
		start := time.Now()
		jr.err = jr.execute()
		jr.elapsed = time.Since(start)
		if !jr.m.allLocal() {
			return
		}
	case <-jr.abortCh:
	case <-jr.m.closeCh:
		jr.abortWith(ErrCanceled)
	}
	if !jr.admitted {
		// Aborted while queued (or racing admission): leave the queue, or
		// keep the slot to return if the ticket was already released.
		jr.admitted = jr.m.dequeue(jr.jobID)
		jr.err = jr.abortError()
	}
	jr.release()
}

// execute runs this process's share of the job through to completion. Each
// local place prepares itself, attaches to its worker pool and launches;
// place 0, where it is local, additionally coordinates. A process without
// place 0 serves until the coordinator's stop.
func (jr *JobRun[T]) execute() error {
	// Two-phase start: every place installs its epoch-0 state before any
	// worker runs, so no early message finds a place without state.
	var wg sync.WaitGroup
	for _, pe := range jr.engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pe.prepare(jr.d)
		}()
	}
	wg.Wait()
	if err := jr.m.formed(jr.abortCh); err != nil {
		if aerr := jr.abortError(); aerr != nil {
			return aerr
		}
		return err
	}
	// Only now may the shared workers see this job: the slot scan starts
	// after epoch-0 state is installed everywhere.
	for k, pe := range jr.engines {
		jr.m.stacks[k].host.attach(pe, jr.cfg.Weight)
	}
	// A job submitted after a place died never hears the original death;
	// replay the known dead set so its first epoch recovers immediately.
	for _, p := range jr.m.deadPlaces() {
		jr.fault(p)
	}
	for _, pe := range jr.engines {
		pe.launch()
	}
	if jr.co == nil {
		return jr.awaitStop()
	}
	return jr.co.run()
}

// awaitStop blocks until every local engine observed the coordinator's
// stop, or the job aborted first. Both can be true at once — stop lands, and
// the detector then loses place 0 as it shuts down — and a finished run is
// not an abort, so a stopped engine outranks the abort. (Never the other
// way round: stop is acknowledged before place 0 may go away.)
func (jr *JobRun[T]) awaitStop() error {
	for _, pe := range jr.engines {
		select {
		case <-pe.stopCh:
		case <-jr.abortCh:
			select {
			case <-pe.stopCh:
				continue
			default:
			}
			return jr.abortError()
		}
	}
	return nil
}

// release ends the job on the local places: stop, detach from the shared
// pools and routers, bank the final cache counters, return the admission
// slot. Place 0 first broadcasts the stop — acknowledged, so every reachable
// place has observed it before anything is torn down. Runs once.
func (jr *JobRun[T]) release() {
	jr.relOnce.Do(func() {
		if jr.err != nil {
			jr.abortWith(jr.err)
		}
		if jr.co != nil {
			jr.co.broadcastStop()
		}
		for _, pe := range jr.engines {
			pe.stop()
		}
		for _, pe := range jr.engines {
			// Quiesce a job that ran to completion (an aborted one may have a
			// worker parked in user code), on places that are not dead — all
			// of them before any port goes, or a last steal probe finds none.
			if jr.err == nil && pe.tr.Alive(pe.self) {
				pe.quiesce()
			}
		}
		for k, pe := range jr.engines {
			jr.m.stacks[k].host.detach(pe)
			pe.foldFinalCache()
			jr.m.stacks[k].router.remove(jr.jobID)
		}
		jr.m.retire(jr.jobID, jr.admitted)
	})
}

// Wait blocks until the job finishes and returns its terminal error.
func (jr *JobRun[T]) Wait() error {
	<-jr.done
	return jr.err
}

// Done exposes completion for select-based callers.
func (jr *JobRun[T]) Done() <-chan struct{} { return jr.done }

func (jr *JobRun[T]) abortError() error {
	jr.abortMu.Lock()
	defer jr.abortMu.Unlock()
	return jr.abortErr
}

func (jr *JobRun[T]) abortWith(err error) {
	jr.abortMu.Lock()
	defer jr.abortMu.Unlock()
	if jr.abortErr == nil {
		jr.abortErr = err
		close(jr.abortCh)
	}
}

// --- jobHandle (manager-facing) ---------------------------------------

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
	if jr.co == nil {
		return
	}
	select {
	case jr.co.events <- coEvent{fault: true, place: p}:
	case <-jr.abortCh:
	case <-jr.m.closeCh:
	}
}

// placeKilled tears down this job's local state on a killed place, as a
// real crash would.
func (jr *JobRun[T]) placeKilled(p int) { jr.engines[p].stop() }

// Cancel aborts the job with ErrCanceled. Safe at any time; a finished
// job is unaffected.
func (jr *JobRun[T]) Cancel() { jr.abortWith(ErrCanceled) }

func (jr *JobRun[T]) overlayCache(k int, s *metrics.Snapshot) {
	jr.engines[k].overlayCacheStats(s)
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
	for _, pe := range jr.engines {
		if st := pe.current(); st != nil && pe.tr.Alive(pe.self) {
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

// Stats aggregates this job's counters across the local places. Transport
// counts come from the job's ports (envelope traffic only); Retries and
// DedupHits are delivery-layer totals shared by every job on the cluster.
func (jr *JobRun[T]) Stats() Stats { return jobStats(jr.m, jr) }

// jobStats sums the given jobs' counters over the local places and adds the
// delivery-layer totals: the one place a Stats is assembled. Epochs and the
// tile layout are the first job's — summing a node's identical jobs, job 0's.
func jobStats[T any](m *JobManager, jobs ...*JobRun[T]) Stats {
	s := Stats{Places: m.common.Places}
	for _, jr := range jobs {
		if jr.co != nil {
			if s.Epochs == 0 {
				s.Epochs = int(jr.co.epoch) + 1
			}
			s.Recoveries += jr.co.recoveries
			s.RecoveryNanos += jr.co.recoveryNanos
		}
		for _, pe := range jr.engines {
			pe.addStats(&s)
		}
	}
	for _, ps := range m.stacks {
		ps.addReliableStats(&s)
	}
	// Every place of every one of these jobs derived the same layout.
	if st := jobs[0].engines[0].current(); st != nil {
		s.TileLayout, s.TileParallelism = describeLayout(st.grids, st.lay, st.chunk.Stencil() != nil), st.lay.parallelism()
	}
	return s
}
