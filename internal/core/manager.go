package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/transport"
)

// JobManager is the runtime of one process: the places local to it — every
// place of a LocalFabric, or the one place behind a TCP endpoint — as
// persistent stacks (transport, router, worker pool, registry) hosting a
// stream of jobs, plus what is per process rather than per job: the failure
// detector, the place-death fan-out and the cluster-formed barrier. Places
// live as long as the manager; jobs come and go (DESIGN.md "Deployments").
type JobManager struct {
	common Common

	fabric *transport.LocalFabric // nil when the places are not all local
	stacks []*placeStack          // the local places, ascending
	sink   *eventSink

	closeCh   chan struct{}
	closeOnce sync.Once

	// The cluster-formed barrier of a multi-process cluster (see formed).
	helloCh  chan int      // place 0: prepared-peer notifications
	beginCh  chan struct{} // other places: closed when place 0 says go
	formedCh chan struct{} // closed once form returned; formErr is its verdict
	formErr  error

	mu       sync.Mutex
	nextID   uint32
	jobs     map[uint32]jobHandle
	order    []uint32 // submission order
	active   int
	queue    []*admitTicket
	dead     map[int]bool // places declared dead, replayed to later jobs
	prepared int          // jobs that reached the formed barrier
	closed   bool

	mQueueWait *metrics.Vec
}

// jobHandle is the manager's untyped view of a JobRun[T]: the lifecycle
// verbs fanned out to every job regardless of its value type.
type jobHandle interface {
	fault(place int)
	placeKilled(place int)
	abortWith(err error)
	Done() <-chan struct{}
	release()
}

// admitTicket is one queued submission waiting for an admission slot.
type admitTicket struct {
	job   uint32
	ready chan struct{}
}

// NewJobManager builds the persistent places of an in-process cluster from
// cluster-scoped configuration.
func NewJobManager(common Common) (*JobManager, error) {
	if err := common.normalize(); err != nil {
		return nil, err
	}
	fabric := transport.NewLocalFabric(common.Places)
	eps := make([]transport.Transport, common.Places)
	for p := range eps {
		eps[p] = fabric.Endpoint(p)
	}
	m := newJobManager(common, eps)
	m.fabric = fabric
	return m, nil
}

// newJobManager builds the stacks of the local places over their endpoints
// (ascending place order; common is already normalized).
func newJobManager(common Common, eps []transport.Transport) *JobManager {
	m := &JobManager{
		common:  common,
		stacks:  make([]*placeStack, len(eps)),
		closeCh: make(chan struct{}),
		jobs:    make(map[uint32]jobHandle),
		dead:    make(map[int]bool),
	}
	m.sink = newEventSink(m.common.Events)
	if m.common.Chaos != nil && m.sink != nil {
		prev := m.common.Chaos.OnInject
		sink := m.sink
		m.common.Chaos.OnInject = func(ev transport.InjectEvent) {
			if prev != nil {
				prev(ev)
			}
			sink.emit(RunEvent{
				Kind:   EventChaosInject,
				Place:  ev.To,
				Detail: fmt.Sprintf("%s %d->%d kind=%d delay=%s", ev.Fault, ev.From, ev.To, ev.Kind, ev.Delay),
			})
		}
	}
	for k, ep := range eps {
		m.stacks[k] = newPlaceStack(ep.Self(), ep, &m.common, m.sink, m.closeCh)
	}
	m.mQueueWait = m.stacks[0].reg.Vec(metrics.JobQueueWaitNsID)
	if m.allLocal() {
		m.watch()
	} else {
		m.formedCh = make(chan struct{})
		if ep := eps[0]; ep.Self() == 0 {
			m.helloCh = make(chan int, m.common.Places) // one hello per peer
			ep.Handle(kindHello, func(from int, _ []byte) ([]byte, error) {
				select {
				case m.helloCh <- from:
				default:
				}
				return nil, nil
			})
		} else {
			m.beginCh = make(chan struct{})
			var once sync.Once
			ep.Handle(kindBegin, func(int, []byte) ([]byte, error) {
				once.Do(func() { close(m.beginCh) })
				return nil, nil
			})
		}
	}
	return m
}

// allLocal reports whether every place of the cluster lives in this
// process: then there is nobody to wait for at the formed barrier, and a
// job is stopped the moment it completes instead of at Close.
func (m *JobManager) allLocal() bool { return len(m.stacks) == m.common.Places }

// newJobID assigns the next job id.
func (m *JobManager) newJobID() (uint32, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, fmt.Errorf("core: job manager closed")
	}
	id := m.nextID
	m.nextID++
	if id > 0xff {
		// The per-job metric slots are keyed by the id's low byte; a reused
		// slot starts over, so it reads as this job's counts alone.
		for _, ps := range m.stacks {
			for _, vec := range [...]metrics.VecID{metrics.JobTilesExecutedID, metrics.JobMsgsOutID, metrics.JobBytesOutID, metrics.JobQueueWaitNsID} {
				ps.reg.Vec(vec).Reset(uint8(id))
			}
		}
	}
	return id, nil
}

// admit records a starting job — from here until it is retired the
// manager's fan-outs (faults, cancels, snapshots, Close) reach it — and
// grants it an admission slot, or queues it FIFO behind the MaxActiveJobs
// bound. The returned channel is closed once the job may run.
func (m *JobManager) admit(id uint32, h jobHandle) <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs[id] = h
	m.order = append(m.order, id)
	if m.slotFree() {
		m.active++
		ready := make(chan struct{})
		close(ready)
		return ready
	}
	t := &admitTicket{job: id, ready: make(chan struct{})}
	m.queue = append(m.queue, t)
	return t.ready
}

// slotFree reports whether a job may be admitted now (m.mu held). A closed
// manager admits nobody: a job started against it queues, sees closeCh and
// cancels itself.
func (m *JobManager) slotFree() bool {
	return !m.closed && (m.common.MaxActiveJobs < 0 || m.active < m.common.MaxActiveJobs)
}

// dequeue removes a job's pending ticket after an abort while queued.
// It reports true when the ticket was already released — the job holds a
// slot and the caller must return it through retire.
func (m *JobManager) dequeue(id uint32) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, t := range m.queue {
		if t.job == id {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return false
		}
	}
	return true
}

// retire forgets a released job and, if it held an admission slot, returns
// the slot and releases the next queued ticket, if any.
func (m *JobManager) retire(id uint32, admitted bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.jobs, id)
	if !admitted {
		return
	}
	m.active--
	if len(m.queue) > 0 && m.slotFree() {
		t := m.queue[0]
		m.queue = m.queue[1:]
		m.active++
		close(t.ready)
	}
}

// watch starts the process's failure detector: place 0 watches its peers,
// a process without place 0 watches place 0, whose loss is unrecoverable.
// One per process, not per job: placeDead fans a verdict out to every job.
func (m *JobManager) watch() {
	if m.common.ProbeInterval <= 0 {
		return
	}
	ps := m.stacks[0]
	targets := []int{0}
	if ps.ep.Self() == 0 {
		targets = peerTargets(m.common.Places, 0)
	}
	go ps.newDetector(targets, m.placeDead).run()
}

// formed is the barrier between a job's prepare and its launch: no place
// may run workers before every place has prepared its state, or an early
// decrement could find nothing to receive it. An all-local cluster passes
// straight through. A multi-process one forms once, for the Jobs jobs every
// process starts with: the last to prepare runs the exchange for all.
func (m *JobManager) formed(abort <-chan struct{}) error {
	if m.allLocal() {
		return nil
	}
	m.mu.Lock()
	m.prepared++
	last := m.prepared == m.common.Jobs
	m.mu.Unlock()
	if last {
		m.formErr = m.form(abort)
		close(m.formedCh)
	}
	select {
	case <-m.formedCh:
		return m.formErr
	case <-abort:
		return ErrCanceled
	}
}

// form runs this process's side of the barrier: a place says hello to
// place 0 and waits for begin; place 0 gathers every hello, then broadcasts
// begin. The detector starts once the watched side is known to be up.
func (m *JobManager) form(abort <-chan struct{}) error {
	ps := m.stacks[0]
	self := ps.ep.Self()
	if self != 0 {
		if _, err := ps.ep.Call(0, kindHello, nil); err != nil {
			return fmt.Errorf("core: place %d cannot reach the coordinator: %w", self, err)
		}
		m.watch() // already while waiting: place 0 may die before it says begin
		select {
		case <-m.beginCh:
			return nil
		case <-abort:
			return ErrCanceled
		}
	}
	seen := map[int]bool{}
	timeout := time.After(30 * time.Second)
	for len(seen) < m.common.Places-1 {
		select {
		case p := <-m.helloCh:
			seen[p] = true
		case <-abort:
			return ErrCanceled
		case <-timeout:
			return fmt.Errorf("core: only %d of %d places joined within the startup window", len(seen)+1, m.common.Places)
		}
	}
	if _, err := phase(ps.ep, peerTargets(m.common.Places, 0), kindBegin, nil, nil, false); err != nil {
		return err
	}
	m.sink.emit(RunEvent{Kind: EventClusterFormed, Place: 0})
	m.watch()
	return nil
}

// handles snapshots the live (started, not yet retired) jobs for a fanout.
func (m *JobManager) handles() []jobHandle {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]jobHandle, 0, len(m.jobs))
	for _, h := range m.jobs {
		out = append(out, h)
	}
	return out
}

// placeDead records a place death and delivers it to every live job's
// coordinator; each job recovers independently (its own rebuild→exchange→
// resume over its own epoch state). Jobs submitted later
// learn the dead set at launch (deadPlaces). Losing place 0 aborts them all.
func (m *JobManager) placeDead(p int) {
	if p == 0 {
		for _, h := range m.handles() {
			h.abortWith(placeDead(0))
		}
		return
	}
	m.mu.Lock()
	m.dead[p] = true
	m.mu.Unlock()
	for _, h := range m.handles() {
		h.fault(p)
	}
}

// deadPlaces returns the places known dead, for replay into a
// newly-launched job's coordinator.
func (m *JobManager) deadPlaces() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, 0, len(m.dead))
	for p := range m.dead {
		out = append(out, p)
	}
	return out
}

// Kill fails place p mid-run for every job, as the paper's recovery
// experiments do. Killing place 0 aborts everything (Resilient X10
// limitation, §VI-D). Kill and KillUnannounced are harness calls for an
// in-process cluster; a multi-process place is killed by killing its process.
func (m *JobManager) Kill(p int) {
	m.KillUnannounced(p)
	m.placeDead(p)
}

// KillUnannounced fails place p without telling any coordinator: the
// crash is only discoverable through communication errors or the
// heartbeat detector. Regression tests use it to bound detection.
func (m *JobManager) KillUnannounced(p int) {
	m.fabric.Kill(p)
	if p == 0 {
		m.placeDead(0)
		return
	}
	// A real crash takes the place's workers and every job's local state
	// with it.
	m.stacks[p].host.stop()
	for _, h := range m.handles() {
		h.placeKilled(p)
	}
}

// JobState classifies a submitted job for introspection.
type JobState int

const (
	// JobQueued: submitted but waiting for an admission slot.
	JobQueued JobState = iota
	// JobRunning: admitted and executing (or finishing up).
	JobRunning
	// JobFinished: the job's run goroutine has exited.
	JobFinished
)

// String names the state for logs and dumps.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobFinished:
		return "finished"
	}
	return "unknown"
}

// JobInfo describes one submitted job.
type JobInfo struct {
	ID    uint32
	State JobState
}

// Jobs lists every submitted job in submission order with its current
// state.
func (m *JobManager) Jobs() []JobInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	queued := make(map[uint32]bool, len(m.queue))
	for _, t := range m.queue {
		queued[t.job] = true
	}
	out := make([]JobInfo, 0, len(m.order))
	for _, id := range m.order {
		info := JobInfo{ID: id, State: JobRunning}
		switch {
		case queued[id]:
			info.State = JobQueued
		case m.jobs[id] == nil:
			info.State = JobFinished
		}
		out = append(out, info)
	}
	return out
}

// JobIDs returns every submitted job id in submission order.
func (m *JobManager) JobIDs() []uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]uint32, len(m.order))
	copy(out, m.order)
	return out
}

// ActiveJobs returns how many jobs currently hold admission slots and
// how many are queued behind the bound.
func (m *JobManager) ActiveJobs() (active, queued int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active, len(m.queue)
}

// MetricsSnapshots reads every place's registry; nil when metrics are
// off. Exact once the jobs have stopped; mid-run it is a
// consistent-enough read.
func (m *JobManager) MetricsSnapshots() []*metrics.Snapshot {
	snaps, _ := m.snapshots()
	return snaps
}

// snapshots reads the local places' registries and, on place 0 of a
// multi-process cluster, gathers one kindStats reply per alive peer — so
// there it must run before Close, whose stop broadcast releases the peers.
// Unreachable peers are skipped rather than failing the collection.
func (m *JobManager) snapshots() ([]*metrics.Snapshot, error) {
	if !m.common.Metrics {
		return nil, nil
	}
	out := make([]*metrics.Snapshot, 0, m.common.Places)
	for _, ps := range m.stacks {
		out = append(out, ps.reg.Snapshot())
	}
	ep := m.stacks[0].ep
	if m.allLocal() || ep.Self() != 0 {
		return out, nil
	}
	var derr error
	phase(ep, peerTargets(m.common.Places, 0), kindStats, nil, func(p int, reply []byte) {
		s, err := metrics.DecodeSnapshot(reply)
		if err != nil {
			derr = fmt.Errorf("core: stats decode from place %d: %w", p, err)
			return
		}
		out = append(out, s)
	}, true)
	return out, derr
}

// Common exposes the manager's normalized cluster configuration; job
// submissions inherit it for the cluster-scoped fields.
func (m *JobManager) Common() *Common { return &m.common }

// Close ends every job and tears the places down. A job that already ran
// to its end is released first — on place 0 of a multi-process cluster that
// is where stop is broadcast, while the delivery stack is still whole; the
// rest are canceled and waited out. Idempotent.
func (m *JobManager) Close() error {
	var err error
	m.closeOnce.Do(func() {
		m.mu.Lock()
		m.closed = true
		m.mu.Unlock()
		for _, h := range m.handles() {
			select {
			case <-h.Done():
				h.release()
			default:
			}
		}
		close(m.closeCh)
		hs := m.handles()
		for _, h := range hs {
			h.abortWith(ErrCanceled)
		}
		for _, h := range hs {
			<-h.Done()
			h.release()
		}
		for _, ps := range m.stacks {
			ps.host.stop()
			if ps.chaos != nil {
				ps.chaos.Close()
			}
			if cerr := ps.ep.Close(); err == nil {
				err = cerr
			}
		}
		m.sink.close()
		if m.common.MetricsObserver != nil {
			m.common.MetricsObserver(m.MetricsSnapshots())
		}
	})
	return err
}
