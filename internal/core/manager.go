package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/transport"
)

// JobManager is the multi-job runtime: one persistent set of places —
// transport stacks, routers, shared worker pools, metrics registries,
// failure detector — hosting a stream of jobs. Each job gets its own
// distributed array, vertex cache, epoch state and coordinator, isolated
// behind a jobID envelope on the wire; places, workers and delivery
// state are shared. This is the decoupling of place lifetime from job
// lifetime: places live as long as the manager, jobs come and go.
type JobManager struct {
	common Common

	fabric *transport.LocalFabric
	stacks []*placeStack // per place
	sink   *eventSink

	closeCh   chan struct{}
	closeOnce sync.Once
	detStop   chan struct{}
	startOnce sync.Once

	mu     sync.Mutex
	nextID uint32
	jobs   map[uint32]jobHandle
	order  []uint32 // submission order
	active int
	queue  []*admitTicket
	dead   map[int]bool // places declared dead, replayed to later jobs
	closed bool

	mQueueWait *metrics.Vec
}

// jobHandle is the manager's untyped view of a JobRun[T]: the lifecycle
// verbs fanned out to every job regardless of its value type.
type jobHandle interface {
	id() uint32
	fault(place int)
	placeKilled(place int)
	cancel(err error)
	awaitDone()
	finished() bool
	overlayCache(place int, s *metrics.Snapshot)
}

// admitTicket is one queued submission waiting for an admission slot.
type admitTicket struct {
	job   uint32
	ready chan struct{}
}

// NewJobManager builds the persistent places from cluster-scoped
// configuration. No goroutines start until the first job is admitted.
func NewJobManager(common Common) (*JobManager, error) {
	if err := common.normalize(); err != nil {
		return nil, err
	}
	m := &JobManager{
		common:  common,
		fabric:  transport.NewLocalFabric(common.Places),
		stacks:  make([]*placeStack, common.Places),
		closeCh: make(chan struct{}),
		detStop: make(chan struct{}),
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
	for p := range m.stacks {
		p := p
		m.stacks[p] = newPlaceStack(p, m.fabric.Endpoint(p), &m.common, m.sink, m.closeCh, func(s *metrics.Snapshot) {
			for _, h := range m.handles() {
				h.overlayCache(p, s)
			}
		})
	}
	m.mQueueWait = m.stacks[0].reg.Vec(metrics.JobQueueWaitNs)
	return m, nil
}

// register assigns the next job id and records the handle h builds for
// it. h runs under the manager lock and must return the job complete —
// engines built, ports routed — because the moment the handle is recorded
// another client's metrics snapshot or fault fan-out may call into it.
func (m *JobManager) register(h func(id uint32) jobHandle) (jobHandle, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("core: job manager closed")
	}
	id := m.nextID
	m.nextID++
	jh := h(id)
	m.jobs[id] = jh
	m.order = append(m.order, id)
	return jh, nil
}

// admit grants an admission slot, or queues the job FIFO behind the
// MaxActiveJobs bound. The returned channel is closed once the job may
// run.
func (m *JobManager) admit(id uint32) <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.common.MaxActiveJobs < 0 || m.active < m.common.MaxActiveJobs {
		m.active++
		ready := make(chan struct{})
		close(ready)
		return ready
	}
	t := &admitTicket{job: id, ready: make(chan struct{})}
	m.queue = append(m.queue, t)
	return t.ready
}

// dequeue removes a job's pending ticket after an abort while queued.
// It reports true when the ticket was already released — the job holds a
// slot and the caller must return it through jobDone.
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

// jobDone returns a job's admission slot and releases the next queued
// ticket, if any.
func (m *JobManager) jobDone() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.active--
	if len(m.queue) > 0 && (m.common.MaxActiveJobs < 0 || m.active < m.common.MaxActiveJobs) {
		t := m.queue[0]
		m.queue = m.queue[1:]
		m.active++
		close(t.ready)
	}
}

func (m *JobManager) recordQueueWait(id uint32, d time.Duration) {
	m.mQueueWait.Add(uint8(id), d.Nanoseconds())
}

// start spins up the shared machinery on first admission: the per-place
// worker pools and the failure detector. Idempotent.
func (m *JobManager) start() {
	m.startOnce.Do(func() {
		for _, ps := range m.stacks {
			ps.host.start()
		}
		if m.common.ProbeInterval > 0 {
			// One detector per cluster, not per job: a place death is
			// observed once and fanned out to every active job.
			go m.stacks[0].newDetector(peerTargets(m.common.Places, 0), m.placeDead, m.detStop).run()
		}
	})
}

// handles snapshots the unfinished jobs for a fanout.
func (m *JobManager) handles() []jobHandle {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]jobHandle, 0, len(m.jobs))
	for _, id := range m.order {
		if h := m.jobs[id]; h != nil && !h.finished() {
			out = append(out, h)
		}
	}
	return out
}

// placeDead records a place death and delivers it to every unfinished
// job's coordinator; each job recovers independently (its own pause→
// rebuild→restore→replay→resume over its own epoch state). Jobs
// submitted later learn the dead set at launch (deadPlaces).
func (m *JobManager) placeDead(p int) {
	if p == 0 {
		m.abortAll(placeDead(0))
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

func (m *JobManager) abortAll(err error) {
	for _, h := range m.handles() {
		h.cancel(err)
	}
}

// Kill fails place p mid-run for every job, as the paper's recovery
// experiments do. Killing place 0 aborts everything (Resilient X10
// limitation, §VI-D).
func (m *JobManager) Kill(p int) {
	m.KillUnannounced(p)
	if p == 0 {
		return
	}
	m.placeDead(p)
}

// KillUnannounced fails place p without telling any coordinator: the
// crash is only discoverable through communication errors or the
// heartbeat detector. Regression tests use it to bound detection.
func (m *JobManager) KillUnannounced(p int) {
	m.fabric.Kill(p)
	if p == 0 {
		m.abortAll(placeDead(0))
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
		case m.jobs[id] != nil && m.jobs[id].finished():
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
	if !m.common.Metrics {
		return nil
	}
	out := make([]*metrics.Snapshot, 0, m.common.Places)
	for _, ps := range m.stacks {
		out = append(out, ps.snapshot())
	}
	return out
}

// Common exposes the manager's normalized cluster configuration; job
// submissions inherit it for the cluster-scoped fields.
func (m *JobManager) Common() *Common { return &m.common }

// Close cancels every unfinished job, waits them out, and tears the
// places down. Idempotent.
func (m *JobManager) Close() error {
	m.closeOnce.Do(func() {
		m.mu.Lock()
		m.closed = true
		m.mu.Unlock()
		close(m.closeCh)
		hs := m.handles()
		for _, h := range hs {
			h.cancel(ErrCanceled)
		}
		for _, h := range hs {
			h.awaitDone()
		}
		close(m.detStop)
		for _, ps := range m.stacks {
			ps.host.stop()
		}
		for _, ps := range m.stacks {
			if ps.chaos != nil {
				ps.chaos.Close()
			}
		}
		m.fabric.Close()
		m.sink.close()
		if m.common.MetricsObserver != nil {
			m.common.MetricsObserver(m.MetricsSnapshots())
		}
	})
	return nil
}
