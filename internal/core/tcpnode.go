package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/transport"
)

// TCPNode is one place of a multi-process DPX10 deployment: every place
// runs in its own OS process (as X10's Socket runtime launches places)
// and communicates over TCP. All processes must be started with the same
// Config and address table; place 0 coordinates and exposes the result.
//
// With cfg.Jobs > 1 the node hosts that many identical jobs on its one
// set of places: one shared transport stack, worker pool and registry,
// one engine + coordinator pair per job, multiplexed by the jobID
// envelope. Every process must agree on Jobs (it shapes the run, not the
// wire). Admission control is not applied over TCP — all jobs start at
// the begin barrier.
type TCPNode[T any] struct {
	cfg  Config[T]
	self int
	// tr is the raw endpoint under the shared stack; it stays around for
	// the startup barrier and post-run reads (untracked kinds).
	tr *transport.TCP
	*placeStack
	pes []*placeEngine[T] // one per job
	cos []*coordinator[T] // place 0 only; one per job

	abortCh  chan struct{}
	abortMu  sync.Mutex
	abortErr error // guarded by abortMu; written by engine goroutines
	ran      bool
	elapsed  time.Duration

	// detStop bounds the failure detector's lifetime to the whole node,
	// not the engines: Close's stop broadcast still needs the detector to
	// declare unreachable peers, and place 0's own engines stop first.
	detStop chan struct{}
	detOnce sync.Once

	helloCh chan int      // place 0: prepared-peer notifications
	beginCh chan struct{} // non-zero places: closed when place 0 says go
}

// StartTCPNode binds place `self` to addrs[self] and prepares the
// engines. Run starts the computation; all places must call Run within
// each other's dial window.
func StartTCPNode[T any](cfg Config[T], self int, addrs []string) (*TCPNode[T], error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Places != len(addrs) {
		return nil, fmt.Errorf("core: %d places but %d addresses", cfg.Places, len(addrs))
	}
	if self < 0 || self >= cfg.Places {
		return nil, fmt.Errorf("core: place %d out of range", self)
	}
	tr, err := transport.NewTCP(self, addrs)
	if err != nil {
		return nil, err
	}
	n := &TCPNode[T]{cfg: cfg, self: self, tr: tr, abortCh: make(chan struct{}), detStop: make(chan struct{})}
	abort := func(err error) {
		n.abortMu.Lock()
		if n.abortErr == nil {
			n.abortErr = err
		}
		n.abortMu.Unlock()
		select {
		case <-n.abortCh:
		default:
			close(n.abortCh)
		}
	}
	n.placeStack = newPlaceStack(self, tr, &n.cfg.Common, newEventSink(n.cfg.Events), n.abortCh, func(s *metrics.Snapshot) {
		for _, pe := range n.pes {
			pe.overlayCacheStats(s)
		}
	})
	if n.reg != nil {
		batchFrames := n.reg.Histogram(metrics.TransportBatchFrames)
		batchBytes := n.reg.Histogram(metrics.TransportBatchBytes)
		tr.SetPipeObserver(transport.PipeObserver{
			Flush: func(frames, wireBytes int) {
				batchFrames.Observe(int64(frames))
				batchBytes.Observe(int64(wireBytes))
			},
		})
	}
	n.pes = make([]*placeEngine[T], cfg.Jobs)
	for j := 0; j < cfg.Jobs; j++ {
		port := n.router.newPort(uint32(j))
		n.pes[j] = newPlaceEngine[T](self, &n.cfg, port, abort, n.reg, n.host, uint32(j))
		n.router.add(port)
	}
	if self == 0 {
		n.cos = make([]*coordinator[T], cfg.Jobs)
		for j := 0; j < cfg.Jobs; j++ {
			n.cos[j] = newCoordinator(n.pes[j], n.abortCh, n.abortReason, false)
			n.cos[j].sink = n.sink
			n.pes[j].events = n.cos[j].events
		}
		n.helloCh = make(chan int, cfg.Places)
		tr.Handle(kindHello, func(from int, _ []byte) ([]byte, error) {
			select {
			case n.helloCh <- from:
			default:
			}
			return nil, nil
		})
	} else {
		n.beginCh = make(chan struct{})
		var beginOnce sync.Once
		tr.Handle(kindBegin, func(int, []byte) ([]byte, error) {
			// Launch inside the handler: the coordinator's begin Call must
			// not return until this place's jobs are runnable, or a fast
			// recovery pause could race the launch.
			beginOnce.Do(func() {
				n.launchJobs()
				close(n.beginCh)
			})
			return nil, nil
		})
	}
	return n, nil
}

// Addr returns the address this node actually listens on.
func (n *TCPNode[T]) Addr() string { return n.tr.Addr() }

// abortReason returns the first abort error, synchronized against the
// engine goroutines that set it.
func (n *TCPNode[T]) abortReason() error {
	n.abortMu.Lock()
	defer n.abortMu.Unlock()
	return n.abortErr
}

// Run executes this place's share of the computation. On place 0 it
// returns when every job finished (or failed); on other places it
// returns once the coordinators broadcast stop or the place becomes
// unreachable from the cluster.
func (n *TCPNode[T]) Run() error {
	if n.ran {
		return fmt.Errorf("core: node already ran")
	}
	n.ran = true
	start := time.Now()
	h, w := n.cfg.Pattern.Bounds()
	d := n.cfg.NewDist(h, w, n.cfg.Places)
	for _, pe := range n.pes {
		pe.prepare(d)
	}
	n.host.start()

	// Startup barrier: no place may launch workers before every place has
	// prepared its state, or early messages could find a place with
	// nothing to receive them. Non-zero places say hello to place 0;
	// place 0 broadcasts begin once everyone checked in.
	if n.self == 0 {
		if err := n.awaitCluster(); err != nil {
			return err
		}
		n.sink.emit(RunEvent{Kind: EventClusterFormed, Place: 0})
		n.launchJobs()
		if n.cfg.ProbeInterval > 0 {
			// One detector for the node, its verdicts fanned out to every
			// job's coordinator — each job recovers independently.
			go n.newDetector(peerTargets(n.cfg.Places, 0), func(p int) {
				for _, co := range n.cos {
					select {
					case co.events <- coEvent{fault: true, place: p}:
					case <-n.abortCh:
					case <-n.detStop:
					}
				}
			}, n.detStop).run()
		}
		// One coordinator per job, run concurrently; the node's verdict is
		// the first failure (identical jobs share fate on a place death).
		errs := make([]error, len(n.cos))
		var wg sync.WaitGroup
		for j, co := range n.cos {
			wg.Add(1)
			go func(j int, co *coordinator[T]) {
				defer wg.Done()
				errs[j] = co.run()
			}(j, co)
		}
		wg.Wait()
		n.elapsed = time.Since(start)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	if _, err := n.tr.Call(0, kindHello, nil); err != nil {
		return fmt.Errorf("core: place %d cannot reach the coordinator: %w", n.self, err)
	}
	// Watch the coordinator: if place 0 dies, the run is unrecoverable
	// (Resilient X10 limitation) and this process must not linger, even
	// while it is still waiting at the startup barrier.
	if n.cfg.ProbeInterval > 0 {
		go n.newDetector([]int{0}, func(int) {
			for _, pe := range n.pes {
				pe.abort(placeDead(0))
			}
		}, n.detStop).run()
	}
	// The begin handler launches the jobs; serve until every job stopped
	// or the node aborted.
	err := n.awaitStop()
	n.elapsed = time.Since(start)
	return err
}

// stopGrace is how long a node that has just lost place 0 waits for a stop
// broadcast before calling the loss an abort. Place 0 says stop and then
// closes its endpoint; the stop frame travels on place 0's connection and
// the detector's probe on this node's own, so a probe that lands right
// behind the close can report the death a few microseconds before the stop
// handler has run. The frame is already in this node's receive path by then.
const stopGrace = 100 * time.Millisecond

// awaitStop blocks until every job's engine stopped, or the node aborted
// first. Both can be true at once — the stop broadcast lands and the
// coordinator detector loses place 0 as it shuts down, in either order —
// and a finished run is not an abort, so a stopped engine always outranks
// the abort, and the loss of place 0 waits stopGrace for the stop it may
// have overtaken.
func (n *TCPNode[T]) awaitStop() error {
	for _, pe := range n.pes {
		select {
		case <-pe.stopCh:
		case <-n.abortCh:
			select {
			case <-pe.stopCh:
				continue
			default:
			}
			if errors.Is(n.abortReason(), ErrPlaceZeroDead) {
				select {
				case <-pe.stopCh:
					continue
				case <-time.After(stopGrace):
				}
			}
			return n.abortReason()
		}
	}
	return nil
}

// launchJobs makes the jobs visible to the shared workers and launches
// them. Attach must wait for the startup barrier: the host's workers run
// for the node's whole lifetime, so a job attached before the cluster
// formed would start computing — and messaging peers — too early.
func (n *TCPNode[T]) launchJobs() {
	for _, pe := range n.pes {
		n.host.attach(pe, n.cfg.Weight)
		pe.launch()
	}
}

// awaitCluster gathers hello from every other place, then broadcasts
// begin. Missing places fail the start — the cluster never formed.
func (n *TCPNode[T]) awaitCluster() error {
	seen := map[int]bool{}
	timeout := time.After(30 * time.Second)
	for len(seen) < n.cfg.Places-1 {
		select {
		case p := <-n.helloCh:
			seen[p] = true
		case <-n.abortCh:
			return n.abortReason()
		case <-timeout:
			return fmt.Errorf("core: only %d of %d places joined within the startup window", len(seen)+1, n.cfg.Places)
		}
	}
	for p := 1; p < n.cfg.Places; p++ {
		if _, err := n.tr.Call(p, kindBegin, nil); err != nil {
			return fmt.Errorf("core: begin broadcast to place %d: %w", p, err)
		}
	}
	return nil
}

// Elapsed returns this node's wall time for Run.
func (n *TCPNode[T]) Elapsed() time.Duration { return n.elapsed }

// JobStats returns job j's local counters on this node.
func (n *TCPNode[T]) JobStats(j int) Stats {
	s := Stats{Places: n.cfg.Places}
	if j < 0 || j >= len(n.pes) {
		return s
	}
	n.pes[j].addStats(&s)
	if n.cos != nil {
		s.Epochs = int(n.cos[j].epoch) + 1
		s.Recoveries = n.cos[j].recoveries
		s.RecoveryNanos = n.cos[j].recoveryNanos
	}
	return s
}

// Stats returns this node's local counters (not cluster-aggregated),
// summed across jobs. Transport counts come from the shared endpoint;
// epoch numbers from job 0's coordinator, recovery totals summed.
func (n *TCPNode[T]) Stats() Stats {
	s := Stats{Places: n.cfg.Places}
	for _, pe := range n.pes {
		pe.addStats(&s)
	}
	ts := n.tr.Stats().Snapshot()
	s.MsgsSent = ts.SendsOut + ts.CallsOut
	s.BytesSent = ts.BytesOut
	s.SendsOut = ts.SendsOut
	if n.cos != nil {
		s.Epochs = int(n.cos[0].epoch) + 1
		for _, co := range n.cos {
			s.Recoveries += co.recoveries
			s.RecoveryNanos += co.recoveryNanos
		}
	}
	n.addReliableStats(&s)
	return s
}

// MetricsSnapshots collects metrics snapshots after Run: this node's own
// registry and, on place 0, one kindStats call per alive peer — issued on
// the raw transport like post-run reads, so call it before Close (whose
// stop broadcast releases the other places). Returns nil when metrics are
// off; unreachable peers are skipped rather than failing the collection.
func (n *TCPNode[T]) MetricsSnapshots() ([]*metrics.Snapshot, error) {
	if !n.cfg.Metrics {
		return nil, nil
	}
	snaps := []*metrics.Snapshot{n.snapshot()}
	if n.self != 0 {
		return snaps, nil
	}
	for p := 1; p < n.cfg.Places; p++ {
		if !n.tr.Alive(p) {
			continue
		}
		reply, err := n.tr.Call(p, kindStats, nil)
		if err != nil {
			continue // died during shutdown: best effort
		}
		s, derr := metrics.DecodeSnapshot(reply)
		if derr != nil {
			return snaps, fmt.Errorf("core: stats decode from place %d: %w", p, derr)
		}
		snaps = append(snaps, s)
	}
	return snaps, nil
}

// Value reads a finished vertex value of job 0 after a successful run.
// On place 0 it fetches remote values with a readval call; other places
// can read their local cells only.
func (n *TCPNode[T]) Value(i, j int32) (T, error) { return n.JobValue(0, i, j) }

// JobValue reads a finished vertex value of job jb.
func (n *TCPNode[T]) JobValue(jb int, i, j int32) (T, error) {
	var zero T
	if jb < 0 || jb >= len(n.pes) {
		return zero, fmt.Errorf("core: job %d out of range", jb)
	}
	st := n.pes[jb].current()
	if st == nil {
		return zero, fmt.Errorf("core: node not started")
	}
	owner := st.d.Place(i, j)
	if owner == n.self {
		off := st.d.LocalOffset(i, j)
		if !st.chunk.Finished(off) {
			return zero, fmt.Errorf("core: vertex (%d,%d) not finished", i, j)
		}
		return st.chunk.Value(off), nil
	}
	// kindReadVal is job-scoped: the raw-transport call carries the job
	// envelope explicitly (the engine's port would add it on the stacked
	// path).
	payload := appendJobEnvelope(make([]byte, 0, 12), uint32(jb), putID(nil, dag.VertexID{I: i, J: j}))
	reply, err := n.tr.Call(owner, kindReadVal, payload)
	if err != nil {
		return zero, err
	}
	if len(reply) == 0 || reply[0] == 0 {
		return zero, fmt.Errorf("core: vertex (%d,%d) not finished at place %d", i, j, owner)
	}
	v, _, err := n.cfg.Codec.Decode(reply[1:])
	return v, err
}

// Close releases the node. On place 0 it first broadcasts stop, releasing
// the other places (which keep serving post-run reads until then); call it
// after all result access is done.
func (n *TCPNode[T]) Close() error {
	for _, co := range n.cos {
		co.broadcastStop()
	}
	n.detOnce.Do(func() { close(n.detStop) })
	for _, pe := range n.pes {
		pe.stop()
	}
	n.host.stop()
	if n.chaos != nil {
		n.chaos.Close()
	}
	err := n.tr.Close()
	n.sink.close()
	return err
}

// SetAddrTable replaces the address table before Run; used by tests that
// bind every node to port 0 first and then exchange real addresses.
func (n *TCPNode[T]) SetAddrTable(addrs []string) error {
	return n.tr.SetAddrs(addrs)
}
