package core

import (
	"fmt"
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
// A node is a facade over one transport.TCP endpoint, a JobManager with
// that one local place and cfg.Jobs JobRuns on it; the job lifecycle is
// JobRun's, as in process (DESIGN.md "Deployments"). Every process must
// agree on Jobs (it shapes the run, not the wire). Admission control is not
// applied over TCP — all jobs start at the begin barrier.
type TCPNode[T any] struct {
	cfg Config[T]
	// tr is the raw endpoint under the manager's stack; post-run reads call
	// on it directly (untracked kinds).
	tr   *transport.TCP
	m    *JobManager
	jobs []*JobRun[T]

	ran     bool
	elapsed time.Duration
}

// StartTCPNode binds place `self` to addrs[self] and builds the node's
// jobs. Run starts the computation; all places must call Run within
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
	common := cfg.Common
	common.MaxActiveJobs = -1
	n := &TCPNode[T]{cfg: cfg, tr: tr, m: newJobManager(common, []transport.Transport{tr})}
	if reg := n.m.stacks[0].reg; reg != nil {
		batchBytes := reg.Histogram(metrics.TransportBatchBytes)
		tr.SetPipeObserver(transport.PipeObserver{
			Flush: func(wireBytes int) { batchBytes.Observe(int64(wireBytes)) },
		})
	}
	for j := 0; j < cfg.Jobs; j++ {
		jr, err := newJobRun(n.m, cfg)
		if err != nil {
			n.Close()
			return nil, err
		}
		n.jobs = append(n.jobs, jr)
	}
	return n, nil
}

// Addr returns the address this node actually listens on.
func (n *TCPNode[T]) Addr() string { return n.tr.Addr() }

// Run executes this place's share of the computation. On place 0 it
// returns when every job finished (or failed); on other places it
// returns once the coordinators broadcast stop or the place becomes
// unreachable from the cluster. The node's verdict is the first failure
// (identical jobs share fate on a place death).
func (n *TCPNode[T]) Run() error {
	if n.ran {
		return fmt.Errorf("core: node already ran")
	}
	n.ran = true
	start := time.Now()
	for _, jr := range n.jobs {
		jr.start()
	}
	var first error
	for _, jr := range n.jobs {
		if err := jr.Wait(); err != nil && first == nil {
			first = err
		}
	}
	n.elapsed = time.Since(start)
	return first
}

// Elapsed returns this node's wall time for Run.
func (n *TCPNode[T]) Elapsed() time.Duration { return n.elapsed }

// JobStats returns job j's local counters on this node.
func (n *TCPNode[T]) JobStats(j int) Stats {
	if j < 0 || j >= len(n.jobs) {
		return Stats{Places: n.cfg.Places}
	}
	return n.jobs[j].Stats()
}

// Stats returns this node's local counters (not cluster-aggregated),
// summed across jobs. Transport counts come from the shared endpoint;
// epoch numbers from job 0's coordinator, recovery totals summed.
func (n *TCPNode[T]) Stats() Stats {
	s := jobStats(n.m, n.jobs...)
	ts := n.tr.Stats().Snapshot()
	s.MsgsSent = ts.SendsOut + ts.CallsOut
	s.BytesSent = ts.BytesOut
	s.SendsOut = ts.SendsOut
	return s
}

// MetricsSnapshots collects metrics snapshots after Run: this node's own
// registry and, on place 0, one kindStats call per alive peer — issued on
// the raw transport like post-run reads, so call it before Close (whose
// stop broadcast releases the other places). Returns nil when metrics are
// off; unreachable peers are skipped rather than failing the collection.
func (n *TCPNode[T]) MetricsSnapshots() ([]*metrics.Snapshot, error) { return n.m.snapshots() }

// Value reads a finished vertex value of job 0 after a successful run.
// On place 0 it fetches remote values with a readval call; other places
// can read their local cells only.
func (n *TCPNode[T]) Value(i, j int32) (T, error) { return n.JobValue(0, i, j) }

// JobValue reads a finished vertex value of job jb.
func (n *TCPNode[T]) JobValue(jb int, i, j int32) (T, error) {
	var zero T
	if jb < 0 || jb >= len(n.jobs) {
		return zero, fmt.Errorf("core: job %d out of range", jb)
	}
	st := n.jobs[jb].engines[0].current()
	if st == nil {
		return zero, fmt.Errorf("core: node not started")
	}
	owner := st.d.Place(i, j)
	if owner == n.tr.Self() {
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

// Close releases the node. On place 0 it first broadcasts stop — and waits
// for every place to acknowledge it — releasing the other places (which
// keep serving post-run reads until then); call it after all result access
// is done.
func (n *TCPNode[T]) Close() error { return n.m.Close() }

// SetAddrTable replaces the address table before Run; used by tests that
// bind every node to port 0 first and then exchange real addresses.
func (n *TCPNode[T]) SetAddrTable(addrs []string) error {
	return n.tr.SetAddrs(addrs)
}
