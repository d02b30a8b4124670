package core

import (
	"fmt"
	"time"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/transport"
)

// Cluster is a single-process, single-job DPX10 deployment: a JobManager
// hosting exactly one job, run synchronously. It is the Go analogue of
// launching an X10 program with X10_NPLACES=n on one host — and, with
// Kill, the harness for every fault-tolerance experiment. Multi-job
// sessions use the JobManager/SubmitJob surface directly.
type Cluster[T any] struct {
	m  *JobManager
	jr *JobRun[T]

	// Shared-infrastructure views, exposed for the test harnesses that
	// reach into the stack (fault injection, registry assertions).
	fabric  *transport.LocalFabric
	engines []*placeEngine[T]
	co      *coordinator[T]

	ran bool
}

// NewCluster validates cfg and builds the places around a single job.
// Run starts the computation.
func NewCluster[T any](cfg Config[T]) (*Cluster[T], error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m, err := NewJobManager(cfg.Common)
	if err != nil {
		return nil, err
	}
	jr, err := newJobRun(m, cfg)
	if err != nil {
		m.Close()
		return nil, err
	}
	return &Cluster[T]{
		m:       m,
		jr:      jr,
		fabric:  m.fabric,
		engines: jr.engines,
		co:      jr.co,
	}, nil
}

// Run executes the computation to completion and returns the terminal
// error, if any. It may be called once.
func (cl *Cluster[T]) Run() error {
	if cl.ran {
		return fmt.Errorf("core: cluster already ran")
	}
	cl.ran = true
	cl.jr.start()
	err := cl.jr.Wait()
	cl.m.Close()
	return err
}

// Cancel aborts the run with ErrCanceled. Safe to call at any time; a
// run that already finished is unaffected.
func (cl *Cluster[T]) Cancel() { cl.jr.Cancel() }

// Kill fails place p mid-run, as the paper's recovery experiments do by
// triggering a failure "manually in the middle of the execution". Killing
// place 0 aborts the run (Resilient X10 limitation, §VI-D).
func (cl *Cluster[T]) Kill(p int) { cl.m.Kill(p) }

// KillUnannounced fails place p without telling the coordinator: the crash
// is only discoverable through communication errors or the heartbeat
// failure detector. Regression tests use it to bound the detection window.
func (cl *Cluster[T]) KillUnannounced(p int) { cl.m.KillUnannounced(p) }

// Progress returns the number of vertices finished in the current epoch
// across alive places; the fault-injection harness polls it to time kills.
func (cl *Cluster[T]) Progress() int64 { return cl.jr.Progress() }

// Elapsed returns the wall time of the run.
func (cl *Cluster[T]) Elapsed() time.Duration { return cl.jr.Elapsed() }

// Result gives read access to the finished vertex values. Call after Run
// returned nil.
func (cl *Cluster[T]) Result() (*Result[T], error) {
	if !cl.ran {
		return nil, fmt.Errorf("core: Result before Run")
	}
	return cl.jr.Result()
}

// Stats aggregates counters across places; meaningful after Run.
func (cl *Cluster[T]) Stats() Stats { return cl.jr.Stats() }

// MetricsSnapshots reads every place's metrics registry (in-process, so
// no kindStats traffic is needed). Returns nil when cfg.Metrics is off.
// Exact once the run has stopped; mid-run it is a consistent-enough read.
func (cl *Cluster[T]) MetricsSnapshots() []*metrics.Snapshot {
	return cl.m.MetricsSnapshots()
}

// Result reads finished vertex values after a successful run — the dag
// argument handed to the paper's appFinished() callback.
type Result[T any] struct {
	engines []*placeEngine[T]
	d       interface {
		Bounds() (int32, int32)
		Place(i, j int32) int
		LocalOffset(i, j int32) int
	}
	pattern dag.Pattern
}

// Bounds returns the matrix dimensions.
func (r *Result[T]) Bounds() (h, w int32) { return r.d.Bounds() }

// Finished reports whether cell (i,j) holds a computed value. Inactive
// cells report true with the zero value.
func (r *Result[T]) Finished(i, j int32) bool {
	pe := r.engines[r.d.Place(i, j)]
	return pe.current().chunk.Finished(r.d.LocalOffset(i, j))
}

// Value returns the computed value of cell (i,j).
func (r *Result[T]) Value(i, j int32) T {
	pe := r.engines[r.d.Place(i, j)]
	return pe.current().chunk.Value(r.d.LocalOffset(i, j))
}
