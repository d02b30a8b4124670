// Package dpx10 is a Go implementation of DPX10, the distributed framework
// for dynamic-programming applications introduced in "DPX10: An Efficient
// X10 Framework for Dynamic Programming Applications" (Wang, Yu, Sun,
// Meng; ICPP 2015).
//
// A DPX10 program is specified by a DAG pattern — which matrix cells
// depend on which — and a compute method that produces one value per cell.
// The framework owns everything else: distributing the vertex matrix over
// places, scheduling ready vertices, moving dependency values between
// places (with a per-place FIFO cache), and transparently recovering from
// place failures by redistributing the array over the survivors.
//
// Writing an application takes the paper's three steps:
//
//  1. Choose a built-in DAG pattern (GridPattern, DiagonalPattern, ...) or
//     implement the Pattern interface for a custom one.
//
//  2. Implement App: Compute(i, j, deps) and AppFinished(dag).
//
//  3. Run it:
//
//     dag, err := dpx10.Run[int32](app, dpx10.DiagonalPattern(n, m),
//     dpx10.Places(8), dpx10.Threads(6))
//
// The number of places and worker threads per place mirror X10's
// X10_NPLACES and X10_NTHREADS environment variables. Most options are
// untyped; only value-typed ones (WithCodec, WithSnapshotRecovery) take a
// type argument. A layout is one value — a DistKind, BlockCyclicRowDist,
// Block2DDist or CustomDist — passed to WithDist.
//
// Run builds an ephemeral cluster for one computation. To amortize the
// places across many computations, build a persistent cluster and submit
// jobs to it — several run concurrently, sharing the worker pools under
// per-job fair scheduling and the MaxActiveJobs admission bound:
//
//	c, err := dpx10.NewCluster(dpx10.Places(8), dpx10.Threads(6))
//	defer c.Close()
//	j1, err := dpx10.Submit[int32](ctx, c, app1, patternA)
//	j2, err := dpx10.Submit[int32](ctx, c, app2, patternB, dpx10.WithTileSize(64))
//	dagA, err := j1.Wait()
//	dagB, err := j2.Wait()
//
// Cluster-scoped options (Places, Threads, transport, chaos, metrics,
// MaxActiveJobs) belong to NewCluster; job-scoped options (strategy,
// cache, tile size, codec, distribution, recovery) belong to Submit; Run
// and Launch accept both. A misplaced option is rejected
// with an *OptionScopeError.
//
// For fault-tolerance work the package also exposes a chaos-testing
// surface: WithChaos injects seeded message drop/duplication/delay/
// partition faults over the reliable delivery layer that makes the protocol
// immune to lost and replayed messages, WithHeartbeat bounds how long an
// unannounced place death goes unnoticed, and WithEvents streams structured
// run events (suspicions, deaths, recoveries, injections) to the
// application.
package dpx10

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/core"
	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/option"
)

// VertexID identifies one cell (i, j) of the DP matrix.
type VertexID = dag.VertexID

// Cell is one dependency passed to Compute: the id and finished value of a
// vertex the current cell depends on.
type Cell[T any] = core.Cell[T]

// Pattern describes a DP algorithm's dependency structure; see the
// built-in constructors or implement it (plus, optionally, Sparse or
// Stencil) for a custom algorithm such as 0/1 knapsack.
type Pattern = dag.Pattern

// Sparse marks patterns that use only part of the matrix; inactive cells
// are treated as finished with the zero value.
type Sparse = dag.Sparse

// Stencil marks dense patterns whose dependencies are a few offsets per row
// (PATTERNS.md, "Custom patterns"): the engine then enumerates edges by
// arithmetic instead of calling the pattern per cell. CheckPattern checks
// the contract.
type Stencil = dag.Stencil

// Offset is one dependency of a Stencil: (i, j) depends on (i+DI, j+DJ).
type Offset = dag.Offset

// Codec serializes vertex values for cross-place transfer. Int32Codec,
// Int64Codec and Float64Codec cover the common scalar cases; any other
// value type defaults to gob encoding unless WithCodec supplies a custom
// implementation.
type Codec[T any] = codec.Codec[T]

// Built-in scalar codecs.
type (
	Int32Codec   = codec.Int32
	Int64Codec   = codec.Int64
	Float64Codec = codec.Float64
)

// Stats reports what one run did: computed cells, remote traffic, cache
// effectiveness, recoveries and recovery time.
type Stats = core.Stats

// MetricsSnapshot is one place's instrument readings — counters, gauges,
// histograms and per-key vectors — captured by WithMetrics. Place is the
// reporting place, or -1 for an aggregate built with MergeMetrics.
type MetricsSnapshot = metrics.Snapshot

// MergeMetrics folds per-place snapshots into one aggregate (Place -1):
// counters, histogram buckets and vector slots add.
func MergeMetrics(snaps []*MetricsSnapshot) *MetricsSnapshot {
	return metrics.MergeAll(snaps)
}

// ErrPlaceZeroDead is returned when place 0 fails; like Resilient X10,
// DPX10 cannot survive the death of place 0.
var ErrPlaceZeroDead = core.ErrPlaceZeroDead

// ErrCanceled is returned by Wait after Cancel. When the cancellation came
// from Submit's context, Wait instead returns an error wrapping the
// context's error.
var ErrCanceled = core.ErrCanceled

// PlaceDeadError reports the death of a specific place; unwrap it with
// errors.As to learn which. A PlaceDeadError for place 0 matches
// ErrPlaceZeroDead under errors.Is.
type PlaceDeadError = core.PlaceDeadError

// Event is one structured run event delivered to a WithEvents callback.
type Event = core.RunEvent

// EventKind classifies an Event.
type EventKind = core.EventKind

// Event kinds.
const (
	EventPlaceSuspected   = core.EventPlaceSuspected
	EventPlaceDead        = core.EventPlaceDead
	EventRecoveryStarted  = core.EventRecoveryStarted
	EventRecoveryFinished = core.EventRecoveryFinished
	EventChaosInject      = core.EventChaosInject
)

// App is the user-facing interface of a DPX10 application, mirroring the
// paper's DPX10App (Figure 2). Compute is executed once per active vertex,
// concurrently across places and worker threads, with the vertex's
// dependencies resolved and passed in deps, in the order the pattern's
// Dependencies lists them. deps is read-only and valid only during the
// call: the engine reuses it between calls on the same worker, so copy what
// must outlive the call, and do not write to it (the engine rewrites every
// entry before each call, so a write is lost, never seen by another cell).
// AppFinished is invoked once, after every vertex completed.
type App[T any] interface {
	Compute(i, j int32, deps []Cell[T]) T
	AppFinished(dag *Dag[T])
}

// Dag is the completed computation handed to AppFinished and returned by
// Run: read access to every vertex value plus run statistics (the paper's
// Dag argument, Figure 2/3).
type Dag[T any] struct {
	res     *core.Result[T]
	stats   Stats
	elapsed time.Duration
	msnaps  []*MetricsSnapshot
}

// Width returns the number of columns of the vertex matrix.
func (d *Dag[T]) Width() int32 { _, w := d.res.Bounds(); return w }

// Height returns the number of rows of the vertex matrix.
func (d *Dag[T]) Height() int32 { h, _ := d.res.Bounds(); return h }

// Result returns the computed value of vertex (i, j) — the paper's
// Vertex.getResult(). Inactive cells hold the zero value.
func (d *Dag[T]) Result(i, j int32) T { return d.res.Value(i, j) }

// Finished reports whether vertex (i, j) completed (always true after a
// successful run; exposed for symmetry with the paper's vertex flag).
func (d *Dag[T]) Finished(i, j int32) bool { return d.res.Finished(i, j) }

// Stats returns the run's counters.
func (d *Dag[T]) Stats() Stats { return d.stats }

// Elapsed returns the wall time of the run.
func (d *Dag[T]) Elapsed() time.Duration { return d.elapsed }

// Metrics returns the per-place instrument snapshots of the run, indexed
// by place; nil unless WithMetrics was set. Aggregate with MergeMetrics.
func (d *Dag[T]) Metrics() []*MetricsSnapshot { return d.msnaps }

// Cluster is a persistent set of places — transport stacks, shared worker
// pools, metrics registries, failure detector — that outlives any single
// computation. Submit runs jobs on it concurrently; each job gets its own
// distributed array, vertex cache and recovery state while sharing the
// places. Close tears the places down, canceling unfinished jobs.
//
// NewCluster accepts only cluster-scoped options (Places, Threads,
// transport, chaos, metrics, admission); job-scoped options go to Submit.
// A misplaced option is rejected with an *OptionScopeError.
type Cluster struct {
	m *core.JobManager
}

// NewCluster builds a persistent cluster from cluster-scoped options.
// The places start lazily with the first admitted job.
func NewCluster(opts ...UntypedOption) (*Cluster, error) {
	cfg := core.Config[any]{Common: core.Common{Places: 1}}
	if err := option.Apply(&cfg, option.ScopeCluster, "NewCluster", opts...); err != nil {
		return nil, err
	}
	m, err := core.NewJobManager(cfg.Common)
	if err != nil {
		return nil, err
	}
	return &Cluster{m: m}, nil
}

// JobState classifies a submitted job: queued behind the MaxActiveJobs
// admission bound, running, or finished.
type JobState = core.JobState

// Job states.
const (
	JobQueued   = core.JobQueued
	JobRunning  = core.JobRunning
	JobFinished = core.JobFinished
)

// JobInfo describes one submitted job: its cluster-unique ID and state.
type JobInfo = core.JobInfo

// Jobs lists every job submitted to the cluster, in submission order.
func (c *Cluster) Jobs() []JobInfo { return c.m.Jobs() }

// ActiveJobs reports how many jobs currently hold admission slots and how
// many are queued behind the MaxActiveJobs bound.
func (c *Cluster) ActiveJobs() (active, queued int) { return c.m.ActiveJobs() }

// Kill fails place p for every job on the cluster, triggering each job's
// recovery (or aborting everything if p is 0). Jobs submitted later
// recover from the death at launch.
func (c *Cluster) Kill(p int) { c.m.Kill(p) }

// KillUnannounced fails place p without reporting the failure; see
// Job.KillUnannounced.
func (c *Cluster) KillUnannounced(p int) { c.m.KillUnannounced(p) }

// Metrics returns per-place instrument snapshots covering every job run
// so far; nil unless WithMetrics was set. Per-job isolation lives in the
// job.* vector instruments, keyed by job ID.
func (c *Cluster) Metrics() []*MetricsSnapshot { return c.m.MetricsSnapshots() }

// Close cancels every unfinished job, waits them out and tears the places
// down. Idempotent.
func (c *Cluster) Close() error { return c.m.Close() }

// Submit starts app over pattern as a job on the cluster. The job queues
// if MaxActiveJobs are already running; cancellation of ctx aborts it
// whether queued or running. Submit accepts only job-scoped options
// (strategy, cache, tile size, codec, distribution, recovery, weight);
// cluster-scoped ones are rejected with an *OptionScopeError.
//
// Submit is a free function rather than a method because Go methods
// cannot introduce the value type parameter T; it reads as
// "Submit on c" all the same.
func Submit[T any](ctx context.Context, c *Cluster, app App[T], pattern Pattern, opts ...Option[T]) (*Job[T], error) {
	if c == nil || c.m == nil {
		return nil, fmt.Errorf("dpx10: nil cluster")
	}
	if app == nil {
		return nil, fmt.Errorf("dpx10: nil app")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dpx10: submit: %w", err)
	}
	cfg := core.Config[T]{
		Common:  *c.m.Common(),
		Compute: app.Compute,
	}
	cfg.Pattern = pattern
	if err := option.Apply(&cfg, option.ScopeJob, "Submit", opts...); err != nil {
		return nil, err
	}
	jr, err := core.SubmitJob(c.m, cfg)
	if err != nil {
		return nil, err
	}
	job := &Job[T]{app: app, ctx: ctx, jr: jr, mgr: c.m}
	go func() {
		select {
		case <-ctx.Done():
			jr.Cancel()
		case <-jr.Done():
		}
	}()
	return job, nil
}

// Run executes app over pattern to completion, invokes app.AppFinished,
// and returns the completed Dag. It is a one-shot wrapper: an ephemeral
// cluster is created for the run and closed when it finishes, so the
// option list may mix cluster- and job-scoped options freely.
func Run[T any](app App[T], pattern Pattern, opts ...Option[T]) (*Dag[T], error) {
	job, err := Launch[T](app, pattern, opts...)
	if err != nil {
		return nil, err
	}
	return job.Wait()
}

// Job is one running DPX10 computation — started one-shot by Launch or
// submitted to a persistent Cluster. It exposes the handles the paper's
// fault-tolerance experiments need: progress polling and failure
// injection.
type Job[T any] struct {
	app App[T]
	ctx context.Context
	jr  *core.JobRun[T]
	mgr *core.JobManager
	// owned is the ephemeral cluster behind a one-shot Launch, closed when
	// the job completes; nil for jobs submitted to a user-held Cluster.
	owned *Cluster
}

// Launch starts app over pattern asynchronously on an ephemeral
// single-use cluster. It is a thin wrapper over the session API: it splits
// the option list by scope, builds a cluster from the cluster-scoped
// options, submits one job with the job-scoped ones, and closes the cluster
// when the job completes. To cancel a run through a context, use NewCluster
// and Submit.
func Launch[T any](app App[T], pattern Pattern, opts ...Option[T]) (*Job[T], error) {
	clusterOpts, jobOpts := option.Split(opts)
	c, err := NewCluster(clusterOpts...)
	if err != nil {
		return nil, err
	}
	job, err := Submit[T](context.Background(), c, app, pattern, jobOpts...)
	if err != nil {
		c.Close()
		return nil, err
	}
	job.owned = c
	return job, nil
}

// ID returns the job's cluster-unique id — the value carried in the wire
// envelope and keying the per-job metrics vectors.
func (j *Job[T]) ID() uint32 { return j.jr.ID() }

// Kill fails place p, triggering the recovery mechanism (or aborting the
// run if p is 0). On a shared cluster the death hits every job.
func (j *Job[T]) Kill(p int) { j.mgr.Kill(p) }

// KillUnannounced fails place p without reporting the failure: the death
// is only discoverable through communication errors or the heartbeat
// failure detector (WithHeartbeat). Chaos and detector tests use it to
// measure the detection window.
func (j *Job[T]) KillUnannounced(p int) { j.mgr.KillUnannounced(p) }

// Cancel aborts the job; Wait will return ErrCanceled. A job canceled
// while queued never runs.
func (j *Job[T]) Cancel() { j.jr.Cancel() }

// Progress returns how many of this job's vertices have finished so far.
func (j *Job[T]) Progress() int64 { return j.jr.Progress() }

// Stats returns the job's counters so far; complete after Wait returned.
func (j *Job[T]) Stats() Stats { return j.jr.Stats() }

// Elapsed returns the job's execution wall time, excluding admission
// queue wait; final after Wait returned.
func (j *Job[T]) Elapsed() time.Duration { return j.jr.Elapsed() }

// QueueWait reports how long the job waited for an admission slot before
// running; zero when it was admitted immediately. Meaningful after the
// job started (and final after Wait).
func (j *Job[T]) QueueWait() time.Duration { return j.jr.QueueWait() }

// Metrics returns per-place instrument snapshots; nil unless WithMetrics
// was set. On a shared cluster the snapshots cover every job — this job's
// share sits in the job.* vector slots under its ID. Mid-run reads are
// consistent-enough; after Wait they are exact.
func (j *Job[T]) Metrics() []*MetricsSnapshot { return j.mgr.MetricsSnapshots() }

// closeOwned tears down the ephemeral cluster behind a one-shot job.
func (j *Job[T]) closeOwned() {
	if j.owned != nil {
		j.owned.Close()
	}
}

// Wait blocks until the run completes, invokes AppFinished and returns
// the Dag.
func (j *Job[T]) Wait() (*Dag[T], error) {
	if err := j.jr.Wait(); err != nil {
		j.closeOwned()
		if cerr := j.ctx.Err(); cerr != nil && errors.Is(err, ErrCanceled) {
			return nil, fmt.Errorf("dpx10: run aborted: %w", cerr)
		}
		return nil, err
	}
	res, err := j.jr.Result()
	if err != nil {
		j.closeOwned()
		return nil, err
	}
	d := &Dag[T]{
		res:     res,
		stats:   j.jr.Stats(),
		elapsed: j.jr.Elapsed(),
		msnaps:  j.mgr.MetricsSnapshots(),
	}
	j.closeOwned()
	j.app.AppFinished(d)
	return d, nil
}
