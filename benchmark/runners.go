package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/core"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/metrics"
)

type deployKind int

const (
	deployLocal   deployKind = iota // NewCluster → Submit → Wait → Close on the in-process fabric
	deployTCP                       // one core.TCPNode per place over loopback, all in this process
	deployRecover                   // Launch, with place `kill` failed at exactly half the cells
)

// deploy fixes how a problem is run; the workloads and the ladder rungs
// differ only in these fields.
type deploy struct {
	kind            deployKind
	places, threads int
	dist            dpx10.DistKind
	cache           int
	tile            int  // 0 = engine default (auto)
	reliable        bool // WithReliableDelivery
	direct          bool // TCP only: NoPipeline + NoCompress
	kill            int  // deployRecover: the place to fail
}

// newDist mirrors dpx10.WithDist for the layers the benchmark drives
// directly (TCP node configs, distarray/dist/sched probes).
func newDist(kind dpx10.DistKind) func(h, w int32, n int) dist.Dist {
	switch kind {
	case dpx10.BlockColDist:
		return func(h, w int32, n int) dist.Dist { return dist.NewBlockCol(h, w, n) }
	case dpx10.CyclicRowDist:
		return func(h, w int32, n int) dist.Dist { return dist.NewCyclicRow(h, w, n) }
	case dpx10.CyclicColDist:
		return func(h, w int32, n int) dist.Dist { return dist.NewCyclicCol(h, w, n) }
	default:
		return func(h, w int32, n int) dist.Dist { return dist.NewBlockRow(h, w, n) }
	}
}

// runOpts selects the pass: untraced (zero value), metrics only, or fully
// traced (metrics on and all three call-out interfaces wrapped).
type runOpts struct {
	tr      *tracer
	metrics bool
	// lockstep makes sw-smalljobs' clients submit in rounds instead of
	// free-running. The engine registers a job before its per-place
	// engines exist, and Job.Wait on a WithMetrics cluster snapshots every
	// registered job; a Wait racing a Submit dereferences nil. Until the
	// engine closes that window, the traced run (whose ratios compare the
	// three passes with each other) keeps Submit and Wait apart on all of
	// them. The untraced end-to-end run has metrics off and free-runs.
	lockstep bool
}

// repResult is everything one rep measured. Times are nanoseconds on the
// benchmark's own clock.
type repResult struct {
	m        meter
	cells    int64
	setupNs  int64     // rep start → first Compute call
	jobNs    []float64 // Submit/Run → Wait return, one per job
	queueNs  []float64 // Job.QueueWait per job
	buildNs  int64     // NewCluster / StartTCPNode
	closeNs  int64     // Close
	stats    core.Stats
	snap     *metrics.Snapshot // merged over places; nil unless metrics on
	jobs     int
	failures int
	err      error // first failure
}

func (r *repResult) fail(err error) {
	r.failures++
	if r.err == nil {
		r.err = err
	}
}

func addStats(a *core.Stats, b core.Stats) {
	a.RecoveryNanos += b.RecoveryNanos
	a.Recoveries += b.Recoveries
	a.ComputedCells += b.ComputedCells
	a.RemoteFetches += b.RemoteFetches
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	a.TilesExecuted += b.TilesExecuted
	a.MsgsSent += b.MsgsSent
	a.BytesSent += b.BytesSent
	a.FetchCalls += b.FetchCalls
	a.AggBatches += b.AggBatches
	a.DecrsCoalesced += b.DecrsCoalesced
	a.ValuesPushed += b.ValuesPushed
	a.PushDeposits += b.PushDeposits
	a.PushConsumed += b.PushConsumed
	a.Retries += b.Retries
	a.DedupHits += b.DedupHits
}

// runOne executes p once under d, measured and verified. full selects
// whole-table verification (warm-up reps) over the probe sample.
func runOne[T comparable](p *problem[T], d deploy, o runOpts, full bool, corrupt func(i, j int32, v T) T) repResult {
	app := &appWrap[T]{inner: p.app, tr: o.tr, corrupt: corrupt}
	var r repResult
	switch d.kind {
	case deployTCP:
		r = runTCP(p, app, d, o, full)
	default:
		r = runLocal(p, app, d, o, full)
	}
	r.cells = p.cells
	r.jobs = 1
	return r
}

func localOptions[T comparable](p *problem[T], d deploy, o runOpts) (cluster []dpx10.UntypedOption, job []dpx10.Option[T]) {
	cluster = []dpx10.UntypedOption{dpx10.Places(d.places), dpx10.Threads(d.threads)}
	if o.metrics {
		cluster = append(cluster, dpx10.WithMetrics())
	}
	if d.reliable {
		cluster = append(cluster, dpx10.WithReliableDelivery())
	}
	job = []dpx10.Option[T]{
		dpx10.CacheSize(d.cache), dpx10.WithDist(d.dist),
		dpx10.WithCodec(wrapCodec(p.codec, o.tr)),
	}
	if d.tile > 0 {
		job = append(job, dpx10.WithTileSize(d.tile))
	}
	return cluster, job
}

func runLocal[T comparable](p *problem[T], app *appWrap[T], d deploy, o runOpts, full bool) (r repResult) {
	clusterOpts, jobOpts := localOptions(p, d, o)
	pat := wrapPattern(p.pat, o.tr)
	runtime.GC()
	r.m.start()
	t0 := nanos()

	var job *dpx10.Job[T]
	var c *dpx10.Cluster
	var err error
	if d.kind == deployRecover {
		// The paper's Fig 13 shape: a one-shot run whose options mix both
		// scopes, with the fault injected from outside.
		app.gate = newKillGate(p.cells / 2)
		opts := jobOpts
		for _, co := range clusterOpts {
			opts = append(opts, co)
		}
		job, err = dpx10.Launch[T](app, pat, opts...)
	} else {
		if c, err = dpx10.NewCluster(clusterOpts...); err == nil {
			r.buildNs = nanos() - t0
			job, err = dpx10.Submit(context.Background(), c, app, pat, jobOpts...)
		}
	}
	if err != nil {
		if c != nil {
			c.Close()
		}
		r.m.stop()
		r.fail(err)
		return r
	}
	t1 := nanos()

	killerDone := make(chan struct{})
	stopKiller := make(chan struct{})
	if app.gate != nil {
		go func() {
			defer close(killerDone)
			select {
			case <-app.gate.hit:
				job.Kill(d.kill)
				close(app.gate.resume)
			case <-stopKiller:
			}
		}()
	} else {
		close(killerDone)
	}
	dagv, err := job.Wait()
	t2 := nanos()
	close(stopKiller)
	<-killerDone
	if c != nil {
		c.Close()
		r.closeNs = nanos() - t2
	}
	r.m.stop()

	r.jobNs = []float64{float64(t2 - t1)}
	r.queueNs = []float64{float64(job.QueueWait())}
	if f := app.first.Load(); f != 0 {
		r.setupNs = f - t0
	}
	if err != nil {
		r.fail(err)
		return r
	}
	r.stats = dagv.Stats()
	if o.metrics {
		r.snap = dpx10.MergeMetrics(dagv.Metrics())
	}
	if err := p.check(full, func(i, j int32) (T, error) { return dagv.Result(i, j), nil }); err != nil {
		r.fail(err)
	}
	return r
}

func runTCP[T comparable](p *problem[T], app *appWrap[T], d deploy, o runOpts, full bool) (r repResult) {
	cfg := core.Config[T]{
		Common: core.Common{
			Places: d.places, Threads: d.threads,
			Pattern:   wrapPattern(p.pat, o.tr),
			NewDist:   newDist(d.dist),
			CacheSize: d.cache, TileSize: d.tile,
			Metrics:    o.metrics,
			NoPipeline: d.direct, NoCompress: d.direct,
		},
		Compute: app.Compute,
		Codec:   wrapCodec(p.codec, o.tr),
	}
	placeholder := make([]string, d.places)
	for k := range placeholder {
		placeholder[k] = "127.0.0.1:0"
	}
	runtime.GC()
	r.m.start()
	t0 := nanos()

	nodes := make([]*core.TCPNode[T], 0, d.places)
	closeAll := func() {
		for _, n := range nodes {
			n.Close()
		}
	}
	addrs := make([]string, d.places)
	for k := 0; k < d.places; k++ {
		n, err := core.StartTCPNode(cfg, k, placeholder)
		if err != nil {
			closeAll()
			r.m.stop()
			r.fail(err)
			return r
		}
		nodes = append(nodes, n)
		addrs[k] = n.Addr()
	}
	for _, n := range nodes {
		if err := n.SetAddrTable(addrs); err != nil {
			closeAll()
			r.m.stop()
			r.fail(err)
			return r
		}
	}
	t1 := nanos()
	r.buildNs = t1 - t0

	peerErrs := make([]error, d.places)
	var peers sync.WaitGroup
	for k := 1; k < d.places; k++ {
		peers.Add(1)
		go func(k int) {
			defer peers.Done()
			peerErrs[k] = nodes[k].Run()
		}(k)
	}
	err := nodes[0].Run()
	t2 := nanos()
	r.m.stop()
	r.jobNs = []float64{float64(t2 - t1)}
	r.queueNs = []float64{0}
	if f := app.first.Load(); f != 0 {
		r.setupNs = f - t0
	}

	// Result reads and counters need the nodes open, so they run with the
	// meter stopped; Close below is measured again.
	if err == nil {
		h, w := p.pat.Bounds()
		owners := cfg.NewDist(h, w, d.places)
		get := func(i, j int32) (T, error) { return nodes[0].Value(i, j) }
		if full {
			get = func(i, j int32) (T, error) { return nodes[owners.Place(i, j)].Value(i, j) }
		}
		if verr := p.check(full, get); verr != nil {
			r.fail(verr)
		}
		for _, n := range nodes {
			addStats(&r.stats, n.Stats())
		}
		if o.metrics {
			snaps, serr := nodes[0].MetricsSnapshots()
			if serr != nil {
				r.fail(serr)
			}
			r.snap = metrics.MergeAll(snaps)
		}
	}

	r.m.start()
	t3 := nanos()
	closeAll()
	peers.Wait()
	r.closeNs = nanos() - t3
	r.m.stop()
	if err = errors.Join(append(peerErrs, err)...); err != nil {
		r.fail(fmt.Errorf("tcp run: %w", err))
	}
	return r
}
