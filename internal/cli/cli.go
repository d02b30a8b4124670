// Package cli implements the shared application dispatch of the
// dpx10-run and dpx10-worker commands: building a named DP application at
// a requested size, running it on the local (single-process) runtime or
// as one place of a TCP deployment, and summarizing the result.
package cli

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/apps"
	"github.com/dpx10/dpx10/internal/core"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/sched"
	"github.com/dpx10/dpx10/internal/trace"
	"github.com/dpx10/dpx10/internal/workload"
)

// Params selects and sizes a run.
type Params struct {
	App      string // one of AppNames()
	M, N     int    // sequence/grid dimensions
	Items    int    // knapsack items
	Capacity int    // knapsack capacity
	Seed     int64
	// FileA/FileB load real sequences (FASTA or plain text) for the
	// alignment apps instead of generating random ones; M/N are ignored
	// for a dimension whose file is set.
	FileA, FileB string

	Places        int
	Threads       int
	Jobs          int    // concurrent identical jobs on one cluster (default 1)
	Strategy      string // local | random | mincomm
	Dist          string // blockrow | blockcol | cyclicrow | cycliccol
	Cache         int
	TileSize      int // scheduling granularity in cells; 0 auto, 1 per-vertex
	RestoreRemote bool

	Verify bool
	Kill   int  // place to kill at ~50% progress; -1 disables
	Trace  bool // print per-place cells, busy time, utilization and fetch-wait after the run

	// Chaos arm: a seeded fault-injection plan over the place fabric, with
	// the heartbeat detector and retry/backoff delivery absorbing it. Drop,
	// Dup and Delay are per-message probabilities; zero values leave the
	// transport untouched.
	ChaosSeed  int64
	ChaosDrop  float64
	ChaosDup   float64
	ChaosDelay float64
	// HeartbeatMs > 0 runs the failure detector at that probe interval with
	// HeartbeatMiss consecutive misses declaring a place dead.
	HeartbeatMs   int
	HeartbeatMiss int

	// Observability: Metrics prints the per-place instrument snapshots
	// (plus the aggregate) after the run; MetricsJSON switches that dump
	// to JSON (and implies Metrics); MetricsAddr serves the live snapshots
	// in Prometheus text format at http://<addr>/metrics for the duration
	// of the run; TraceOut writes Chrome trace-event spans to the file.
	Metrics     bool
	MetricsJSON bool
	MetricsAddr string
	TraceOut    string

	// exchangeAddrs is the in-package test seam for worker mode: when set,
	// a worker binds whatever port its address names (":0" for any), hands
	// the address it actually bound to this function and adopts the table
	// it returns — so a test never has to guess a free port in advance.
	exchangeAddrs func(self int, bound string) []string
}

// chaotic reports whether any fault injection was requested.
func (p *Params) chaotic() bool {
	return p.ChaosDrop > 0 || p.ChaosDup > 0 || p.ChaosDelay > 0
}

// metricsOn reports whether any metrics output was requested; the -trace
// report is read from the registry too.
func (p *Params) metricsOn() bool {
	return p.Metrics || p.MetricsJSON || p.MetricsAddr != "" || p.Trace
}

// AppNames lists the runnable applications.
func AppNames() []string {
	names := make([]string, len(appTable))
	for i, a := range appTable {
		names[i] = a.name
	}
	return names
}

func (p *Params) normalize() error {
	if p.M <= 0 {
		p.M = 200
	}
	if p.N <= 0 {
		p.N = p.M
	}
	if p.Items <= 0 {
		p.Items = 50
	}
	if p.Capacity <= 0 {
		p.Capacity = 400
	}
	if p.Places <= 0 {
		p.Places = 4
	}
	if p.Jobs <= 0 {
		p.Jobs = 1
	}
	if p.Strategy == "" {
		p.Strategy = "local"
	}
	if p.Dist == "" {
		p.Dist = "blockrow"
	}
	if _, err := sched.ParseStrategy(p.Strategy); err != nil {
		return err
	}
	if dist.Named(p.Dist) == nil {
		return fmt.Errorf("cli: unknown dist %q", p.Dist)
	}
	return nil
}

// clusterOptions builds the cluster-scoped half of the configuration:
// places, threads, transport fault injection, failure detection, metrics.
func clusterOptions(p Params) []dpx10.UntypedOption {
	opts := []dpx10.UntypedOption{dpx10.Places(p.Places)}
	if p.Threads > 0 {
		opts = append(opts, dpx10.Threads(p.Threads))
	}
	if p.chaotic() {
		opts = append(opts, dpx10.WithChaos(&dpx10.ChaosPlan{
			Seed:     p.ChaosSeed,
			Drop:     p.ChaosDrop,
			Dup:      p.ChaosDup,
			Delay:    p.ChaosDelay,
			DelayMin: 50 * time.Microsecond,
			DelayMax: time.Millisecond,
		}))
	}
	if p.HeartbeatMs > 0 {
		miss := p.HeartbeatMiss
		if miss <= 0 {
			miss = 5
		}
		opts = append(opts, dpx10.WithHeartbeat(time.Duration(p.HeartbeatMs)*time.Millisecond, miss))
	}
	if p.metricsOn() {
		opts = append(opts, dpx10.WithMetrics())
	}
	return opts
}

// jobOptions builds the job-scoped half: scheduling, distribution, cache,
// tiling, restore manner.
func jobOptions[T any](p Params) []dpx10.Option[T] {
	st, _ := sched.ParseStrategy(p.Strategy)
	opts := []dpx10.Option[T]{
		dpx10.WithStrategy(st),
		dpx10.WithDist(dpx10.DistKind(p.Dist)),
		dpx10.CacheSize(p.Cache),
	}
	if p.TileSize > 0 {
		opts = append(opts, dpx10.WithTileSize(p.TileSize))
	}
	if p.RestoreRemote {
		opts = append(opts, dpx10.RestoreRemote())
	}
	return opts
}

// RunLocal executes the named app on the single-process runtime and
// prints a summary to w.
func RunLocal(p Params, w io.Writer) error {
	if err := p.normalize(); err != nil {
		return err
	}
	r, err := buildApp(p)
	if err != nil {
		return err
	}
	return r.local(p, w)
}

// RunWorker runs the named app as place self of a TCP deployment over
// addrs; place 0 coordinates and prints the summary.
func RunWorker(p Params, self int, addrs []string, w io.Writer) error {
	if err := p.normalize(); err != nil {
		return err
	}
	p.Places = len(addrs)
	r, err := buildApp(p)
	if err != nil {
		return err
	}
	return r.worker(p, self, addrs, w)
}

// appRun is one application built at a requested size: everything either
// run mode needs to drive, check and summarize it.
type appRun[T any] struct {
	app       dpx10.App[T]
	pattern   dpx10.Pattern
	codec     dpx10.Codec[T] // the app's own codec; nil lets the run pick one from T
	verify    func(*dpx10.Dag[T]) error
	summarize func(*dpx10.Dag[T]) string
	// answer is the cell worker mode reads the app's result from, with its
	// value in the app's serial reference.
	answer func() (i, j int32, want T)
}

// corner is the answer of a grid app: the last cell of its serial table.
func corner[T any](serial func() [][]T) func() (int32, int32, T) {
	return func() (int32, int32, T) {
		t := serial()
		i := len(t) - 1
		j := len(t[i]) - 1
		return int32(i), int32(j), t[i][j]
	}
}

// topRight is the answer of an interval app over n items: cell (0, n-1),
// which spans them all.
func topRight[T any](serial func() [][]T) func() (int32, int32, T) {
	return func() (int32, int32, T) {
		t := serial()
		j := len(t[0]) - 1
		return 0, int32(j), t[0][j]
	}
}

// runner is an appRun with its value type erased.
type runner interface {
	local(p Params, w io.Writer) error
	worker(p Params, self int, addrs []string, w io.Writer) error
}

func (r appRun[T]) local(p Params, w io.Writer) error {
	return drive(p, w, r)
}

func (r appRun[T]) worker(p Params, self int, addrs []string, w io.Writer) error {
	return driveWorker(p, self, addrs, w, r)
}

// buildApp builds the app p names at p's size.
func buildApp(p Params) (runner, error) {
	for _, a := range appTable {
		if a.name == p.App {
			return a.build(p)
		}
	}
	return nil, fmt.Errorf("cli: unknown app %q (have %v)", p.App, AppNames())
}

// appTable is every runnable application, by name.
var appTable = []struct {
	name  string
	build func(p Params) (runner, error)
}{
	{"lcs", func(p Params) (runner, error) {
		app := apps.NewLCS(seqs(p))
		return appRun[int32]{app, app.Pattern(), nil, app.Verify, func(d *dpx10.Dag[int32]) string {
			return fmt.Sprintf("LCS length = %d, subsequence = %q", app.Length(d), clip(app.Backtrack(d)))
		}, corner(app.Serial)}, nil
	}},
	{"sw", func(p Params) (runner, error) {
		app := apps.NewSW(seqs(p))
		return appRun[int32]{app, app.Pattern(), nil, app.Verify, func(d *dpx10.Dag[int32]) string {
			best, at := app.Best(d)
			a, b := app.Backtrack(d)
			return fmt.Sprintf("best local alignment score = %d at %v\n  %s\n  %s", best, at, clip(a), clip(b))
		}, corner(app.Serial)}, nil
	}},
	{"swlag", func(p Params) (runner, error) {
		app := apps.NewSWLAG(seqs(p))
		return appRun[apps.AffineCell]{app, app.Pattern(), app.Codec(), app.Verify, func(d *dpx10.Dag[apps.AffineCell]) string {
			return fmt.Sprintf("best affine-gap local alignment score = %d", app.Best(d))
		}, corner(app.Serial)}, nil
	}},
	{"editdist", func(p Params) (runner, error) {
		app := apps.NewEditDistance(seqs(p))
		return appRun[int32]{app, app.Pattern(), nil, app.Verify, func(d *dpx10.Dag[int32]) string {
			return fmt.Sprintf("edit distance = %d", app.Distance(d))
		}, corner(app.Serial)}, nil
	}},
	{"mtp", func(p Params) (runner, error) {
		app := apps.NewMTP(int32(p.M), int32(p.N), 100, p.Seed)
		return appRun[int64]{app, app.Pattern(), nil, app.Verify, func(d *dpx10.Dag[int64]) string {
			return fmt.Sprintf("heaviest monotone path weight = %d (%d steps)", app.Best(d), len(app.Path(d))-1)
		}, corner(app.Serial)}, nil
	}},
	{"lps", func(p Params) (runner, error) {
		app := apps.NewLPS(workload.Sequence(p.M, workload.DNA, p.Seed))
		return appRun[int32]{app, app.Pattern(), nil, app.Verify, func(d *dpx10.Dag[int32]) string {
			return fmt.Sprintf("longest palindromic subsequence length = %d: %q", app.Length(d), clip(app.Subsequence(d)))
		}, topRight(app.Serial)}, nil
	}},
	{"knapsack", func(p Params) (runner, error) {
		app := apps.NewRandomKnapsack(p.Items, 10, 100, int32(p.Capacity), p.Seed)
		pat, err := app.Pattern()
		if err != nil {
			return nil, err
		}
		return appRun[int64]{app, pat, nil, app.Verify, func(d *dpx10.Dag[int64]) string {
			return fmt.Sprintf("best knapsack value = %d using items %v", app.Best(d), app.Chosen(d))
		}, corner(app.Serial)}, nil
	}},
	{"nw", func(p Params) (runner, error) {
		app := apps.NewNW(seqs(p))
		return appRun[int32]{app, app.Pattern(), nil, app.Verify, func(d *dpx10.Dag[int32]) string {
			a, b := app.Backtrack(d)
			return fmt.Sprintf("global alignment score = %d\n  %s\n  %s", app.Score(d), clip(a), clip(b))
		}, corner(app.Serial)}, nil
	}},
	{"lcsubstr", func(p Params) (runner, error) {
		app := apps.NewLCSubstr(seqs(p))
		return appRun[int32]{app, app.Pattern(), nil, app.Verify, func(d *dpx10.Dag[int32]) string {
			sub, n := app.Longest(d)
			return fmt.Sprintf("longest common substring = %q (length %d)", clip(sub), n)
		}, corner(app.Serial)}, nil
	}},
	{"matrixchain", func(p Params) (runner, error) {
		app := apps.NewRandomMatrixChain(p.M, 60, p.Seed)
		return appRun[int64]{app, app.Pattern(), nil, app.Verify, func(d *dpx10.Dag[int64]) string {
			return fmt.Sprintf("optimal chain cost = %d: %s", app.Cost(d), clip(app.Parenthesization(d)))
		}, topRight(app.Serial)}, nil
	}},
	{"viterbi", func(p Params) (runner, error) {
		app := apps.NewRandomViterbi(p.N, 6, p.M, p.Seed)
		return appRun[float64]{app, app.Pattern(), nil, app.Verify, func(d *dpx10.Dag[float64]) string {
			path := app.Path(d)
			return fmt.Sprintf("most likely path log-probability = %.3f (%d steps)", app.Best(d), len(path))
		}, corner(app.Serial)}, nil
	}},
	{"floydwarshall", func(p Params) (runner, error) {
		app := apps.NewRandomFloydWarshall(int32(p.M), 4, 50, p.Seed)
		return appRun[int64]{app, app.Pattern(), nil, app.Verify, func(d *dpx10.Dag[int64]) string {
			dist01, ok := app.Dist(d, 0, app.N-1)
			if !ok {
				return fmt.Sprintf("all-pairs shortest paths over %d vertices; 0 -> %d unreachable", app.N, app.N-1)
			}
			return fmt.Sprintf("all-pairs shortest paths over %d vertices; dist(0, %d) = %d", app.N, app.N-1, dist01)
		}, func() (int32, int32, int64) {
			// dist(0, N-1): stage N's cell for the pair (0, N-1)
			return app.N, app.N - 1, app.Serial()[app.N-1]
		}}, nil
	}},
	{"obst", func(p Params) (runner, error) {
		app := apps.NewRandomOBST(p.M, 50, p.Seed)
		return appRun[int64]{app, app.Pattern(), nil, app.Verify, func(d *dpx10.Dag[int64]) string {
			root := -1
			for k, par := range app.Tree(d) {
				if par == -1 {
					root = k
				}
			}
			return fmt.Sprintf("optimal BST over %d keys: weighted cost %d, root key %d", app.N(), app.Cost(d), root)
		}, topRight(app.Serial)}, nil
	}},
	{"cyk", func(p Params) (runner, error) {
		app := apps.NewRandomCYK(12, 40, p.M, p.Seed)
		return appRun[uint64]{app, app.Pattern(), app.Codec(), app.Verify, func(d *dpx10.Dag[uint64]) string {
			return fmt.Sprintf("CYK over %d symbols: accepted=%v, %d derivable spans",
				len(app.Input), app.Accepts(d), app.Parseable(d))
		}, topRight(app.Serial)}, nil
	}},
}

func seqs(p Params) (string, string) {
	a := workload.Sequence(p.M, workload.DNA, p.Seed)
	b := workload.Sequence(p.N, workload.DNA, p.Seed+1)
	if p.FileA != "" {
		if _, s, err := workload.ReadFASTAFile(p.FileA); err == nil {
			a = s
		}
	}
	if p.FileB != "" {
		if _, s, err := workload.ReadFASTAFile(p.FileB); err == nil {
			b = s
		}
	}
	return a, b
}

func clip(s string) string {
	if len(s) > 60 {
		return s[:57] + "..."
	}
	return s
}

// drive submits p.Jobs identical copies of the app to one persistent
// cluster through the session API, optionally killing a place once the
// first job is half done, then verifies and summarizes them: one job with
// its full statistics, several with a line each. The Prometheus endpoint
// and the final metrics dump show the per-job vectors (job.tiles_executed,
// ...) keyed by job ID.
func drive[T any](p Params, w io.Writer, r appRun[T]) error {
	opts := append(jobOptions[T](p), dpx10.WithCodec[T](r.codec))
	var spans *dpx10.SpanLog
	if p.TraceOut != "" {
		spans = dpx10.NewSpanLog(0)
		opts = append(opts, dpx10.WithSpans(spans))
	}
	cluster, err := dpx10.NewCluster(append(clusterOptions(p), dpx10.MaxActiveJobs(-1))...)
	if err != nil {
		return err
	}
	defer cluster.Close()
	if p.MetricsAddr != "" {
		stop, err := ServeMetrics(p.MetricsAddr, cluster.Metrics, w)
		if err != nil {
			return err
		}
		defer stop()
	}
	if p.Jobs > 1 {
		fmt.Fprintf(w, "submitting %d concurrent jobs to a %d-place cluster\n", p.Jobs, p.Places)
	}
	t0 := time.Now()
	jobs := make([]*dpx10.Job[T], p.Jobs)
	for i := range jobs {
		if jobs[i], err = dpx10.Submit[T](context.Background(), cluster, r.app, r.pattern, opts...); err != nil {
			return err
		}
	}
	if p.Kill >= 0 {
		h, wd := r.pattern.Bounds()
		half := int64(h) * int64(wd) / 2
		go func() {
			for jobs[0].Progress() < half {
				time.Sleep(time.Millisecond)
			}
			fmt.Fprintf(w, "killing place %d at ~50%% progress...\n", p.Kill)
			cluster.Kill(p.Kill)
		}()
	}
	var first *dpx10.Dag[T]
	var elapsed time.Duration // the longest job's, the span -trace divides busy time by
	var totalTiles int64
	for _, job := range jobs {
		d, err := job.Wait()
		if err != nil {
			return fmt.Errorf("job %d: %w", job.ID(), err)
		}
		if p.Verify {
			if err := r.verify(d); err != nil {
				return fmt.Errorf("job %d verification FAILED: %w", job.ID(), err)
			}
		}
		if first == nil {
			first = d
		}
		elapsed = max(elapsed, d.Elapsed())
		s := d.Stats()
		totalTiles += s.TilesExecuted
		if p.Jobs > 1 {
			fmt.Fprintf(w, "job %d: elapsed %.3fs queueWait %.3fs cells=%d tiles=%d recoveries=%d\n",
				job.ID(), d.Elapsed().Seconds(), job.QueueWait().Seconds(),
				s.ComputedCells, s.TilesExecuted, s.Recoveries)
		}
	}
	if p.Verify {
		fmt.Fprintln(w, "verified against serial reference: OK")
	}
	fmt.Fprintln(w, r.summarize(first))
	if p.Jobs > 1 {
		fmt.Fprintf(w, "all %d jobs done in %.3fs (%d tiles total)\n", p.Jobs, time.Since(t0).Seconds(), totalTiles)
	} else {
		printStats(w, first.Stats(), elapsed)
	}
	snaps := cluster.Metrics()
	if p.Trace {
		threads := p.Threads
		if threads <= 0 {
			threads = 2
		}
		printUtilization(w, snaps, elapsed, threads)
	}
	if p.Metrics || p.MetricsJSON {
		if err := DumpMetrics(w, snaps, p.MetricsJSON); err != nil {
			return err
		}
	}
	if spans != nil {
		if err := WriteChromeTrace(p.TraceOut, spans, w); err != nil {
			return err
		}
	}
	return nil
}

func printStats(w io.Writer, s dpx10.Stats, elapsed time.Duration) {
	fmt.Fprintf(w, "elapsed %.3fs  places=%d epochs=%d recoveries=%d (%.1fms in recovery)\n",
		elapsed.Seconds(), s.Places, s.Epochs, s.Recoveries, float64(s.RecoveryNanos)/1e6)
	fmt.Fprintf(w, "cells=%d localReads=%d remoteFetches=%d cacheHits=%d migrated=%d msgs=%d bytes=%d\n",
		s.ComputedCells, s.LocalReads, s.RemoteFetches, s.CacheHits, s.ExecMigrated, s.MsgsSent, s.BytesSent)
	fmt.Fprintf(w, "tiles=%d layout: %s\n", s.TilesExecuted, s.TileLayout)
	if s.Retries > 0 || s.DedupHits > 0 {
		fmt.Fprintf(w, "reliable delivery: retries=%d dedupHits=%d\n", s.Retries, s.DedupHits)
	}
}

// driveWorker runs the app as one place of a TCP deployment.
func driveWorker[T any](p Params, self int, addrs []string, w io.Writer, r appRun[T]) error {

	// The cluster-formed announcement below arrives on the event sink's
	// goroutine, concurrent with this function's own progress prints;
	// serialize the writer so both paths may interleave safely.
	w = &syncWriter{w: w}
	st, _ := sched.ParseStrategy(p.Strategy)
	cfg := core.Config[T]{
		Common: core.Common{
			Places:        len(addrs),
			Threads:       p.Threads,
			Jobs:          p.Jobs,
			Pattern:       r.pattern,
			Strategy:      st,
			CacheSize:     p.Cache,
			TileSize:      p.TileSize,
			RestoreRemote: p.RestoreRemote,
			NewDist:       dist.Named(p.Dist),
			Metrics:       p.metricsOn(),
		},
		Compute: r.app.Compute,
		Codec:   r.codec,
	}
	var spans *trace.SpanLog
	if p.TraceOut != "" {
		spans = trace.NewSpanLog(0)
		cfg.Spans = spans
	}
	if self == 0 {
		// Announce the released startup barrier so harnesses (and humans
		// watching the log) know when the run actually began; the e2e crash
		// test keys its kill timing off this line.
		cfg.Events = func(ev core.RunEvent) {
			if ev.Kind == core.EventClusterFormed {
				fmt.Fprintf(w, "cluster formed: %d places computing\n", len(addrs))
			}
		}
	}
	node, err := core.StartTCPNode(cfg, self, addrs)
	if err != nil {
		return err
	}
	defer node.Close()
	if p.exchangeAddrs != nil {
		if err := node.SetAddrTable(p.exchangeAddrs(self, node.Addr())); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "place %d listening on %s\n", self, node.Addr())
	if p.MetricsAddr != "" {
		stop, err := ServeMetrics(p.MetricsAddr, func() []*metrics.Snapshot {
			snaps, _ := node.MetricsSnapshots()
			return snaps
		}, w)
		if err != nil {
			return err
		}
		defer stop()
	}
	if err := node.Run(); err != nil {
		return err
	}
	if p.Metrics || p.MetricsJSON {
		// Place 0 gathers peer snapshots over kindStats while the other
		// places are still serving (before the deferred Close); workers
		// print only their own snapshot.
		snaps, err := node.MetricsSnapshots()
		if err != nil {
			return err
		}
		if err := DumpMetrics(w, snaps, p.MetricsJSON); err != nil {
			return err
		}
	}
	if spans != nil {
		if err := WriteChromeTrace(p.TraceOut, spans, w); err != nil {
			return err
		}
	}
	s := node.Stats()
	fmt.Fprintf(w, "place %d done in %.3fs: computed=%d remoteFetches=%d msgs=%d\n",
		self, node.Elapsed().Seconds(), s.ComputedCells, s.RemoteFetches, s.MsgsSent)
	if p.Jobs > 1 {
		for jb := 0; jb < p.Jobs; jb++ {
			js := node.JobStats(jb)
			fmt.Fprintf(w, "place %d job %d: computed=%d tiles=%d recoveries=%d\n",
				self, jb, js.ComputedCells, js.TilesExecuted, js.Recoveries)
		}
	}
	if self == 0 {
		// Place 0 holds no Dag to verify: it checks each job's answer cell
		// against the serial reference instead.
		i, j, want := r.answer()
		for jb := 0; jb < p.Jobs; jb++ {
			v, err := node.JobValue(jb, i, j)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "job %d answer (%d,%d) = %v; recoveries=%d\n", jb, i, j, v, s.Recoveries)
			if any(v) != any(want) {
				return fmt.Errorf("job %d: answer (%d,%d) = %v, the serial reference has %v", jb, i, j, v, want)
			}
		}
	}
	return nil
}

// syncWriter makes an io.Writer safe for the driver's two print sources
// (the main flow and the event-sink goroutine). os.Stdout tolerates the
// concurrency anyway; the tests' bytes.Buffer does not.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(b)
}
