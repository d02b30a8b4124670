package bench

import (
	"fmt"
	"sync/atomic"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/apps"
	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/workload"
)

// AblationSched compares the scheduling strategies — the paper's three
// (§VI-C/§VI-E: local, random, min-communication) plus the work-stealing
// extension its future work points at — on two workloads: a balanced
// wavefront (SWLAG) and a structurally imbalanced DAG (matrix chain on
// the Triangle pattern, where early rows own most of the active cells
// under the row distribution). The paper ships three strategies, defaults
// to local, and warns that the smarter ones "introduce some extra
// overhead and should be used in appropriate scenarios".
func AblationSched(quick bool) (Report, error) {
	side := 400
	chain := 120
	if quick {
		side = 150
		chain = 48
	}
	a := workload.Sequence(side, workload.DNA, 7)
	b := workload.Sequence(side, workload.DNA, 8)
	rep := Report{
		Title:  "Ablation — scheduling strategy (real runtime, 6 places)",
		Header: []string{"workload", "strategy", "time(s)", "migrated", "stolen", "remoteFetches", "imbalance"},
	}
	strategies := []dpx10.Strategy{
		dpx10.LocalScheduling, dpx10.RandomScheduling,
		dpx10.MinCommScheduling, dpx10.StealScheduling,
	}
	for _, st := range strategies {
		app := apps.NewSWLAG(a, b)
		dag, err := dpx10.Run[apps.AffineCell](app, app.Pattern(),
			append(typed[apps.AffineCell](ExtraRunOptions),
				dpx10.Places(6),
				dpx10.WithCodec[apps.AffineCell](app.Codec()),
				dpx10.WithStrategy(st),
				dpx10.WithMetrics())...)
		if err != nil {
			return rep, fmt.Errorf("sched ablation swlag %v: %w", st, err)
		}
		if quick {
			if err := app.Verify(dag); err != nil {
				return rep, err
			}
		}
		s := dag.Stats()
		rep.Add("swlag (balanced)", st.String(), fmt.Sprintf("%.3f", dag.Elapsed().Seconds()),
			d(s.ExecMigrated), d(s.Stolen), d(s.RemoteFetches), f2(metrics.Imbalance(dag.Metrics())))
	}
	for _, st := range strategies {
		app := apps.NewRandomMatrixChain(chain, 50, 7)
		dag, err := dpx10.Run[int64](app, app.Pattern(),
			append(typed[int64](ExtraRunOptions),
				dpx10.Places(6),
				dpx10.WithStrategy(st),
				dpx10.WithMetrics())...)
		if err != nil {
			return rep, fmt.Errorf("sched ablation chain %v: %w", st, err)
		}
		if quick {
			if err := app.Verify(dag); err != nil {
				return rep, err
			}
		}
		s := dag.Stats()
		rep.Add("matrixchain (imbalanced)", st.String(), fmt.Sprintf("%.3f", dag.Elapsed().Seconds()),
			d(s.ExecMigrated), d(s.Stolen), d(s.RemoteFetches), f2(metrics.Imbalance(dag.Metrics())))
	}
	rep.Notes = append(rep.Notes,
		"imbalance = max/mean cells executed per place, from sched.cells_executed (1.00 = perfectly balanced)")
	rep.Notes = append(rep.Notes,
		"steal is this repository's extension (the paper cites work-stealing schedulers as future work)")
	return rep, nil
}

// AblationCache sweeps the per-place vertex cache capacity (§VI-E "Cache
// size ... to achieve maximum benefit") on a workload with reusable remote
// dependencies, showing hit rate and traffic reduction. The sweep runs with
// value push off: pushed values wait in the reading tile's box, not in the
// cache, and a place keeps every one of them, so with push on no capacity
// moves the cache. One push-on row at the largest capacity stands beside the
// sweep for comparison; its hits are the boxes'.
func AblationCache(quick bool) (Report, error) {
	h, w := int32(24), int32(96)
	if quick {
		h, w = 12, 48
	}
	// RowWave makes every cell need the whole previous row: remote values
	// are requested repeatedly, so the cache has real reuse to exploit.
	pattern := dpx10.RowWavePattern(h, w)
	rep := Report{
		Title:  "Ablation — cache capacity (RowWave, real runtime)",
		Header: []string{"cacheSize", "push", "remoteFetches", "cacheHits", "hitRate", "bytes", "time(s)"},
	}
	type arm struct {
		size int
		push bool
	}
	arms := []arm{{0, false}, {4, false}, {16, false}, {64, false}, {256, false}, {256, true}}
	for _, a := range arms {
		app := &sumApp{}
		opts := append(typed[int64](ExtraRunOptions),
			dpx10.Places(4),
			dpx10.WithDist(dpx10.BlockColDist),
			dpx10.CacheSize(a.size))
		push := "on"
		if !a.push {
			opts, push = append(opts, WithoutValuePush()), "off"
		}
		dag, err := dpx10.Run[int64](app, pattern, opts...)
		if err != nil {
			return rep, fmt.Errorf("cache ablation size=%d push %s: %w", a.size, push, err)
		}
		s := dag.Stats()
		hitRate := 0.0
		if s.CacheHits+s.CacheMisses > 0 {
			hitRate = float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
		}
		rep.Add(d(int64(a.size)), push, d(s.RemoteFetches), d(s.CacheHits),
			fmt.Sprintf("%.0f%%", 100*hitRate), d(s.BytesSent),
			fmt.Sprintf("%.3f", dag.Elapsed().Seconds()))
	}
	return rep, nil
}

// sumApp is a minimal deterministic app for harness workloads.
type sumApp struct{}

func (*sumApp) Compute(i, j int32, deps []dpx10.Cell[int64]) int64 {
	v := int64(i)*31 + int64(j)*17
	for _, d := range deps {
		v += d.Value
	}
	return v
}

func (*sumApp) AppFinished(*dpx10.Dag[int64]) {}

// AblationRecovery compares the paper's recovery-by-redistribution
// (default and restore-remote manners) against the periodic-snapshot
// baseline of X10's ResilientDistArray (§VI-D) on the real runtime with
// one injected fault at 50% progress.
func AblationRecovery(quick bool) (Report, error) {
	side := 220
	if quick {
		side = 120
	}
	a := workload.Sequence(side, workload.DNA, 3)
	b := workload.Sequence(side, workload.DNA, 4)
	totalCells := int64(side+1) * int64(side+1)

	rep := Report{
		Title:  "Ablation — recovery mechanism (SWLAG, one fault at 50%, real runtime)",
		Header: []string{"mechanism", "time(s)", "recovery(ms)", "recomputed", "snapshotBytes"},
	}
	type mode struct {
		name string
		opts func(store *dpx10.SnapshotStore[apps.AffineCell]) []dpx10.Option[apps.AffineCell]
	}
	modes := []mode{
		{"redistribute (paper)", func(*dpx10.SnapshotStore[apps.AffineCell]) []dpx10.Option[apps.AffineCell] {
			return nil
		}},
		{"redistribute+restore-remote", func(*dpx10.SnapshotStore[apps.AffineCell]) []dpx10.Option[apps.AffineCell] {
			return []dpx10.Option[apps.AffineCell]{dpx10.RestoreRemote()}
		}},
		{"periodic snapshot (X10 baseline)", func(store *dpx10.SnapshotStore[apps.AffineCell]) []dpx10.Option[apps.AffineCell] {
			return []dpx10.Option[apps.AffineCell]{dpx10.WithSnapshotRecovery[apps.AffineCell](store, totalCells/40)}
		}},
	}
	for _, m := range modes {
		store := dpx10.NewSnapshotStore[apps.AffineCell]()
		app := apps.NewSWLAG(a, b)

		gate := make(chan struct{})
		resume := make(chan struct{})
		var count atomic.Int64
		half := totalCells / 2
		gated := &gatedSWLAG{inner: app, gate: gate, resume: resume, count: &count, at: half}

		opts := append([]dpx10.Option[apps.AffineCell]{
			dpx10.Places(6),
			dpx10.WithCodec[apps.AffineCell](app.Codec()),
		}, m.opts(store)...)
		opts = append(opts, typed[apps.AffineCell](ExtraRunOptions)...)
		job, err := dpx10.Launch[apps.AffineCell](gated, app.Pattern(), opts...)
		if err != nil {
			return rep, fmt.Errorf("recovery ablation %s: %w", m.name, err)
		}
		<-gate
		job.Kill(4)
		close(resume)
		dag, err := job.Wait()
		if err != nil {
			return rep, fmt.Errorf("recovery ablation %s: %w", m.name, err)
		}
		if quick {
			if err := app.Verify(dag); err != nil {
				return rep, fmt.Errorf("recovery ablation %s: %w", m.name, err)
			}
		}
		s := dag.Stats()
		_, snapBytes := store.Stats()
		rep.Add(m.name, fmt.Sprintf("%.3f", dag.Elapsed().Seconds()),
			fmt.Sprintf("%.1f", float64(s.RecoveryNanos)/1e6),
			d(s.ComputedCells-totalCells), d(snapBytes))
	}
	rep.Notes = append(rep.Notes,
		"recomputed = compute() calls beyond the cell count (work redone after the fault)",
		"the snapshot baseline pays snapshotBytes of stable-storage traffic even on fault-free runs")
	return rep, nil
}

// gatedSWLAG wraps the SWLAG app with a fault-injection gate.
type gatedSWLAG struct {
	inner  *apps.SWLAG
	gate   chan struct{}
	resume chan struct{}
	count  *atomic.Int64
	at     int64
}

func (g *gatedSWLAG) Compute(i, j int32, deps []dpx10.Cell[apps.AffineCell]) apps.AffineCell {
	n := g.count.Add(1)
	if n == g.at {
		close(g.gate)
	}
	if n >= g.at {
		<-g.resume
	}
	return g.inner.Compute(i, j, deps)
}

func (g *gatedSWLAG) AppFinished(dag *dpx10.Dag[apps.AffineCell]) { g.inner.AppFinished(dag) }
