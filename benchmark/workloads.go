package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/metrics"
)

// pass is one way of running a workload's reps (untraced, metrics only,
// or fully traced). finish releases whatever the pass keeps open between
// reps and returns what can only be read at the end: the small-jobs
// workload's cluster-lifetime snapshot and close time.
type pass struct {
	rep    func(full bool) repResult
	finish func() repResult
}

// rung is one step of the cost ladder: the workload's own input run under
// a reduced or extended configuration.
type rung struct {
	metric string
	run    func() repResult
}

// workload is one row of the benchmark. Everything value-typed is hidden
// behind closures so the drivers in run.go stay non-generic.
type workload struct {
	name      string
	cells     int64 // active cells per rep (per batch for sw-smalljobs)
	genNs     int64
	open      func(o runOpts) (*pass, error)
	corrupted func() repResult // one rep with a deliberately wrong App (tests only)
	baseline  func() error     // hand-written solver on the rep's inputs
	strip     func() error     // native strip pipeline, nil unless SWLAG
	rungs     []rung
	probes    func(t traffic) (map[string]float64, error)
}

// sizes are the workload dimensions; quick shrinks them for the smoke test.
type sizes struct {
	localSide, pushSide, recoverSide, smallSide int
	kpItems                                     int
	kpCapacity                                  int32
	batchJobs, poolJobs                         int
}

var (
	fullSizes  = sizes{localSide: 1400, pushSide: 300, recoverSide: 1000, smallSide: 128, kpItems: 200, kpCapacity: 1000, batchJobs: 50, poolJobs: 64}
	quickSizes = sizes{localSide: 160, pushSide: 48, recoverSide: 120, smallSide: 32, kpItems: 24, kpCapacity: 120, batchJobs: 8, poolJobs: 4}
)

var workloadNames = []string{"swlag-local", "swlag-tcp-push", "kp-tcp-fetch", "swlag-recover", "sw-smalljobs"}

// newWorkload generates the named workload's inputs from seed. The engine
// only ever sees the generated inputs.
func newWorkload(name string, seed int64, sz sizes) (*workload, error) {
	t0 := nanos()
	var w *workload
	switch name {
	case "swlag-local":
		w = gridWorkload(swlagProblem(sz.localSide, seed),
			deploy{kind: deployLocal, places: 2, threads: 1, dist: dpx10.BlockRowDist, cache: 0})
	case "swlag-tcp-push":
		w = gridWorkload(swlagProblem(sz.pushSide, seed),
			deploy{kind: deployTCP, places: 2, threads: 1, dist: dpx10.CyclicRowDist, cache: 1024})
	case "kp-tcp-fetch":
		p, err := knapsackProblem(sz.kpItems, 200, 100, sz.kpCapacity, seed)
		if err != nil {
			return nil, err
		}
		w = gridWorkload(p, deploy{kind: deployTCP, places: 2, threads: 1, dist: dpx10.BlockColDist, cache: 256})
	case "swlag-recover":
		w = gridWorkload(swlagProblem(sz.recoverSide, seed),
			deploy{kind: deployRecover, places: 3, threads: 1, dist: dpx10.BlockRowDist, cache: 0, kill: 2})
	case "sw-smalljobs":
		w = smallJobsWorkload(seed, sz)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	w.name = name
	w.genNs = nanos() - t0
	return w, nil
}

func gridWorkload[T comparable](p *problem[T], d deploy) *workload {
	w := &workload{cells: p.cells}
	w.open = func(o runOpts) (*pass, error) {
		return &pass{
			rep:    func(full bool) repResult { return runOne(p, d, o, full, nil) },
			finish: func() repResult { return repResult{} },
		}, nil
	}
	w.corrupted = func() repResult {
		bad := p.probe[len(p.probe)-1]
		return runOne(p, d, runOpts{}, false, func(i, j int32, v T) T {
			if i == bad.I && j == bad.J {
				var zero T
				if v == zero {
					return p.want[p.probe[0].I][p.probe[0].J] // any value that differs
				}
				return zero
			}
			return v
		})
	}
	w.baseline = func() error { return p.baseline(d.places, d.threads) }
	if p.strip != nil {
		w.strip = func() error { return p.strip(d.places) }
	}
	w.rungs = ladder(p, d)
	w.probes = func(t traffic) (map[string]float64, error) { return layerProbes(p, d, t) }
	return w
}

// ladder builds ROADMAP item 1's rungs on the workload's own input. The
// fault workload climbs it fault-free: one place cannot lose a place.
func ladder[T comparable](p *problem[T], d deploy) []rung {
	base := d
	if base.kind == deployRecover {
		base.kind = deployLocal
	}
	one := base
	one.kind, one.places, one.threads = deployLocal, 1, 1
	tile1 := one
	tile1.tile = 1
	reliable := base
	reliable.kind, reliable.reliable = deployLocal, true
	direct := base
	direct.kind, direct.direct = deployTCP, true
	mk := func(metric string, d deploy) rung {
		return rung{metric: metric, run: func() repResult { return runOne(p, d, runOpts{}, false, nil) }}
	}
	return []rung{
		mk("core.ladder_1p1t_ns_per_cell", one),
		mk("core.ladder_1p1t_tile1_ns_per_cell", tile1),
		mk("core.ladder_reliable_ns_per_cell", reliable),
		mk("core.ladder_tcp_direct_ns_per_cell", direct),
	}
}

// smallJobsWorkload is the session-API workload: one persistent cluster,
// two closed-loop clients, batches of short jobs cycling through a pool
// of distinct seeded inputs.
func smallJobsWorkload(seed int64, sz sizes) *workload {
	const clients = 2
	// A cluster keeps every finished job's arrays until Close (about
	// 1.5 MB per SW-128 job: 3 GB after 2000 jobs), so the pass replaces
	// its cluster, outside the timed window, every recycleBatches batches.
	const recycleBatches = 8
	d := deploy{kind: deployLocal, places: 2, threads: 1, dist: dpx10.BlockRowDist}
	pool := make([]*problem[int32], sz.poolJobs)
	for k := range pool {
		pool[k] = swProblem(sz.smallSide, seed*1000+int64(k))
	}
	w := &workload{cells: pool[0].cells * int64(sz.batchJobs)}

	// jobOut is one job of a batch, from Submit to the verified Dag.
	type jobOut struct {
		p              *problem[int32]
		app            *appWrap[int32]
		job            *dpx10.Job[int32]
		dag            *dpx10.Dag[int32]
		err            error
		t0             int64
		ns, queue, set float64
	}
	batch := func(c *dpx10.Cluster, o runOpts, first int, full bool, corrupt func(i, j int32, v int32) int32) (r repResult) {
		outs := make([][]*jobOut, clients)
		_, jobOpts := localOptions(pool[0], d, o)
		submit := func(k int) *jobOut {
			p := pool[(first+k)%len(pool)]
			out := &jobOut{p: p, app: &appWrap[int32]{inner: p.app, tr: o.tr, corrupt: corrupt}, t0: nanos()}
			out.job, out.err = dpx10.Submit(context.Background(), c, out.app, wrapPattern(p.pat, o.tr), jobOpts...)
			return out
		}
		wait := func(out *jobOut) {
			if out.err == nil {
				out.dag, out.err = out.job.Wait()
				out.queue = float64(out.job.QueueWait())
			}
			out.ns = float64(nanos() - out.t0)
			if f := out.app.first.Load(); f != 0 {
				out.set = float64(f - out.t0)
			}
		}
		runtime.GC()
		r.m.start()
		var wg sync.WaitGroup
		if o.lockstep {
			// Rounds of one job per client: every Submit of a round returns
			// before any Wait of the round is called.
			for k := 0; k < sz.batchJobs; k += clients {
				for cl := 0; cl < clients && k+cl < sz.batchJobs; cl++ {
					out := submit(k + cl)
					outs[cl] = append(outs[cl], out)
					wg.Add(1)
					go func() {
						defer wg.Done()
						wait(out)
					}()
				}
				wg.Wait()
			}
		} else {
			for cl := 0; cl < clients; cl++ {
				wg.Add(1)
				go func(cl int) {
					defer wg.Done()
					for k := cl; k < sz.batchJobs; k += clients {
						out := submit(k)
						wait(out)
						outs[cl] = append(outs[cl], out)
					}
				}(cl)
			}
		}
		wg.Wait()
		r.m.stop()
		var setups []float64
		for _, co := range outs {
			for _, out := range co {
				r.jobs++
				r.jobNs = append(r.jobNs, out.ns)
				r.queueNs = append(r.queueNs, out.queue)
				setups = append(setups, out.set)
				if out.err != nil {
					r.fail(out.err)
					continue
				}
				addStats(&r.stats, out.dag.Stats())
				dagv := out.dag
				if err := out.p.check(full, func(i, j int32) (int32, error) { return dagv.Result(i, j), nil }); err != nil {
					r.fail(err)
				}
			}
		}
		r.cells = w.cells
		r.setupNs = int64(median(setups))
		return r
	}
	openCluster := func(o runOpts) (*dpx10.Cluster, int64, error) {
		clusterOpts, _ := localOptions(pool[0], d, o)
		t0 := nanos()
		c, err := dpx10.NewCluster(clusterOpts...)
		return c, nanos() - t0, err
	}
	w.open = func(o runOpts) (*pass, error) {
		c, buildNs, err := openCluster(o)
		if err != nil {
			return nil, err
		}
		var snap *metrics.Snapshot // registries of the clusters already closed
		var closeNs int64
		closeCluster := func() {
			if c == nil {
				return // a reopen failed; the failure is already counted
			}
			if o.metrics {
				if snap == nil {
					snap = &metrics.Snapshot{Place: -1}
				}
				snap.Merge(metrics.MergeAll(c.Metrics()))
			}
			t0 := nanos()
			c.Close()
			closeNs = nanos() - t0
		}
		batches := 0
		return &pass{
			rep: func(full bool) repResult {
				if batches > 0 && batches%recycleBatches == 0 {
					closeCluster()
					if c, buildNs, err = openCluster(o); err != nil {
						return repResult{cells: w.cells, jobs: sz.batchJobs, failures: sz.batchJobs, err: err}
					}
				}
				r := batch(c, o, batches*sz.batchJobs, full, nil)
				batches++
				// Build and close times ride on the next batch's result.
				r.buildNs, r.closeNs, buildNs, closeNs = buildNs, closeNs, 0, 0
				return r
			},
			finish: func() repResult {
				closeCluster()
				return repResult{snap: snap, closeNs: closeNs}
			},
		}, nil
	}
	w.corrupted = func() repResult {
		c, _, err := openCluster(runOpts{})
		if err != nil {
			return repResult{failures: 1, err: err}
		}
		defer c.Close()
		bad := pool[0].probe[len(pool[0].probe)-1]
		return batch(c, runOpts{}, 0, false, func(i, j int32, v int32) int32 {
			if i == bad.I && j == bad.J {
				return v + 1
			}
			return v
		})
	}
	w.baseline = func() error {
		for k := 0; k < sz.batchJobs; k++ {
			if err := pool[k%len(pool)].baseline(d.places, d.threads); err != nil {
				return err
			}
		}
		return nil
	}
	w.rungs = ladder(pool[0], d)
	w.probes = func(t traffic) (map[string]float64, error) { return layerProbes(pool[0], d, t) }
	return w
}
