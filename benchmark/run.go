package main

import (
	"fmt"
	"os"

	"github.com/dpx10/dpx10/internal/metrics"
)

// runCfg bounds one measured run.
type runCfg struct {
	seconds float64 // measurement budget on the wall clock
	reps    int     // > 0: exactly this many timed reps instead of the budget
	warmups int     // untimed, fully verified reps before measuring
	rungs   int     // reps per ladder rung (traced run)
	// probeDiv divides the direct probes' fixed operation counts; 1 for a
	// measurement, larger for the smoke test.
	probeDiv int
}

// minReps keeps quartiles meaningful when the budget is tiny.
const minReps = 5

// passStats collects what the reps of one pass measured.
type passStats struct {
	reps      []repResult // timed reps
	baseNs    []float64   // hand-written baseline wall, one per timed rep
	stripNs   []float64
	cold      *repResult // first warm-up rep of the process
	attempted int        // reps, or jobs for sw-smalljobs, warm-ups included
	failed    int
	err       error
	// Everything run on the pass, warm-ups included: the tracer and a
	// persistent cluster's registry cannot tell them apart.
	allCells int64
	allCPU   int64
	snap     *metrics.Snapshot
	tail     repResult // pass.finish()
}

func (ps *passStats) record(r *repResult) {
	ps.attempted += r.jobs
	ps.failed += r.failures
	if ps.err == nil {
		ps.err = r.err
	}
	ps.allCells += r.cells
	ps.allCPU += r.m.cpu
	ps.addSnap(r.snap)
}

// fail counts a failure that belongs to no rep (a baseline that errored).
func (ps *passStats) fail(err error) {
	ps.failed++
	if ps.err == nil {
		ps.err = err
	}
}

// warm runs the untimed, fully verified reps; the first is the process's
// cold sample.
func (ps *passStats) warm(p *pass, n int) {
	for k := 0; k < n; k++ {
		r := p.rep(true)
		ps.record(&r)
		if k == 0 {
			ps.cold = &r
		}
	}
}

// timeBaselines runs the hand-written solvers right after a timed rep.
func (ps *passStats) timeBaselines(w *workload, times int) {
	base, err := timeBaseline(w.baseline, times)
	ps.baseNs = append(ps.baseNs, base)
	if err == nil && w.strip != nil {
		var ns float64
		ns, err = timeBaseline(w.strip, times)
		ps.stripNs = append(ps.stripNs, ns)
	}
	if err != nil {
		ps.fail(err)
	}
}

func (ps *passStats) addSnap(s *metrics.Snapshot) {
	if s == nil {
		return
	}
	if ps.snap == nil {
		ps.snap = &metrics.Snapshot{Place: -1}
	}
	ps.snap.Merge(s)
}

func (ps *passStats) series(f func(r *repResult) float64) []float64 {
	out := make([]float64, len(ps.reps))
	for k := range ps.reps {
		out[k] = f(&ps.reps[k])
	}
	return out
}

func (ps *passStats) nsPerCell() []float64 {
	return ps.series(func(r *repResult) float64 { return float64(r.m.wall) / float64(r.cells) })
}

// timeBaseline runs fn `times` times and returns the mean wall time of
// one run; tiny baselines are repeated so the ratio's denominator is not
// a single sub-millisecond reading.
func timeBaseline(fn func() error, times int) (float64, error) {
	t0 := nanos()
	for k := 0; k < times; k++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return float64(nanos()-t0) / float64(times), nil
}

// baselineRepeats sizes timeBaseline so one reading covers about 20 ms.
func baselineRepeats(fn func() error) (int, error) {
	ns, err := timeBaseline(fn, 1)
	if err != nil {
		return 0, err
	}
	return min(max(int(20e6/max(ns, 1)), 1), 64), nil
}

// stopwatch is the budget of one measuring loop.
type stopwatch struct {
	start  int64
	budget float64 // seconds
	reps   int
}

func (s stopwatch) more(done int) bool {
	if s.reps > 0 {
		return done < s.reps
	}
	return done < minReps || float64(nanos()-s.start)/1e9 < s.budget
}

// runUntraced measures the end-to-end metrics: the App is wrapped (for the
// first-Compute timestamp), nothing else is.
func runUntraced(w *workload, cfg runCfg) (*passStats, error) {
	p, err := w.open(runOpts{})
	if err != nil {
		return nil, err
	}
	ps := &passStats{}
	ps.warm(p, cfg.warmups)
	sw := stopwatch{start: nanos(), budget: cfg.seconds, reps: cfg.reps}
	for sw.more(len(ps.reps)) {
		r := p.rep(false)
		ps.record(&r)
		ps.reps = append(ps.reps, r)
	}
	ps.tail = p.finish()
	ps.addSnap(ps.tail.snap)
	return ps, nil
}

// endToEndMetrics turns an untraced pass into the catalogue's end-to-end
// rows.
func endToEndMetrics(ps *passStats) map[string]dist3 {
	out := map[string]dist3{}
	put := func(name string, xs []float64) { out[name] = summarize(unitOf(endToEnd, name), xs) }
	put("ns_per_cell", ps.nsPerCell())
	put("cpu_ns_per_cell", ps.series(func(r *repResult) float64 { return float64(r.m.cpu) / float64(r.cells) }))
	put("setup_s", ps.series(func(r *repResult) float64 { return float64(r.setupNs) / 1e9 }))
	put("alloc_bytes_per_cell", ps.series(func(r *repResult) float64 { return float64(r.m.bytes) / float64(r.cells) }))
	put("bytes_per_cell", ps.series(func(r *repResult) float64 { return float64(r.stats.BytesSent) / float64(r.cells) }))
	jobMs := ps.jobMillis()
	out["job_ms_p50"] = single("ms", median(jobMs), len(jobMs))
	return out
}

// jobMillis flattens the Submit→Wait latencies of every job of the timed reps.
func (ps *passStats) jobMillis() []float64 {
	var out []float64
	for k := range ps.reps {
		for _, v := range ps.reps[k].jobNs {
			out = append(out, v/1e6)
		}
	}
	return out
}

// tracedRun is everything the per-layer metrics are computed from.
type tracedRun struct {
	plain, metered, traced *passStats
	tr                     *tracer
	ladder                 map[string]float64
	probes                 map[string]float64
}

// runTraced interleaves three passes — untraced, metrics only, fully
// traced — so their ratios compare like with like, then climbs the cost
// ladder and runs the direct layer probes.
func runTraced(w *workload, cfg runCfg) (*tracedRun, error) {
	tr := &tracer{}
	opts := []runOpts{{lockstep: true}, {lockstep: true, metrics: true}, {lockstep: true, metrics: true, tr: tr}}
	passes := make([]*pass, 0, len(opts))
	finishAll := func() {
		for _, p := range passes {
			p.finish()
		}
	}
	for _, o := range opts {
		p, err := w.open(o)
		if err != nil {
			finishAll()
			return nil, err
		}
		passes = append(passes, p)
	}
	stats := []*passStats{{}, {}, {}}
	run := &tracedRun{plain: stats[0], metered: stats[1], traced: stats[2], tr: tr}

	stats[0].warm(passes[0], cfg.warmups)
	baseReps, err := baselineRepeats(w.baseline)
	if err != nil {
		finishAll()
		return nil, err
	}
	// The ladder and the probes below take a few seconds of their own;
	// the interleaved passes get the larger share of the budget.
	sw := stopwatch{start: nanos(), budget: 0.7 * cfg.seconds, reps: cfg.reps}
	for sw.more(len(stats[2].reps)) {
		for k, p := range passes {
			r := p.rep(false)
			stats[k].record(&r)
			stats[k].reps = append(stats[k].reps, r)
			if k == 0 {
				stats[0].timeBaselines(w, baseReps)
			}
		}
	}
	for k, p := range passes {
		stats[k].tail = p.finish()
		stats[k].addSnap(stats[k].tail.snap)
	}

	run.ladder = map[string]float64{}
	for _, rg := range w.rungs {
		var ns []float64
		for k := 0; k < cfg.rungs; k++ {
			r := rg.run()
			stats[0].record(&r)
			ns = append(ns, float64(r.m.wall)/float64(r.cells))
		}
		run.ladder[rg.metric] = median(ns)
	}

	t := traffic{div: cfg.probeDiv}
	var sent, msgs int64
	for k := range stats[0].reps {
		sent += stats[0].reps[k].stats.BytesSent
		msgs += stats[0].reps[k].stats.MsgsSent
	}
	if msgs > 0 {
		t.msgBytes = int(sent / msgs)
	}
	if run.probes, err = w.probes(t); err != nil {
		return nil, err
	}
	return run, nil
}

func vecSum(s *metrics.Snapshot, name string) float64 {
	var n int64
	for _, v := range s.Vecs[name] {
		n += v
	}
	return float64(n)
}

// perLayerMetrics computes the catalogue's per-layer rows. Inapplicable
// rows (no cache, no fault, no compression on this workload) read 0.
func perLayerMetrics(w *workload, run *tracedRun) (map[string]float64, error) {
	out := map[string]float64{}
	for k, v := range run.probes {
		out[k] = v
	}
	for k, v := range run.ladder {
		out[k] = v
	}
	plain, traced := run.plain, run.traced
	cells := float64(traced.allCells)

	// Spans, and the attribution identity: what the process spent outside
	// the three call-out interfaces is the framework's own CPU time.
	var spanNs int64
	span := func(id spanID) (count, ns float64) {
		c, n := run.tr.total(id)
		spanNs += n
		return float64(c), float64(n)
	}
	_, computeNs := span(spanCompute)
	deps, depsNs := span(spanDeps)
	anti, antiNs := span(spanAntiDeps)
	span(spanActive)
	enc, _ := span(spanEncode)
	dec, _ := span(spanDecode)
	out["apps.compute_ns_per_cell"] = computeNs / cells
	out["dag.deps_ns_per_call"] = ratio(depsNs, deps)
	out["dag.deps_calls_per_cell"] = deps / cells
	out["dag.antideps_ns_per_call"] = ratio(antiNs, anti)
	out["dag.antideps_calls_per_cell"] = anti / cells
	out["codec.calls_per_cell"] = (enc + dec) / cells
	self := (float64(traced.allCPU) - float64(spanNs)) / cells
	out["core.self_cpu_ns_per_cell"] = self
	if self < 0 {
		return out, fmt.Errorf("attribution: spans (%d ns) exceed the traced pass's CPU time (%d ns)", spanNs, traced.allCPU)
	}

	// Registry snapshots of the traced pass (metrics on).
	s := traced.snap
	if s == nil {
		return out, fmt.Errorf("traced pass returned no metrics snapshot")
	}
	tiles := float64(s.Counters[metrics.SchedTilesExecuted])
	out["sched.tiles_per_kcell"] = 1000 * tiles / cells
	out["sched.deque_parks_per_ktile"] = 1000 * ratio(float64(s.Counters[metrics.SchedDequeParks]), tiles)
	hits, misses := vecSum(s, metrics.VCacheHits), vecSum(s, metrics.VCacheMisses)
	out["vcache.hit_ratio"] = ratio(hits, hits+misses)
	out["vcache.evictions_per_kcell"] = 1000 * vecSum(s, metrics.VCacheEvictions) / cells
	out["transport.wire_bytes_per_cell"] = float64(s.Hists[metrics.TransportBatchBytes].Sum) / cells
	frames := s.Hists[metrics.TransportBatchFrames]
	out["transport.frames_per_write"] = ratio(float64(frames.Sum), float64(frames.Count()))
	out["transport.compress_ratio"] = ratio(float64(s.Counters[metrics.TransportCompressRaw]), float64(s.Counters[metrics.TransportCompressWire]))
	out["transport.send_errors"] = float64(s.Counters[metrics.TransportSendErrors])
	tracedReps := float64(len(traced.reps))
	for _, ph := range []struct{ metric, hist string }{
		{"distarray.recovery_pause_s", metrics.RecoveryPauseNs},
		{"distarray.recovery_rebuild_s", metrics.RecoveryRebuildNs},
		{"distarray.recovery_restore_s", metrics.RecoveryRestoreNs},
		{"distarray.recovery_replay_s", metrics.RecoveryReplayNs},
		{"distarray.recovery_resume_s", metrics.RecoveryResumeNs},
	} {
		out[ph.metric] = float64(s.Hists[ph.hist].Sum) / 1e9 / tracedReps
	}

	// Stats and meters of the untraced reps: counts are per rep, so the
	// median over reps is a typical rep.
	perRep := func(f func(r *repResult) float64) float64 { return median(plain.series(f)) }
	perKCell := func(f func(r *repResult) int64) float64 {
		return perRep(func(r *repResult) float64 { return 1000 * float64(f(r)) / float64(r.cells) })
	}
	out["distarray.recomputed_cells"] = perRep(func(r *repResult) float64 { return float64(r.stats.ComputedCells - r.cells) })
	out["distarray.recovery_s"] = perRep(func(r *repResult) float64 { return float64(r.stats.RecoveryNanos) / 1e9 })
	out["vcache.push_use_ratio"] = perRep(func(r *repResult) float64 {
		return ratio(float64(r.stats.PushConsumed), float64(r.stats.PushDeposits))
	})
	out["core.allocs_per_cell"] = perRep(func(r *repResult) float64 { return float64(r.m.mallocs) / float64(r.cells) })
	out["core.msgs_per_kcell"] = perKCell(func(r *repResult) int64 { return r.stats.MsgsSent })
	out["core.fetch_calls_per_kcell"] = perKCell(func(r *repResult) int64 { return r.stats.FetchCalls })
	out["core.agg_batches_per_kcell"] = perKCell(func(r *repResult) int64 { return r.stats.AggBatches })
	out["core.decrs_per_batch"] = perRep(func(r *repResult) float64 {
		return ratio(float64(r.stats.DecrsCoalesced), float64(r.stats.AggBatches))
	})
	out["core.values_pushed_per_cell"] = perRep(func(r *repResult) float64 { return float64(r.stats.ValuesPushed) / float64(r.cells) })
	var retries, dedup int64
	var builds, closes, queues []float64
	all := append(append([]repResult(nil), plain.reps...), plain.tail)
	if plain.cold != nil {
		all = append(all, *plain.cold)
	}
	for k := range all {
		r := &all[k]
		retries += r.stats.Retries
		dedup += r.stats.DedupHits
		if r.buildNs > 0 {
			builds = append(builds, float64(r.buildNs)/1e6)
		}
		if r.closeNs > 0 {
			closes = append(closes, float64(r.closeNs)/1e6)
		}
		for _, q := range r.queueNs {
			queues = append(queues, q/1e6)
		}
	}
	out["core.retries"] = float64(retries)
	out["core.dedup_hits"] = float64(dedup)
	out["core.cluster_build_ms"] = median(builds)
	out["core.cluster_close_ms"] = median(closes)
	out["core.job_queue_wait_ms_p50"] = median(queues)
	out["core.job_ms_p99"] = nearestRank(plain.jobMillis(), 0.99)
	out["core.setup_cold_s"] = 0
	out["core.cold_ns_per_cell"] = 0
	if c := plain.cold; c != nil {
		out["core.setup_cold_s"] = float64(c.setupNs) / 1e9
		out["core.cold_ns_per_cell"] = float64(c.m.wall) / float64(c.cells)
	}

	over := make([]float64, len(plain.reps))
	for k := range plain.reps {
		over[k] = ratio(float64(plain.reps[k].m.wall), plain.baseNs[k])
	}
	out["native.overhead_ratio"] = median(over)
	out["bench.ns_per_cell_p75"] = quantile(plain.nsPerCell(), 0.75)
	base := median(plain.nsPerCell())
	out["metrics.overhead_ratio"] = ratio(median(run.metered.nsPerCell()), base)
	out["bench.trace_overhead_ratio"] = ratio(median(traced.nsPerCell()), base)
	out["native.vertex_ns_per_cell"] = median(plain.baseNs) / float64(w.cells)
	out["native.strip_ns_per_cell"] = median(plain.stripNs) / float64(w.cells)
	out["workload.gen_s"] = float64(w.genNs) / 1e9
	return out, nil
}

// writeTrace writes the span table, ladder and per-layer rows of one
// traced run to <dir>/trace-<workload>.json.
func writeTrace(dir string, w *workload, run *tracedRun, layers map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type spanRow struct {
		Name    string `json:"name"`
		Parent  string `json:"parent"`
		Count   int64  `json:"count"`
		TotalNs int64  `json:"total_ns"`
		SelfNs  int64  `json:"self_ns"`
	}
	root := spanRow{Name: "core.rep", Count: int64(run.traced.attempted), TotalNs: run.traced.allCPU, SelfNs: run.traced.allCPU}
	rows := []spanRow{root}
	for id := spanID(0); id < numSpans; id++ {
		c, ns := run.tr.total(id)
		rows = append(rows, spanRow{Name: spanNames[id], Parent: root.Name, Count: c, TotalNs: ns, SelfNs: ns})
		rows[0].SelfNs -= ns
	}
	doc := map[string]any{
		"workload":  w.name,
		"cells":     run.traced.allCells,
		"note":      "core.rep is process CPU time over every traced rep; its self time is the framework's own",
		"spans":     rows,
		"per_layer": layers,
	}
	return writeJSONFile(dir+"/trace-"+w.name+".json", doc)
}
