package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/sched"
)

// This file is the skew-regression harness for lifeline load balancing:
// deterministic DAG generators whose work lands almost entirely on one
// place, plus assertions that the Steal strategy's lifelines actually
// flatten the per-place execution profile and keep the idle tail quiet
// instead of probing while it waits.

// --- skewed pattern generators ----------------------------------------

// lastWave is the idle-tail scenario: a heavy sequential gate chain along
// row 0 (owned by place 0 under the default BlockRow distribution), whose
// final cell releases a fat wave of independent cells confined to rows
// [hot, h) — the last place's band. While the chain runs, every other
// place is idle; at release, one place suddenly owns all remaining work.
type lastWave struct {
	h, w int32
	hot  int32 // first wave row; rows [hot, h) all depend on (0, w-1)
}

func (p lastWave) Bounds() (int32, int32) { return p.h, p.w }

func (p lastWave) Active(i, j int32) bool { return i == 0 || i >= p.hot }

func (p lastWave) Dependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	switch {
	case i == 0 && j > 0:
		return append(buf, dag.VertexID{I: 0, J: j - 1})
	case i >= p.hot:
		return append(buf, dag.VertexID{I: 0, J: p.w - 1})
	}
	return buf
}

func (p lastWave) AntiDependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if i != 0 {
		return buf
	}
	if j+1 < p.w {
		return append(buf, dag.VertexID{I: 0, J: j + 1})
	}
	// The chain's last cell releases the whole wave.
	for r := p.hot; r < p.h; r++ {
		for c := int32(0); c < p.w; c++ {
			buf = append(buf, dag.VertexID{I: r, J: c})
		}
	}
	return buf
}

// raggedTri is a triangular workload: row i holds i+1 cells chained left
// to right. Every chain is ready at start, but under BlockRow the last
// place's band holds almost 2x the mean cell count and the first place's
// band almost none — persistent static imbalance rather than a burst.
type raggedTri struct{ n int32 }

func (p raggedTri) Bounds() (int32, int32) { return p.n, p.n }

func (p raggedTri) Active(i, j int32) bool { return j <= i }

func (p raggedTri) Dependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if j > 0 && j <= i {
		return append(buf, dag.VertexID{I: i, J: j - 1})
	}
	return buf
}

func (p raggedTri) AntiDependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if j+1 <= i {
		return append(buf, dag.VertexID{I: i, J: j + 1})
	}
	return buf
}

// hotCol is the single-hot-column scenario, run under BlockCol so a whole
// column belongs to one place: a gate chain down column 0 (place 0) whose
// last cell releases every cell of column w-1 (the last place).
type hotCol struct{ h, w int32 }

func (p hotCol) Bounds() (int32, int32) { return p.h, p.w }

func (p hotCol) Active(i, j int32) bool { return j == 0 || j == p.w-1 }

func (p hotCol) Dependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	switch {
	case j == 0 && i > 0:
		return append(buf, dag.VertexID{I: i - 1, J: 0})
	case j == p.w-1:
		return append(buf, dag.VertexID{I: p.h - 1, J: 0})
	}
	return buf
}

func (p hotCol) AntiDependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if j != 0 {
		return buf
	}
	if i+1 < p.h {
		return append(buf, dag.VertexID{I: i + 1, J: 0})
	}
	for r := int32(0); r < p.h; r++ {
		buf = append(buf, dag.VertexID{I: r, J: p.w - 1})
	}
	return buf
}

// --- weighted compute --------------------------------------------------

// skewCompute weights sumCompute per cell with sleeps rather than CPU
// spins: gate cells (selected by gate) sleep heavy so the idle tail is
// long, everything else sleeps light so migrated tiles carry measurable
// latency. Sleeping cells release the processor, so the harness behaves
// like a latency-driven simulation of a real cluster — idle places probe
// at full cadence and the pusher goroutine runs promptly — even on a
// single-CPU test machine where a spinning cell would starve them both.
func skewCompute(gate func(i, j int32) bool, heavy, light time.Duration) func(i, j int32, deps []Cell[int64]) int64 {
	return func(i, j int32, deps []Cell[int64]) int64 {
		v := sumCompute(i, j, deps)
		if gate(i, j) {
			time.Sleep(heavy)
		} else if light > 0 {
			time.Sleep(light)
		}
		return v
	}
}

// --- measurement helpers ----------------------------------------------

type skewRun struct {
	perPlace []int64 // sched.tiles_executed per place
	probes   int64   // sched.steals_attempted, cluster-wide
	random   int64   // sched.lifeline_probes (bounded random probes)
	parks    int64   // sched.lifeline_parks
	pushes   int64   // sched.lifeline_pushes
	elapsed  time.Duration
	stats    Stats
}

func runSkew(t *testing.T, cfg Config[int64]) skewRun {
	t.Helper()
	cfg.Metrics = true
	cfg.ProbeInterval = -1 // no heartbeats: probe counts are all steals
	start := time.Now()
	cl := runAndCheck(t, cfg)
	elapsed := time.Since(start)
	snaps := cl.MetricsSnapshots()
	agg := metrics.MergeAll(snaps)
	run := skewRun{
		probes:  agg.Counters[metrics.SchedStealsAttempted],
		random:  agg.Counters[metrics.SchedLifelineProbes],
		parks:   agg.Counters[metrics.SchedLifelineParks],
		pushes:  agg.Counters[metrics.SchedLifelinePushes],
		elapsed: elapsed,
		stats:   cl.Stats(),
	}
	for _, s := range snaps {
		run.perPlace = append(run.perPlace, s.Counters[metrics.SchedTilesExecuted])
	}
	return run
}

// spreadOf is the skew figure of merit: max over mean of per-place tiles
// executed. 1.0 is a perfectly flat profile; P means one place ran
// everything. skip >= 0 excludes that place — the gate-chain owner, whose
// tile count is a sequential critical path no balancer can spread, would
// otherwise dominate the max and hide how the releasable work moved.
func spreadOf(perPlace []int64, skip int) float64 {
	var max, sum int64
	n := 0
	for p, v := range perPlace {
		if p == skip {
			continue
		}
		if v > max {
			max = v
		}
		sum += v
		n++
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(n) / float64(sum)
}

// checkMigrationStats pins the cross-place migration ledger after a run:
// with lifelines on (the Steal strategy), every accepted push was counted
// by exactly one receiver; with them off the whole subsystem must stay
// silent.
func checkMigrationStats(t *testing.T, st Stats, lifelines bool) {
	t.Helper()
	if st.LifelinePushes != st.TilesMigrated {
		t.Errorf("LifelinePushes = %d, TilesMigrated = %d (must match)", st.LifelinePushes, st.TilesMigrated)
	}
	if st.MigratedRuns > st.TilesMigrated {
		t.Errorf("MigratedRuns = %d > TilesMigrated = %d", st.MigratedRuns, st.TilesMigrated)
	}
	if !lifelines && (st.LifelinePushes != 0 || st.TilesMigrated != 0 || st.MigratedRuns != 0) {
		t.Errorf("lifelines off but pushes/migrated/runs = %d/%d/%d",
			st.LifelinePushes, st.TilesMigrated, st.MigratedRuns)
	}
}

// --- tests -------------------------------------------------------------

// TestSkewPatternsWellFormed validates the generators themselves: the
// dependency and anti-dependency views must be exact mirrors and the
// graphs acyclic, for every size the harness uses.
func TestSkewPatternsWellFormed(t *testing.T) {
	pats := map[string]dag.Pattern{
		"lastWave/small": lastWave{h: 16, w: 24, hot: 12},
		"lastWave/bench": lastWave{h: 32, w: 64, hot: 28},
		"raggedTri":      raggedTri{n: 24},
		"hotCol/small":   hotCol{h: 24, w: 8},
		"hotCol/bench":   hotCol{h: 64, w: 8},
	}
	for name, p := range pats {
		if err := dag.Check(p); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestSkewCorrectnessWithLifelines runs every generator with lifelines on
// (Steal) and off (Local) across place counts: migration must never change
// results, and the push/migrate ledger must balance.
func TestSkewCorrectnessWithLifelines(t *testing.T) {
	cases := []struct {
		name string
		pat  dag.Pattern
		nd   func(h, w int32, n int) dist.Dist
	}{
		{"lastWave", lastWave{h: 16, w: 24, hot: 12}, nil},
		{"raggedTri", raggedTri{n: 24}, nil},
		{"hotCol", hotCol{h: 24, w: 8}, func(h, w int32, n int) dist.Dist { return dist.NewBlockCol(h, w, n) }},
	}
	for _, tc := range cases {
		for _, places := range []int{4, 8} {
			for _, lifelines := range []bool{false, true} {
				tc, places, lifelines := tc, places, lifelines
				t.Run(fmt.Sprintf("%s/p%d/lifelines=%v", tc.name, places, lifelines), func(t *testing.T) {
					cfg := baseConfig(tc.pat, places)
					if lifelines {
						cfg.Strategy = sched.Steal
					}
					cfg.TileSize = 3
					if tc.nd != nil {
						cfg.NewDist = tc.nd
					}
					cl := runAndCheck(t, cfg)
					checkMigrationStats(t, cl.Stats(), lifelines)
				})
			}
		}
	}
}

// TestSkewSpreadAndProbeRegression is the headline ablation, pinned as a
// test: on the last-wave scenario at 8 places, Steal's lifelines must (a)
// flatten the per-place execution spread under spreadCeiling and (b) keep
// steal-probe traffic under probeCeiling — parked places are woken by
// pushes, not by polling. Local scheduling runs the same scenario as the
// reference that shows the skew is there.
//
// The ceilings are the gains lifelines were held to against plain
// random-victim stealing, the policy Steal had before it: 2x its spread and
// 5x its probes, at that policy's best over twelve runs of this scenario
// (spread 4.475, 1 835 probes).
//
// Timing-sensitive by nature, so the bounds leave margins over the
// measured behaviour (see scripts/bench_skew.sh for the min-of-N gate on
// the same scenario) and Steal takes the best of two attempts.
func TestSkewSpreadAndProbeRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive skew ablation")
	}
	const (
		places        = 8
		gatePlace     = 0   // owns the sequential chain; excluded from spread
		spreadLimit   = 3.0 // Steal must stay under; Local must exceed
		spreadCeiling = 4.475 / 2.0
		probeCeiling  = 1835 / 5.0
	)
	pat := lastWave{h: 32, w: 64, hot: 28}
	compute := skewCompute(func(i, j int32) bool { return i == 0 }, 400*time.Microsecond, 300*time.Microsecond)

	run := func(s sched.Strategy) skewRun {
		cfg := baseConfig(pat, places)
		cfg.Compute = compute
		cfg.Strategy = s
		cfg.TileSize = 1
		cfg.CacheSize = 256
		return runSkew(t, cfg)
	}
	// Best of two for Steal: its lowest spread and its lowest probe count.
	a, b := run(sched.Steal), run(sched.Steal)
	on := a
	if spreadOf(b.perPlace, gatePlace) < spreadOf(on.perPlace, gatePlace) {
		on.perPlace = b.perPlace
	}
	if b.probes < on.probes {
		on.probes = b.probes
	}
	ref := run(sched.Local)

	spreadRef, spreadOn := spreadOf(ref.perPlace, gatePlace), spreadOf(on.perPlace, gatePlace)
	t.Logf("spread: local=%.2f steal=%.2f (per-place local=%v steal=%v)", spreadRef, spreadOn, ref.perPlace, on.perPlace)
	t.Logf("probes: steal=%d (random=%d) ; parks=%d pushes=%d migrated=%d runs=%d; elapsed local=%v steal=%v",
		on.probes, on.random, on.parks, on.pushes, on.stats.TilesMigrated, on.stats.MigratedRuns,
		ref.elapsed, on.elapsed)

	if spreadOn > spreadLimit {
		t.Errorf("steal spread = %.2f, want <= %.2f", spreadOn, spreadLimit)
	}
	if spreadRef <= spreadLimit {
		t.Errorf("local spread = %.2f, want > %.2f (scenario lost its skew)", spreadRef, spreadLimit)
	}
	if spreadOn > spreadCeiling {
		t.Errorf("steal spread = %.2f, want <= %.3f", spreadOn, spreadCeiling)
	}
	if float64(on.probes) > probeCeiling {
		t.Errorf("steal probes = %d, want <= %.0f", on.probes, probeCeiling)
	}

	checkMigrationStats(t, on.stats, true)
	checkMigrationStats(t, ref.stats, false)
	if on.stats.TilesMigrated == 0 {
		t.Errorf("lifelines on but no tiles migrated")
	}
}

// TestSkewBudgetRaggedAndHotCol asserts the budget half of the harness on
// the other two generators: with lifelines on, the per-place profile must
// stay under the spread budget. (The comparative gates live on lastWave —
// ragged's chains keep every place's deque nonempty, so even plain
// random-victim stealing balanced it; the regression there would be a weak
// signal.)
func TestSkewBudgetRaggedAndHotCol(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive skew ablation")
	}
	cases := []struct {
		name   string
		cfg    func() Config[int64]
		skip   int // gate-chain place excluded from the spread, -1 for none
		budget float64
	}{
		{
			name: "raggedTri",
			cfg: func() Config[int64] {
				cfg := baseConfig(raggedTri{n: 32}, 8)
				cfg.Compute = skewCompute(func(i, j int32) bool { return false }, 0, 100*time.Microsecond)
				return cfg
			},
			skip:   -1,
			budget: 3.0,
		},
		{
			name: "hotCol",
			cfg: func() Config[int64] {
				cfg := baseConfig(hotCol{h: 64, w: 8}, 8)
				cfg.Compute = skewCompute(func(i, j int32) bool { return j == 0 }, 300*time.Microsecond, 150*time.Microsecond)
				cfg.NewDist = func(h, w int32, n int) dist.Dist { return dist.NewBlockCol(h, w, n) }
				return cfg
			},
			skip:   0,
			budget: 3.5,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.Strategy = sched.Steal
			cfg.TileSize = 2
			cfg.CacheSize = 256
			run := runSkew(t, cfg)
			sp := spreadOf(run.perPlace, tc.skip)
			t.Logf("spread=%.2f per-place=%v probes=%d", sp, run.perPlace, run.probes)
			if sp > tc.budget {
				t.Errorf("lifelines-on spread = %.2f, want <= %.2f", sp, tc.budget)
			}
			checkMigrationStats(t, run.stats, true)
		})
	}
}
