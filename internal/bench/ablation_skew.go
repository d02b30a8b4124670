package bench

import (
	"fmt"
	"time"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/metrics"
)

// benchWave is the lifeline ablation's skewed workload: a sequential gate
// chain along row 0 (place 0 under block rows) whose last cell releases a
// fat wave of independent cells confined to the last place's band. While
// the chain runs every other place is idle; at release one place suddenly
// owns all remaining work — the exact shape random-victim stealing
// handles worst (idle-tail probe storm, then a single overloaded victim).
type benchWave struct {
	h, w int32
	hot  int32 // rows [hot, h) all depend on (0, w-1)
}

func (p benchWave) Bounds() (int32, int32) { return p.h, p.w }

func (p benchWave) Active(i, j int32) bool { return i == 0 || i >= p.hot }

func (p benchWave) Dependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	switch {
	case i == 0 && j > 0:
		return append(buf, dag.VertexID{I: 0, J: j - 1})
	case i >= p.hot:
		return append(buf, dag.VertexID{I: 0, J: p.w - 1})
	}
	return buf
}

func (p benchWave) AntiDependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if i != 0 {
		return buf
	}
	if j+1 < p.w {
		return append(buf, dag.VertexID{I: 0, J: j + 1})
	}
	for r := p.hot; r < p.h; r++ {
		for c := int32(0); c < p.w; c++ {
			buf = append(buf, dag.VertexID{I: r, J: c})
		}
	}
	return buf
}

// skewApp is the wave's compute: cell weights are sleeps, not CPU spins,
// so the run is a latency-driven simulation that measures protocol
// behaviour rather than host core count.
type skewApp struct{}

func (skewApp) Compute(i, j int32, deps []dpx10.Cell[int64]) int64 {
	v := int64(i)*31 + int64(j)*17
	for _, d := range deps {
		v += d.Value
	}
	if i == 0 {
		time.Sleep(400 * time.Microsecond)
	} else {
		time.Sleep(200 * time.Microsecond)
	}
	return v
}

func (skewApp) AppFinished(*dpx10.Dag[int64]) {}

// skewArmResult is one measured run of the skew ablation.
type skewArmResult struct {
	elapsed  time.Duration
	spread   float64 // max/mean per-place tiles executed, gate place excluded
	probes   int64   // sched.steals_attempted cluster-wide
	parks    int64
	pushes   int64
	migrated int64
}

// runSkewArm executes the skewed wave once at the given place count under
// strategy s and returns the balance/traffic profile.
func runSkewArm(pat benchWave, places int, s dpx10.Strategy) (skewArmResult, error) {
	run, err := dpx10.Run[int64](skewApp{}, pat,
		append(typed[int64](ExtraRunOptions),
			dpx10.Places(places),
			dpx10.Threads(2),
			dpx10.WithStrategy(s),
			dpx10.WithTileSize(1),
			dpx10.CacheSize(256),
			dpx10.WithCodec[int64](dpx10.Int64Codec{}),
			dpx10.WithMetrics(),
			// No heartbeats: every probe in the count is a steal.
			dpx10.WithHeartbeat(-1, 0))...)
	if err != nil {
		return skewArmResult{}, err
	}
	res := skewArmResult{elapsed: run.Elapsed()}
	snaps := run.Metrics()
	agg := metrics.MergeAll(snaps)
	res.probes = agg.Counters[metrics.SchedStealsAttempted]
	res.parks = agg.Counters[metrics.SchedLifelineParks]
	res.pushes = agg.Counters[metrics.SchedLifelinePushes]
	res.migrated = agg.Counters[metrics.SchedTilesMigrated]
	// Spread: max/mean per-place tiles executed, excluding place 0 — its
	// gate chain is a sequential critical path no balancer can spread.
	var max, sum int64
	n := 0
	for p, s := range snaps {
		if p == 0 {
			continue
		}
		v := s.Counters[metrics.SchedTilesExecuted]
		if v > max {
			max = v
		}
		sum += v
		n++
	}
	if sum > 0 {
		res.spread = float64(max) * float64(n) / float64(sum)
	}
	return res, nil
}

// AblationSkew is the lifeline load-balancing ablation on the real
// runtime: the same skewed last-wave DAG at 8 places under Local
// scheduling, the reference that shows the skew is there, and under Steal
// (probe twice, park on the lifeline buddies, victims push whole tiles
// with dependencies attached). Each arm takes the best of N runs — min
// spread, then min probes — so scheduler jitter does not mask the
// protocol's behaviour. scripts/bench_skew.sh gates the Steal row against
// fixed ceilings, the same way internal/core/skew_test.go does.
func AblationSkew(quick bool) (Report, error) {
	pat := benchWave{h: 32, w: 64, hot: 28}
	runs := 3
	if quick {
		pat = benchWave{h: 16, w: 32, hot: 14}
		runs = 2
	}
	const places = 8
	rep := Report{
		Title:  "Ablation — lifeline load balancing on a skewed last-wave DAG (real runtime, 8 places)",
		Header: []string{"arm", "time(s)", "spread", "probes", "parks", "pushes", "migrated"},
	}
	for _, arm := range []struct {
		name string
		s    dpx10.Strategy
	}{
		{"local (reference)", dpx10.LocalScheduling},
		{"steal (lifelines)", dpx10.StealScheduling},
	} {
		var best skewArmResult
		for r := 0; r < runs; r++ {
			res, err := runSkewArm(pat, places, arm.s)
			if err != nil {
				return rep, fmt.Errorf("skew ablation %v: %w", arm.s, err)
			}
			if r == 0 || res.spread < best.spread || (res.spread == best.spread && res.probes < best.probes) {
				best = res
			}
		}
		rep.Add(arm.name, fmt.Sprintf("%.3f", best.elapsed.Seconds()), f2(best.spread),
			d(best.probes), d(best.parks), d(best.pushes), d(best.migrated))
	}
	rep.Notes = append(rep.Notes,
		"spread = max/mean per-place tiles executed, gate-chain place excluded (1.0 = perfectly flat)",
		"probes = kindSteal calls cluster-wide; an idle place parks on its lifelines after 2 probes instead of retrying forever",
		"local never steals: its spread is the skew that load balancing has to remove",
		"cell weights are sleeps (latency simulation), so the profile is host-independent",
		"best of "+d(int64(runs))+" runs per arm (min spread, then min probes)")
	return rep, nil
}
