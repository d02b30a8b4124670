package bench

import (
	"fmt"
	"time"

	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/core"
	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/sched"
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

// skewArmResult is one measured run of the skew ablation.
type skewArmResult struct {
	elapsed  time.Duration
	spread   float64 // max/mean per-place tiles executed, gate place excluded
	probes   int64   // sched.steals_attempted cluster-wide
	parks    int64
	pushes   int64
	migrated int64
}

// runSkewArm executes the skewed wave once at the given place count and
// returns the balance/traffic profile. Cell weights are sleeps, not CPU
// spins, so the run is a latency-driven simulation that measures protocol
// behavior rather than host core count.
func runSkewArm(pat benchWave, places int, lifelines bool) (skewArmResult, error) {
	cfg := core.Config[int64]{
		Common: core.Common{
			Places:    places,
			Threads:   2,
			Pattern:   pat,
			Strategy:  sched.Steal,
			Lifelines: lifelines,
			TileSize:  1,
			CacheSize: 256,
			Metrics:   true,
			// No heartbeats: every probe in the count is a steal.
			ProbeInterval: -1,
		},
		Compute: func(i, j int32, deps []core.Cell[int64]) int64 {
			var v int64 = int64(i)*31 + int64(j)*17
			for _, d := range deps {
				v += d.Value
			}
			if i == 0 {
				time.Sleep(400 * time.Microsecond)
			} else {
				time.Sleep(200 * time.Microsecond)
			}
			return v
		},
		Codec: codec.Int64{},
	}
	cl, err := core.NewCluster(cfg)
	if err != nil {
		return skewArmResult{}, err
	}
	start := time.Now()
	if err := cl.Run(); err != nil {
		return skewArmResult{}, err
	}
	res := skewArmResult{elapsed: time.Since(start)}
	snaps := cl.MetricsSnapshots()
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
// runtime: the same skewed last-wave DAG at 8 places with lifelines off
// (plain bounded random-victim stealing) and on (probe w times, park on
// z lifeline buddies, victims push whole tiles with dependencies
// attached). Each arm takes the best of N runs — min probes, min spread —
// so scheduler jitter does not mask the protocol difference. The
// regression gate in scripts/bench_skew.sh holds this ablation to >= 2x
// spread improvement and >= 5x probe reduction, the same bounds
// internal/core/skew_test.go asserts.
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
	best := make(map[bool]skewArmResult)
	for _, lifelines := range []bool{false, true} {
		for r := 0; r < runs; r++ {
			res, err := runSkewArm(pat, places, lifelines)
			if err != nil {
				return rep, fmt.Errorf("skew ablation lifelines=%v: %w", lifelines, err)
			}
			b, ok := best[lifelines]
			if !ok || res.spread < b.spread || (res.spread == b.spread && res.probes < b.probes) {
				best[lifelines] = res
			}
		}
	}
	for _, arm := range []struct {
		name      string
		lifelines bool
	}{
		{"steal (random probes)", false},
		{"steal + lifelines", true},
	} {
		r := best[arm.lifelines]
		rep.Add(arm.name, fmt.Sprintf("%.3f", r.elapsed.Seconds()), f2(r.spread),
			d(r.probes), d(r.parks), d(r.pushes), d(r.migrated))
	}
	off, on := best[false], best[true]
	if on.spread > 0 && on.probes > 0 {
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("spread improvement %.2fx (off %.2f / on %.2f); probe reduction %.2fx (off %d / on %d)",
				off.spread/on.spread, off.spread, on.spread,
				float64(off.probes)/float64(on.probes), off.probes, on.probes))
	}
	rep.Notes = append(rep.Notes,
		"spread = max/mean per-place tiles executed, gate-chain place excluded (1.0 = perfectly flat)",
		"probes = kindSteal calls cluster-wide; lifelines park after w probes instead of retrying forever",
		"cell weights are sleeps (latency simulation), so the profile is host-independent",
		"best of "+d(int64(runs))+" runs per arm (min spread, then min probes)")
	return rep, nil
}
