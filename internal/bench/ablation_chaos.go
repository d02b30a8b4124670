package bench

import (
	"fmt"
	"time"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/apps"
	"github.com/dpx10/dpx10/internal/simcluster"
	"github.com/dpx10/dpx10/internal/workload"
)

// chaosArm is one severity step of the real-runtime chaos ladder.
type chaosArm struct {
	name string
	plan func() *dpx10.ChaosPlan // nil plan = calm baseline
}

// AblationChaos measures what fault injection costs the hardened fabric.
// The first report runs SWLAG on the real runtime — on cyclic rows, so every
// tile's inputs and completions cross places and the plans have hundreds of
// messages to act on however much the engine batches — under a ladder of seeded
// chaos plans — drops, duplicates, delays, a transient partition — with the
// heartbeat detector and retry/backoff delivery absorbing the damage; every
// arm must still produce the exact serial result. Its simulated companion,
// chaosSimSweep (figure "chaos-sim"), extrapolates the same degradation to
// paper-scale grids no laptop run can cover.
func AblationChaos(quick bool) ([]Report, error) {
	side := 300
	if quick {
		side = 120
	}
	a := workload.Sequence(side, workload.DNA, 21)
	b := workload.Sequence(side, workload.DNA, 22)

	engine := Report{
		Title: "Ablation — chaos-hardened fabric (SWLAG, cyclic rows, real runtime, 4 places)",
		Header: []string{"arm", "time(s)", "normalized", "injected",
			"retries", "dedup", "recoveries"},
	}
	arms := []chaosArm{
		{"calm", nil},
		{"drop 5%", func() *dpx10.ChaosPlan {
			return &dpx10.ChaosPlan{Seed: 101, Drop: 0.05}
		}},
		{"drop 5% + dup 10%", func() *dpx10.ChaosPlan {
			return &dpx10.ChaosPlan{Seed: 102, Drop: 0.05, Dup: 0.10}
		}},
		{"drop+dup+delay", func() *dpx10.ChaosPlan {
			return &dpx10.ChaosPlan{Seed: 103, Drop: 0.05, Dup: 0.10,
				Delay: 0.20, DelayMin: 50 * time.Microsecond, DelayMax: time.Millisecond}
		}},
		{"transient partition", func() *dpx10.ChaosPlan {
			// Place 0 loses place 1 from the run's first message on: row 0's
			// decrements and the coordinator's heartbeats both cross that
			// link, so the window catches traffic however short the run is;
			// heartbeats keep missing until the link heals or the detector
			// declares the place.
			return &dpx10.ChaosPlan{Seed: 104, Drop: 0.02,
				Partitions: []dpx10.ChaosPartition{
					{From: 0, To: 1, Start: 0, End: 20 * time.Millisecond}}}
		}},
	}
	var base float64
	for _, arm := range arms {
		app := apps.NewSWLAG(a, b)
		opts := append(typed[apps.AffineCell](ExtraRunOptions),
			dpx10.Places(4),
			dpx10.WithDist(dpx10.CyclicRowDist),
			dpx10.WithCodec[apps.AffineCell](app.Codec()),
			dpx10.WithHeartbeat(2*time.Millisecond, 5),
		)
		var plan *dpx10.ChaosPlan
		if arm.plan != nil {
			plan = arm.plan()
			opts = append(opts, dpx10.WithChaos(plan),
				WithRetry(0, 200*time.Microsecond, 5*time.Millisecond))
		}
		dag, err := dpx10.Run[apps.AffineCell](app, app.Pattern(), opts...)
		if err != nil {
			return nil, fmt.Errorf("chaos ablation %s: %w", arm.name, err)
		}
		if err := app.Verify(dag); err != nil {
			return nil, fmt.Errorf("chaos ablation %s: %w", arm.name, err)
		}
		secs := dag.Elapsed().Seconds()
		if base == 0 {
			base = secs
		}
		var injected int64
		if plan != nil {
			injected = plan.Stats().Total()
		}
		s := dag.Stats()
		engine.Add(arm.name, f3(secs), f2(secs/base), d(injected),
			d(s.Retries), d(s.DedupHits), d(int64(s.Recoveries)))
	}
	engine.Notes = append(engine.Notes,
		"every arm verifies bit-exact against the serial reference — chaos costs time, never answers",
		"injected = messages dropped/duplicated/delayed/partitioned by the seeded plan",
		"retries/dedup = damage absorbed by sequence-numbered idempotent delivery")

	return []Report{engine}, nil
}

// chaosSimSweep runs the simulator's expectation model over drop
// probability at paper scale: each message's cost, dependency fetches
// included, scales by expected retransmissions 1/(1-p). At 300 M vertices a
// few thousand messages sit under tens of seconds of compute, so the link
// barely shows: the rows stay within about 1% of the fault-free one.
func chaosSimSweep(quick bool) (Report, error) {
	totalCells := int64(300) * million
	if quick {
		totalCells = 3 * million
	}
	spec := Specs()[0] // SWLAG
	const nodes = 8

	rep := Report{
		Title:  fmt.Sprintf("Extension — chaos cost model (SWLAG, %d M vertices, %d nodes, simulated)", totalCells/million, nodes),
		Header: []string{"drop", "delay(x lat)", "makespan(s)", "normalized", "msgs"},
	}
	sweep := []struct {
		drop  float64
		delay float64 // multiples of NetLatency
	}{
		{0, 0}, {0.05, 0}, {0.10, 0}, {0.25, 0}, {0.50, 0},
		{0.10, 5}, {0.10, 20},
	}
	var base float64
	for _, pt := range sweep {
		res, err := SimApp(spec, totalCells, nodes, func(m *simcluster.Model) {
			m.ChaosDropProb = pt.drop
			m.ChaosDelayMean = pt.delay * m.NetLatency
		})
		if err != nil {
			return rep, fmt.Errorf("drop=%g delay=%g: %w", pt.drop, pt.delay, err)
		}
		if base == 0 {
			base = res.Makespan
		}
		rep.Add(f2(pt.drop), f2(pt.delay), f3(res.Makespan),
			f2(res.Makespan/base), d(res.Messages))
	}
	rep.Notes = append(rep.Notes,
		"drop p is modeled in expectation: the cost of every message (fetch, decrement, steal, restore) scales by 1/(1-p) retransmissions",
		"delay is the mean injected latency per message, in multiples of the base link latency",
		"message counts are unchanged — chaos moves the clock, not the traffic",
		"compute dominates at this scale, so every row is within about 1% of the fault-free one; a row below it is a list-scheduling reordering (shifted ready times change which vertex a core takes next), not a cheaper link: with a core for every tile row the same sweep rises at every drop")
	return rep, nil
}
