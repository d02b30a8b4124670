package core

import (
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/sched"
	"github.com/dpx10/dpx10/internal/transport"
)

// chaosProfile is one arm of the soak matrix. make builds a fresh seeded
// plan per run — FaultPlan carries runtime state and must not be shared
// across runs.
type chaosProfile struct {
	name string
	make func(seed int64) *transport.FaultPlan
}

// linkWindow partitions both directions of the 1↔2 link for a bounded
// window, then heals. Place 0 stays reachable so recovery can always
// proceed.
func linkWindow() []transport.Partition {
	return []transport.Partition{
		{From: 1, To: 2, Start: 5 * time.Millisecond, End: 30 * time.Millisecond},
		{From: 2, To: 1, Start: 10 * time.Millisecond, End: 35 * time.Millisecond},
	}
}

func chaosProfiles() []chaosProfile {
	return []chaosProfile{
		{"drop", func(s int64) *transport.FaultPlan {
			return &transport.FaultPlan{Seed: s, Drop: 0.05}
		}},
		{"dup", func(s int64) *transport.FaultPlan {
			return &transport.FaultPlan{Seed: s, Dup: 0.10}
		}},
		{"delay", func(s int64) *transport.FaultPlan {
			return &transport.FaultPlan{Seed: s, Delay: 0.20, DelayMin: 100 * time.Microsecond, DelayMax: 2 * time.Millisecond}
		}},
		{"drop+dup", func(s int64) *transport.FaultPlan {
			return &transport.FaultPlan{Seed: s, Drop: 0.05, Dup: 0.05}
		}},
		{"partition", func(s int64) *transport.FaultPlan {
			return &transport.FaultPlan{Seed: s, Partitions: linkWindow()}
		}},
		{"mixed", func(s int64) *transport.FaultPlan {
			return &transport.FaultPlan{
				Seed: s, Drop: 0.03, Dup: 0.03,
				Delay: 0.10, DelayMin: 100 * time.Microsecond, DelayMax: time.Millisecond,
				Partitions: linkWindow(),
			}
		}},
	}
}

// soakSeeds returns how many seeds each profile runs: 5 by default
// (6 profiles × 5 seeds no-kill + 6 × 4 kill seeds = 54 runs), 1 in short
// mode, or DPX10_SOAK_RUNS seeds per profile when set.
func soakSeeds(t *testing.T) int {
	if v := os.Getenv("DPX10_SOAK_RUNS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad DPX10_SOAK_RUNS %q", v)
		}
		return n
	}
	if testing.Short() {
		return 1
	}
	return 5
}

// soakRun executes one chaos arm and verifies every cell against the
// fault-free Kahn reference. killPlace < 0 runs without an injected crash
// (the chaos plan still fires). steal runs the arm under the Steal
// strategy's lifeline load balancing, so registrations, deliveries and
// steal-done results all cross the lossy links too.
func soakRun(t *testing.T, pat dag.Pattern, plan *transport.FaultPlan, killPlace int, steal bool) {
	t.Helper()
	const places = 3
	var (
		cfg     Config[int64]
		gate    chan struct{}
		release func()
	)
	if killPlace >= 0 {
		cfg, gate, release = gatedConfig(pat, places, 60)
	} else {
		cfg = baseConfig(pat, places)
	}
	if steal {
		cfg.Strategy = sched.Steal
		cfg.TileSize = 2
	}
	cfg.Chaos = plan
	cfg.ProbeInterval = 2 * time.Millisecond
	// Injected drops also eat heartbeats; a higher threshold keeps false
	// positives rare (they would still be safe, just slower).
	cfg.SuspicionThreshold = 5
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cl.Run() }()
	if killPlace >= 0 {
		<-gate
		cl.Kill(killPlace)
		release()
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("soak run did not terminate")
	}
	if killPlace >= 0 {
		if st := cl.Stats(); st.Recoveries < 1 {
			t.Fatal("kill arm recorded no recovery")
		}
	}
	checkResult(t, cl, pat)
}

// TestChaosSoak is the acceptance soak: seeded chaos profiles, with and
// without mid-run place kills, every run verified cell-for-cell against
// the fault-free native baseline. The full matrix (go test without -short)
// is 54 runs; -short keeps one seed per profile for CI's quick tier.
func TestChaosSoak(t *testing.T) {
	seeds := soakSeeds(t)
	pat := patterns.NewDiagonal(20, 16)
	for _, prof := range chaosProfiles() {
		for s := 0; s < seeds; s++ {
			seed := int64(1000*s + 17)
			t.Run(fmt.Sprintf("%s/seed%d", prof.name, seed), func(t *testing.T) {
				t.Parallel()
				soakRun(t, pat, prof.make(seed), -1, false)
			})
		}
		kills := seeds - 1
		if testing.Short() {
			kills = 1 // keep one kill arm per profile even in short mode
		}
		for s := 0; s < kills; s++ {
			seed := int64(1000*s + 29)
			kill := 1 + s%2 // alternate the killed place
			t.Run(fmt.Sprintf("%s/kill%d/seed%d", prof.name, kill, seed), func(t *testing.T) {
				t.Parallel()
				soakRun(t, pat, prof.make(seed), kill, false)
			})
		}
	}
}

// soakRunMultiJob executes one chaos arm with two concurrent jobs on a
// shared manager-owned set of places, so both jobs' enveloped traffic
// interleaves on every lossy link. killPlace >= 0 crashes that place
// once both jobs have unfinished work in flight; every cell of both
// jobs is verified against the fault-free Kahn reference.
func soakRunMultiJob(t *testing.T, pat dag.Pattern, plan *transport.FaultPlan, killPlace int) {
	t.Helper()
	m, err := NewJobManager(Common{
		Places: 3, Threads: 2,
		Chaos:         plan,
		ProbeInterval: 2 * time.Millisecond,
		// As in soakRun: injected drops also eat heartbeats.
		SuspicionThreshold: 5,
		MaxActiveJobs:      -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	cfg1, cfg2 := jobConfig(pat, sched.Local), jobConfig(pat, sched.Local)
	var gate, resume chan struct{}
	if killPlace >= 0 {
		// Both jobs funnel through one gated compute counter, so the
		// kill lands while each still holds unfinished vertices.
		gate, resume = make(chan struct{}), make(chan struct{})
		var count atomic.Int64
		var gateOnce atomic.Bool
		gated := func(i, j int32, deps []Cell[int64]) int64 {
			n := count.Add(1)
			if n == 40 && !gateOnce.Swap(true) {
				close(gate)
			}
			if n >= 40 {
				<-resume
			}
			return sumCompute(i, j, deps)
		}
		cfg1.Compute = gated
		cfg2.Compute = gated
	}
	j1, err := SubmitJob(m, cfg1)
	if err != nil {
		t.Fatalf("SubmitJob 1: %v", err)
	}
	j2, err := SubmitJob(m, cfg2)
	if err != nil {
		t.Fatalf("SubmitJob 2: %v", err)
	}
	if killPlace >= 0 {
		<-gate
		m.Kill(killPlace)
		close(resume)
	}
	done := make(chan error, 2)
	go func() { done <- j1.Wait() }()
	go func() { done <- j2.Wait() }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("job: %v", err)
			}
		case <-time.After(2 * time.Minute):
			t.Fatal("multi-job soak run did not terminate")
		}
	}
	checkJobResult(t, j1, pat)
	checkJobResult(t, j2, pat)
	if killPlace >= 0 {
		if j1.Stats().Recoveries < 1 || j2.Stats().Recoveries < 1 {
			t.Fatal("kill arm recorded no recovery on one of the jobs")
		}
	}
}

// lifelineChaosProfiles target the lifeline protocol specifically: drops
// eat registrations and deliveries (the reliable layer must retry or the
// parked place must re-register), and the partition window severs the
// 1↔2 lifeline edge while pushes are in flight.
func lifelineChaosProfiles() []chaosProfile {
	return []chaosProfile{
		{"lifeline-drop", func(s int64) *transport.FaultPlan {
			return &transport.FaultPlan{Seed: s, Drop: 0.05}
		}},
		{"lifeline-partition", func(s int64) *transport.FaultPlan {
			return &transport.FaultPlan{Seed: s, Partitions: linkWindow()}
		}},
		{"lifeline-mixed", func(s int64) *transport.FaultPlan {
			return &transport.FaultPlan{
				Seed: s, Drop: 0.03, Dup: 0.05,
				Delay: 0.10, DelayMin: 100 * time.Microsecond, DelayMax: time.Millisecond,
				Partitions: linkWindow(),
			}
		}},
	}
}

// TestChaosSoakLifelines is the soak's Steal arm: it soaks the lifeline
// protocol under seeded chaos:
// a skewed last-wave DAG (so parks, pushes and steal-done results really
// flow) over lossy links, with and without a mid-run kill of a thief
// place, every run verified cell-for-cell.
func TestChaosSoakLifelines(t *testing.T) {
	seeds := soakSeeds(t)
	pat := lastWave{h: 12, w: 24, hot: 10}
	for _, prof := range lifelineChaosProfiles() {
		for s := 0; s < seeds; s++ {
			seed := int64(1000*s + 41)
			t.Run(fmt.Sprintf("%s/seed%d", prof.name, seed), func(t *testing.T) {
				t.Parallel()
				soakRun(t, pat, prof.make(seed), -1, true)
			})
		}
		kills := seeds - 1
		if testing.Short() {
			kills = 1 // keep one kill arm per profile even in short mode
		}
		for s := 0; s < kills; s++ {
			seed := int64(1000*s + 47)
			kill := 1 + s%2 // alternate the killed place
			t.Run(fmt.Sprintf("%s/kill%d/seed%d", prof.name, kill, seed), func(t *testing.T) {
				t.Parallel()
				soakRun(t, pat, prof.make(seed), kill, true)
			})
		}
	}
}

// TestLifelineTerminationAllParked is the termination-detection
// regression: every place except 0 owns nothing, so the whole cluster
// ends up parked on its lifelines with empty deques while place 0 walks
// a slow sequential chain. The run must still reach placeDone and
// terminate promptly, and the parked places must wait quietly — probe
// traffic stays bounded by the probe budget instead of spinning on the
// park timer for the duration.
func TestLifelineTerminationAllParked(t *testing.T) {
	// Only row 0 is active (hot >= h disables the wave), owned by place 0.
	pat := lastWave{h: 16, w: 40, hot: 16}
	cfg := lifelineConfig(pat, 4)
	cfg.Metrics = true
	// 1ms per chain cell keeps the cluster all-parked for ~40ms: a wake
	// storm would rack up thousands of probes in that window.
	cfg.Compute = skewCompute(func(i, j int32) bool { return true }, time.Millisecond, 0)
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cl.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run with all places parked did not terminate")
	}
	checkResult(t, cl, pat)
	agg := metrics.MergeAll(cl.MetricsSnapshots())
	probes := agg.Counters[metrics.SchedStealsAttempted]
	if probes > 400 {
		t.Errorf("parked cluster made %d steal probes over a ~40ms chain; parking is not quiescent", probes)
	}
	if parks := agg.Counters[metrics.SchedLifelineParks]; parks == 0 {
		t.Error("no park episodes recorded; scenario not exercised")
	}
}

// TestChaosSoakMultiJob is the two-job soak: the same seeded chaos
// profiles as TestChaosSoak, but with two concurrent jobs sharing one
// set of places, exercising the job envelope and the shared reliable
// layer under loss, duplication, delay and partitions. -short keeps one
// seed per profile; the nightly CI profile raises seeds via
// DPX10_SOAK_RUNS.
func TestChaosSoakMultiJob(t *testing.T) {
	seeds := soakSeeds(t)
	pat := patterns.NewDiagonal(18, 14)
	for _, prof := range chaosProfiles() {
		for s := 0; s < seeds; s++ {
			seed := int64(1000*s + 53)
			t.Run(fmt.Sprintf("%s/seed%d", prof.name, seed), func(t *testing.T) {
				t.Parallel()
				soakRunMultiJob(t, pat, prof.make(seed), -1)
			})
		}
		kills := seeds - 1
		if testing.Short() {
			kills = 1 // keep one two-job kill arm per profile in short mode
		}
		for s := 0; s < kills; s++ {
			seed := int64(1000*s + 71)
			kill := 1 + s%2 // alternate the killed place
			t.Run(fmt.Sprintf("%s/kill%d/seed%d", prof.name, kill, seed), func(t *testing.T) {
				t.Parallel()
				soakRunMultiJob(t, pat, prof.make(seed), kill)
			})
		}
	}
}
