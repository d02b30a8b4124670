package core

import (
	"sync"
	"testing"
	"time"

	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/metrics"
)

// recoveryPhaseHists are the three round-duration histograms, in protocol
// order: rebuild, exchange (reported as the replay) and resume.
var recoveryPhaseHists = []string{
	metrics.RecoveryRebuildNs,
	metrics.RecoveryReplayNs,
	metrics.RecoveryResumeNs,
}

// TestMetricsRecoveryPhases kills a place mid-run and checks the recovery
// instruments against the event stream: the three round histograms hold one
// sample per recovery, their summed durations account for (almost) all of
// the recovery wall time reported by EventRecoveryFinished, every counter
// is monotone across the recovery, and the epoch gauge lands on the final
// epoch at each survivor.
func TestMetricsRecoveryPhases(t *testing.T) {
	const killed = 2
	pat := patterns.NewGrid(24, 24)
	cfg, gate, release := gatedConfig(pat, 4, 120)
	cfg.Metrics = true
	cfg.CacheSize = 64
	cfg.ProbeInterval = -1 // Kill announces the death; keep traffic deterministic

	// The callback reads cl; the write below happens before the run (and
	// therefore any event) starts.
	var cl *Cluster[int64]
	var mu sync.Mutex
	var durations []time.Duration
	var midSnaps []*metrics.Snapshot
	cfg.Events = func(ev RunEvent) {
		if ev.Kind != EventRecoveryFinished {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		durations = append(durations, ev.Duration)
		if midSnaps == nil {
			midSnaps = cl.MetricsSnapshots()
		}
	}

	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cl.Run() }()
	<-gate
	cl.Kill(killed)
	release()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkResult(t, cl, pat)

	st := cl.Stats()
	if st.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", st.Recoveries)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(durations) != 1 {
		t.Fatalf("got %d EventRecoveryFinished events, want 1", len(durations))
	}
	total := durations[0].Nanoseconds()
	if total != st.RecoveryNanos {
		t.Errorf("event duration %dns != Stats.RecoveryNanos %dns", total, st.RecoveryNanos)
	}

	snaps := cl.MetricsSnapshots()
	agg := metrics.MergeAll(snaps)

	// Phase durations: one sample per phase per recovery, and the phases
	// account for the recovery wall time up to the (tiny) inter-phase
	// bookkeeping; epsilon absorbs scheduler hiccups on loaded CI hosts.
	const epsilon = 250 * time.Millisecond
	var phaseSum int64
	for _, name := range recoveryPhaseHists {
		h := agg.Hists[name]
		if got := h.Count(); got != int64(st.Recoveries) {
			t.Errorf("%s has %d samples, want %d", name, got, st.Recoveries)
		}
		if h.Sum <= 0 {
			t.Errorf("%s sum = %dns, want > 0", name, h.Sum)
		}
		phaseSum += h.Sum
	}
	if phaseSum > total {
		t.Errorf("phase sum %dns exceeds recovery wall time %dns", phaseSum, total)
	}
	if slack := total - phaseSum; slack > epsilon.Nanoseconds() {
		t.Errorf("recovery wall time %dns unaccounted for by phases (%dns missing, eps %v)",
			total, slack, epsilon)
	}

	// The epoch gauge tracks the coordinator: every survivor bumped to the
	// final epoch, the dead place froze on the epoch it died in.
	wantEpoch := int64(st.Epochs - 1)
	for p, s := range snaps {
		got := s.Gauges[metrics.EngineEpoch]
		if p == killed {
			if got != 0 {
				t.Errorf("dead place %d: engine.epoch = %d, want 0", p, got)
			}
			continue
		}
		if got != wantEpoch {
			t.Errorf("place %d: engine.epoch = %d, want %d", p, got, wantEpoch)
		}
	}

	// Mirrored instruments stay exact across fold-at-rebuild: the old
	// epoch's cache stats are folded once, the live cache overlaid once.
	if got := agg.Counters[metrics.SchedTilesExecuted]; got != st.TilesExecuted {
		t.Errorf("sched.tiles_executed = %d, Stats.TilesExecuted = %d", got, st.TilesExecuted)
	}
	if got := vecTotal(agg, metrics.VCacheHits); got != st.CacheHits {
		t.Errorf("vcache.hits = %d, Stats.CacheHits = %d", got, st.CacheHits)
	}
	if got := vecTotal(agg, metrics.VCacheMisses); got != st.CacheMisses {
		t.Errorf("vcache.misses = %d, Stats.CacheMisses = %d", got, st.CacheMisses)
	}

	// The meter still matches the fabric exactly — recovery traffic and
	// sends that died with the killed place included (neither side counts
	// a message the link refused).
	for p, s := range snaps {
		es := cl.fabric.Endpoint(p).Stats().Snapshot()
		if got, want := vecTotal(s, metrics.TransportMsgsOut), es.SendsOut+es.CallsOut; got != want {
			t.Errorf("place %d: msgs_out total = %d, endpoint says %d", p, got, want)
		}
		if got := vecTotal(s, metrics.TransportMsgsIn); got != es.MsgsIn {
			t.Errorf("place %d: msgs_in total = %d, endpoint says %d", p, got, es.MsgsIn)
		}
	}

	// Monotonicity: nothing read at recovery-finished time may shrink by
	// the end of the run.
	if len(midSnaps) != len(snaps) {
		t.Fatalf("mid-run snapshot count %d != final %d", len(midSnaps), len(snaps))
	}
	for p := range snaps {
		mid, fin := midSnaps[p], snaps[p]
		for name, v := range mid.Counters {
			if fin.Counters[name] < v {
				t.Errorf("place %d: counter %s shrank %d -> %d", p, name, v, fin.Counters[name])
			}
		}
		for name, h := range mid.Hists {
			if fh := fin.Hists[name]; fh.Sum < h.Sum || fh.Count() < h.Count() {
				t.Errorf("place %d: histogram %s shrank", p, name)
			}
		}
		for name, vec := range mid.Vecs {
			for k, v := range vec {
				if fin.Vecs[name][k] < v {
					t.Errorf("place %d: vec %s[%d] shrank %d -> %d", p, name, k, v, fin.Vecs[name][k])
				}
			}
		}
	}
}

// BenchmarkMetricsOverhead is the overhead gate for the metrics layer: the
// same workload as BenchmarkSchedulePerVertex, with the registry off and
// on. scripts/metrics_overhead.sh compares the two ns/vertex figures and
// fails the build when the enabled arm is more than 2% slower.
func BenchmarkMetricsOverhead(b *testing.B) {
	const side = 256
	pat := patterns.NewGrid(side, side)
	cells := float64(side) * float64(side)
	for _, arm := range []struct {
		name    string
		metrics bool
	}{
		{"off", false},
		{"on", true},
	} {
		b.Run(arm.name, func(b *testing.B) {
			cfg := baseConfig(pat, 2)
			cfg.Metrics = arm.metrics
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cl, err := NewCluster(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := cl.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*cells), "ns/vertex")
		})
	}
}
