package core

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/sched"
	"github.com/dpx10/dpx10/internal/trace"
)

// vecTotal sums a Vec's slots in one snapshot.
func vecTotal(s *metrics.Snapshot, name string) int64 {
	var n int64
	for _, v := range s.Vecs[name] {
		n += v
	}
	return n
}

// TestMetricsInvariants cross-checks the metrics registry against two
// independent observers of the same run: the transport fabric's own Stats
// counters (the meter sits directly above the endpoint, so its per-kind
// counts must match number for number) and the engine's atomic Stats
// counters (mirrored instrument sites must agree exactly) — and against the
// span log, which takes one tile span per unit a place runs. The detector
// is disabled so the run is fully quiescent when the snapshots are read —
// every divergence is a bug, not a race.
func TestMetricsInvariants(t *testing.T) {
	pats := map[string]dag.Pattern{
		"swlag":   patterns.NewGrid(32, 32), // Smith-Waterman-style grid
		"colwave": patterns.NewColWave(24, 30),
	}
	// suffix only names the run: it keeps each subtest's name across the
	// project's history, from when lifelines were a switch on Steal.
	cases := []struct {
		pat      string
		strategy sched.Strategy
		tile     int
		cache    int
		suffix   string
	}{
		{"swlag", sched.Local, 0, 128, ""},
		{"swlag", sched.Steal, 1, 16, ""},
		{"swlag", sched.Steal, 0, 512, ""},
		{"swlag", sched.Steal, 2, 64, "/lifelines"},
		{"colwave", sched.Local, 1, 0, ""},
		{"colwave", sched.MinComm, 0, 128, ""},
		{"colwave", sched.Random, 4, 64, ""},
		{"colwave", sched.Steal, 1, 128, "/lifelines"},
	}
	for _, tc := range cases {
		tc := tc
		name := fmt.Sprintf("%s/%v/tile=%d/cache=%d", tc.pat, tc.strategy, tc.tile, tc.cache) + tc.suffix
		t.Run(name, func(t *testing.T) {
			cfg := baseConfig(pats[tc.pat], 4)
			cfg.Metrics = true
			cfg.Strategy = tc.strategy
			cfg.TileSize = tc.tile
			cfg.CacheSize = tc.cache
			cfg.ProbeInterval = -1 // no heartbeats: deterministic traffic
			cfg.Spans = trace.NewSpanLog(0)
			cl := runAndCheck(t, cfg)
			tileSpans := make([]int64, cfg.Places)
			for _, sp := range cfg.Spans.Spans() {
				if sp.Name == "tile" {
					tileSpans[sp.Place]++
				}
			}

			snaps := cl.MetricsSnapshots()
			if len(snaps) != cfg.Places {
				t.Fatalf("got %d snapshots, want %d", len(snaps), cfg.Places)
			}

			// Per place: the meter agrees with the fabric endpoint exactly.
			for p, s := range snaps {
				if s.Place != p {
					t.Fatalf("snapshot %d claims place %d", p, s.Place)
				}
				es := cl.fabric.Endpoint(p).Stats().Snapshot()
				checks := []struct {
					name string
					got  int64
					want int64
				}{
					{metrics.TransportMsgsOut, vecTotal(s, metrics.TransportMsgsOut), es.SendsOut + es.CallsOut},
					{metrics.TransportBytesOut, vecTotal(s, metrics.TransportBytesOut), es.BytesOut},
					{metrics.TransportMsgsIn, vecTotal(s, metrics.TransportMsgsIn), es.MsgsIn},
					{metrics.TransportBytesIn, vecTotal(s, metrics.TransportBytesIn), es.BytesIn},
				}
				for _, c := range checks {
					if c.got != c.want {
						t.Errorf("place %d: %s total = %d, endpoint says %d", p, c.name, c.got, c.want)
					}
				}
				if got := s.Gauges[metrics.EngineEpoch]; got != 0 {
					t.Errorf("place %d: engine.epoch = %d after fault-free run", p, got)
				}
				// One tile span per unit run here, wherever its cells live.
				if got := s.Counters[metrics.SchedTilesExecuted]; got != tileSpans[p] {
					t.Errorf("place %d: sched.tiles_executed = %d, tile spans = %d", p, got, tileSpans[p])
				}
				if busy, most := s.Counters[metrics.SchedBusyNs], int64(cl.Elapsed())*int64(cfg.Threads); busy > most {
					t.Errorf("place %d: sched.busy_ns = %d > elapsed x threads = %d", p, busy, most)
				}
				// Wire round trip: what the coordinator would receive over
				// kindStats is exactly what the place measured.
				dec, err := metrics.DecodeSnapshot(metrics.EncodeSnapshot(nil, s))
				if err != nil {
					t.Fatalf("place %d: snapshot decode: %v", p, err)
				}
				if !reflect.DeepEqual(dec, s) {
					t.Errorf("place %d: snapshot changed across the wire:\n got %+v\nwant %+v", p, dec, s)
				}
			}

			// Aggregate: instruments agree with the engine's own counters.
			agg := metrics.MergeAll(snaps)
			st := cl.Stats()
			if got := agg.Counters[metrics.SchedTilesExecuted]; got != st.TilesExecuted {
				t.Errorf("sched.tiles_executed = %d, Stats.TilesExecuted = %d", got, st.TilesExecuted)
			}
			if got := vecTotal(agg, metrics.VCacheHits); got != st.CacheHits {
				t.Errorf("vcache.hits total = %d, Stats.CacheHits = %d", got, st.CacheHits)
			}
			if got := vecTotal(agg, metrics.VCacheMisses); got != st.CacheMisses {
				t.Errorf("vcache.misses total = %d, Stats.CacheMisses = %d", got, st.CacheMisses)
			}
			if got := agg.Counters[metrics.SchedCellsExecuted]; got != st.ComputedCells {
				t.Errorf("sched.cells_executed = %d, Stats.ComputedCells = %d", got, st.ComputedCells)
			}
			if wait := agg.Counters[metrics.EngineFetchWaitNs]; (wait == 0) != (st.FetchCalls == 0) {
				t.Errorf("engine.fetch_wait_ns = %d over %d fetch calls", wait, st.FetchCalls)
			}

			// A fault-free local fabric delivers everything: cluster-wide
			// out equals cluster-wide in, and nothing failed or retried.
			if out, in := vecTotal(agg, metrics.TransportMsgsOut), vecTotal(agg, metrics.TransportMsgsIn); out != in {
				t.Errorf("cluster-wide msgs out %d != msgs in %d", out, in)
			}
			if out, in := vecTotal(agg, metrics.TransportBytesOut), vecTotal(agg, metrics.TransportBytesIn); out != in {
				t.Errorf("cluster-wide bytes out %d != bytes in %d", out, in)
			}
			for _, name := range []string{
				metrics.TransportSendErrors, metrics.TransportRetries,
				metrics.TransportDedupDrops, metrics.TransportHeartbeatMisses,
			} {
				if got := agg.Counters[name]; got != 0 {
					t.Errorf("%s = %d in a fault-free run", name, got)
				}
			}

			// Steal accounting: every successful steal ships exactly one
			// kindStealDone call back to the victim and transfers >= 1
			// vertex; failures only count as attempts. Tiles pushed away
			// from home return results over the same wire kind, one call per
			// tile: a lifeline tile as a migrated run, an exec tile as the
			// run of a push no lifeline accounts for (a fault-free run
			// accepts and runs every push).
			stealOK := agg.Counters[metrics.SchedStealsSucceeded]
			execRuns := agg.Vecs[metrics.TransportMsgsOut][kindTransfer] - agg.Counters[metrics.SchedLifelinePushes]
			if got := agg.Vecs[metrics.TransportMsgsOut][kindStealDone]; got != stealOK+st.MigratedRuns+execRuns {
				t.Errorf("msgs_out[stealDone] = %d, steals_succeeded (%d) + migrated runs (%d) + exec tiles run (%d) = %d",
					got, stealOK, st.MigratedRuns, execRuns, stealOK+st.MigratedRuns+execRuns)
			}
			if (execRuns == 0) != (st.ExecMigrated == 0) || execRuns > st.ExecMigrated {
				t.Errorf("%d exec tiles ran %d cells", execRuns, st.ExecMigrated)
			}
			if att := agg.Counters[metrics.SchedStealsAttempted]; stealOK > att {
				t.Errorf("steals_succeeded %d > steals_attempted %d", stealOK, att)
			}
			if st.Stolen < stealOK {
				t.Errorf("Stats.Stolen = %d < steals_succeeded = %d", st.Stolen, stealOK)
			}
			if tc.strategy != sched.Steal && stealOK != 0 {
				t.Errorf("steals_succeeded = %d under non-steal strategy", stealOK)
			}

			// Lifeline ledger: every accepted delivery was counted once by
			// the pushing victim and once by the receiving thief, so the
			// cluster-wide counters must balance exactly — and agree with
			// the engine's own atomics.
			pushes := agg.Counters[metrics.SchedLifelinePushes]
			migrated := agg.Counters[metrics.SchedTilesMigrated]
			if pushes != migrated {
				t.Errorf("sched.lifeline_pushes = %d, sched.tiles_migrated = %d (must match)", pushes, migrated)
			}
			if pushes != st.LifelinePushes {
				t.Errorf("sched.lifeline_pushes = %d, Stats.LifelinePushes = %d", pushes, st.LifelinePushes)
			}
			if migrated != st.TilesMigrated {
				t.Errorf("sched.tiles_migrated = %d, Stats.TilesMigrated = %d", migrated, st.TilesMigrated)
			}
			if tc.strategy != sched.Steal {
				for _, name := range []string{
					metrics.SchedLifelineProbes, metrics.SchedLifelineParks,
					metrics.SchedLifelinePushes, metrics.SchedTilesMigrated,
				} {
					if got := agg.Counters[name]; got != 0 {
						t.Errorf("%s = %d under %v, which has no lifelines", name, got, tc.strategy)
					}
				}
			} else {
				// Probes and parks are timing-dependent but never negative,
				// and every random probe is also a steal attempt.
				probes := agg.Counters[metrics.SchedLifelineProbes]
				if att := agg.Counters[metrics.SchedStealsAttempted]; probes > att {
					t.Errorf("lifeline_probes %d > steals_attempted %d", probes, att)
				}
			}

			// Per-job slots roll up to the scheduler total even when tiles
			// ran away from their owning place.
			if got := vecTotal(agg, metrics.JobTilesExecuted); got != agg.Counters[metrics.SchedTilesExecuted] {
				t.Errorf("job.tiles_executed total = %d, sched.tiles_executed = %d", got, agg.Counters[metrics.SchedTilesExecuted])
			}

			// Cache off means the vecs stay silent.
			if tc.cache == 0 && vecTotal(agg, metrics.VCacheHits) != 0 {
				t.Errorf("vcache.hits = %d with the cache disabled", vecTotal(agg, metrics.VCacheHits))
			}
		})
	}
}

// TestMetricsDisabled pins the zero-cost-off contract: a run without
// cfg.Metrics yields no registries and no snapshots, and the engine takes
// the nil-handle path everywhere (a panic there would fail the run).
func TestMetricsDisabled(t *testing.T) {
	cfg := baseConfig(patterns.NewGrid(16, 16), 3)
	cfg.Strategy = sched.Steal
	cl := runAndCheck(t, cfg)
	if snaps := cl.MetricsSnapshots(); snaps != nil {
		t.Fatalf("MetricsSnapshots = %v with metrics off, want nil", snaps)
	}
	for p, ps := range cl.m.stacks {
		if ps.reg != nil {
			t.Fatalf("place %d has a registry with metrics off", p)
		}
	}
}
