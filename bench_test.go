// Benchmarks mirroring the paper's evaluation (§VIII), one per figure,
// plus micro-benchmarks of the load-bearing components. The figures
// themselves are regenerated in table form by cmd/dpx10-bench; these
// testing.B entries make each experiment repeatable under `go test
// -bench` and track the implementation's own performance.
package dpx10_test

import (
	"bytes"
	"testing"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/apps"
	"github.com/dpx10/dpx10/internal/bench"
	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/native"
	"github.com/dpx10/dpx10/internal/simcluster"
	"github.com/dpx10/dpx10/internal/transport"
	"github.com/dpx10/dpx10/internal/vcache"
	"github.com/dpx10/dpx10/internal/workload"
)

// --- Figure 10: scaling with nodes (simulated cluster) ------------------

// simBench runs one simulated table entry per iteration through the harness's
// own SimApp (the figures' configuration: 240×240 tiles, 6 cores and 2 places
// per node, block rows) and reports its virtual makespan.
func simBench(b *testing.B, spec bench.AppSpec, cells int64, nodes int, tune func(*simcluster.Model)) {
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		res, err := bench.SimApp(spec, cells, nodes, tune)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Makespan, "virtual-s")
	}
}

func benchmarkFig10(b *testing.B, specIdx, nodes int) {
	simBench(b, bench.Specs()[specIdx], 3_000_000, nodes, nil)
}

func BenchmarkFig10_SWLAG_2nodes(b *testing.B)  { benchmarkFig10(b, 0, 2) }
func BenchmarkFig10_SWLAG_12nodes(b *testing.B) { benchmarkFig10(b, 0, 12) }
func BenchmarkFig10_MTP_12nodes(b *testing.B)   { benchmarkFig10(b, 1, 12) }
func BenchmarkFig10_LPS_12nodes(b *testing.B)   { benchmarkFig10(b, 2, 12) }
func BenchmarkFig10_KP_12nodes(b *testing.B)    { benchmarkFig10(b, 3, 12) }

// --- Figure 11: scaling with size (simulated cluster) -------------------

func BenchmarkFig11_SWLAG_10nodes(b *testing.B) {
	simBench(b, bench.Specs()[0], 10_000_000, 10, nil)
}

// --- Figure 12: framework overhead (real runtime) -----------------------

func fig12Sequences() (string, string) {
	return workload.Sequence(240, workload.DNA, 1), workload.Sequence(240, workload.DNA, 2)
}

func BenchmarkFig12_DPX10(b *testing.B) {
	a, s := fig12Sequences()
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		app := apps.NewSWLAG(a, s)
		if _, err := dpx10.Run[apps.AffineCell](app, app.Pattern(),
			dpx10.Places(8),
			dpx10.WithCodec[apps.AffineCell](app.Codec())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12_NativeVertex(b *testing.B) {
	a, s := fig12Sequences()
	for n := 0; n < b.N; n++ {
		if _, err := native.RunVertex(a, s, 8, 2, 0); err != nil {
			b.Fatal(err)
		}
	}
	// scripts/bench_net.sh divides the engine's ns/vertex by this: the
	// host's speed cancels out of the ratio.
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(len(a)+1)*(len(s)+1)), "ns/cell")
}

func BenchmarkFig12_NativeStrip(b *testing.B) {
	a, s := fig12Sequences()
	for n := 0; n < b.N; n++ {
		if _, err := native.RunStrip(a, s, 8, 256, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 13: recovery (simulated cluster) ----------------------------

func BenchmarkFig13_Recovery_4nodes(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := bench.SimApp(bench.Specs()[0], 3_000_000, 4, nil, 7) // the last place dies at half
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RecoveryTime, "virtual-recovery-s")
	}
}

// --- real-runtime recovery (complements Fig 13 with wall time) ----------

func BenchmarkRealRecovery(b *testing.B) {
	app := apps.NewMTP(200, 200, 100, 3)
	total := int64(200 * 200)
	for n := 0; n < b.N; n++ {
		job, err := dpx10.Launch[int64](app, app.Pattern(),
			dpx10.Places(6), dpx10.WithCodec[int64](dpx10.Int64Codec{}))
		if err != nil {
			b.Fatal(err)
		}
		for job.Progress() < total/2 {
		}
		job.Kill(5)
		d, err := job.Wait()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(d.Stats().RecoveryNanos)/1e6, "recovery-ms")
	}
}

// --- engine micro-benchmarks ---------------------------------------------

// BenchmarkEngineThroughput measures real-runtime cells per second on the
// per-vertex path (the denominator of the overhead discussion).
func BenchmarkEngineThroughput(b *testing.B) {
	a := workload.Sequence(300, workload.DNA, 1)
	s := workload.Sequence(300, workload.DNA, 2)
	cells := int64(301 * 301)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		app := apps.NewSW(a, s)
		if _, err := dpx10.Run[int32](app, app.Pattern(),
			dpx10.Places(4), dpx10.WithCodec[int32](dpx10.Int32Codec{})); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cells), "cells/op")
}

func BenchmarkTransportLocalCall(b *testing.B) {
	f := transport.NewLocalFabric(2)
	defer f.Close()
	f.Endpoint(1).Handle(1, func(_ int, p []byte) ([]byte, error) { return p, nil }) //dpx10:allow placeleak echo handler; the fabric clones replies
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := f.Endpoint(0).Call(1, 1, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecInt64(b *testing.B) {
	c := codec.Int64{}
	buf := make([]byte, 0, 8)
	for n := 0; n < b.N; n++ {
		buf = c.Encode(buf[:0], int64(n))
		if _, _, err := c.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecAffine(b *testing.B) {
	c := apps.AffineCodec{}
	buf := make([]byte, 0, 12)
	for n := 0; n < b.N; n++ {
		buf = c.Encode(buf[:0], apps.AffineCell{H: int32(n), E: 1, F: 2})
		if _, _, err := c.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecGobStruct(b *testing.B) {
	c := codec.Gob[apps.AffineCell]{}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		buf = c.Encode(buf[:0], apps.AffineCell{H: int32(n)})
		if _, _, err := c.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVCache(b *testing.B) {
	c := vcache.New[int64](256)
	for n := 0; n < b.N; n++ {
		id := dag.VertexID{I: int32(n % 512), J: int32(n % 64)}
		c.Put(id, int64(n))
		c.Get(id)
	}
}

func BenchmarkPatternDependencies(b *testing.B) {
	pat := patterns.NewDiagonal(1000, 1000)
	var buf []dag.VertexID
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		buf = pat.Dependencies(int32(n%999)+1, int32(n%998)+1, buf[:0])
	}
	_ = buf
}

func BenchmarkSimulatorEvents(b *testing.B) {
	// Event-processing throughput of the discrete-event simulator.
	for n := 0; n < b.N; n++ {
		pat := patterns.NewDiagonal(120, 120)
		sim, err := simcluster.New(pat, dist.NewBlockRow(120, 120, 8), simcluster.DefaultModel(4))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- extension experiments ----------------------------------------------

func BenchmarkStealAblation_KP12nodes(b *testing.B) {
	simBench(b, bench.Specs()[3], 3_000_000, 12, func(m *simcluster.Model) { m.Steal = true }) // 0/1KP
}

func BenchmarkSpilledRun(b *testing.B) {
	app := apps.NewMTP(200, 200, 100, 3)
	for n := 0; n < b.N; n++ {
		if _, err := dpx10.Run[int64](app, app.Pattern(),
			dpx10.Places(4),
			dpx10.WithCodec[int64](dpx10.Int64Codec{}),
			dpx10.WithSpill("", 512, 8)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStragglerSim(b *testing.B) {
	simBench(b, bench.Specs()[0], 3_000_000, 6, func(m *simcluster.Model) {
		m.PlaceSpeed = []float64{6: 4}
		m.Steal = true
	})
}

func BenchmarkSaveLoadResult(b *testing.B) {
	app := apps.NewMTP(120, 120, 100, 3)
	dag, err := dpx10.Run[int64](app, app.Pattern(),
		dpx10.Places(2), dpx10.WithCodec[int64](dpx10.Int64Codec{}))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var buf bytes.Buffer
		if err := dag.Save(&buf, dpx10.Int64Codec{}); err != nil {
			b.Fatal(err)
		}
		if _, err := dpx10.LoadResult[int64](&buf, dpx10.Int64Codec{}); err != nil {
			b.Fatal(err)
		}
	}
}
