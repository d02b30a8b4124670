package core

import (
	"runtime"
	"testing"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
)

// BenchmarkSchedulePerVertex measures the engine's scheduling cost per
// vertex — everything that is not the user's compute(): deque traffic,
// dependency gathering, indegree decrements, completion bookkeeping. The
// compute function is a few adds, so the reported ns/vertex is almost
// pure framework overhead, the quantity Figure 12 bounds. The tile sweep
// shows the amortization: TileSize=1 pays the full per-vertex price
// (pre-tiling behavior), auto executes whole tiles as one task.
func BenchmarkSchedulePerVertex(b *testing.B) {
	const side = 256
	pat := patterns.NewGrid(side, side)
	cells := float64(side) * float64(side)
	for _, tc := range []struct {
		name string
		tile int
	}{
		{"tile=1", 1},
		{"tile=4", 4},
		{"tile=auto", 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := baseConfig(pat, 2)
			cfg.TileSize = tc.tile
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			var last *Cluster[int64]
			for i := 0; i < b.N; i++ {
				cl, err := NewCluster(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := cl.Run(); err != nil {
					b.Fatal(err)
				}
				last = cl
			}
			b.StopTimer()
			// The shape the engine chose for this size, on place 0.
			st := last.jr.engines[0].current()
			bi, bj := st.grids[0].Shape()
			b.ReportMetric(float64(bi), "tile-rows")
			b.ReportMetric(float64(bj), "tile-cols")
			b.ReportMetric(st.lay.parallelism(), "tile-parallelism")
			runtime.ReadMemStats(&after)
			n := float64(b.N) * cells
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/vertex")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/vertex")
		})
	}
}

// BenchmarkGenericArm measures the generic arm, where the activation scan and
// describeTile each ask the pattern for every cell's dependencies, on the
// shapes it serves: a stencil with its capability hidden (Diagonal), a sparse
// pattern whose same-tile dependencies lie at larger offsets (Interval, as
// LPS uses it) and O(n) dependencies per cell (RowWave, as Viterbi uses it).
// Two places of one worker each, auto tiles.
func BenchmarkGenericArm(b *testing.B) {
	for _, tc := range []struct {
		name string
		pat  dag.Pattern
	}{
		{"diagonal-hidden=512", hiddenStencil{patterns.NewDiagonal(512, 512)}},
		{"interval=1000", patterns.NewInterval(1000)},
		{"rowwave=300", patterns.NewRowWave(300, 300)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := baseConfig(tc.pat, 2)
			cfg.Threads = 1
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			cells := int64(0)
			for i := 0; i < b.N; i++ {
				cl, err := NewCluster(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := cl.Run(); err != nil {
					b.Fatal(err)
				}
				cells += cl.Stats().ComputedCells
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(cells)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/cell")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/cell")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/cell")
		})
	}
}
