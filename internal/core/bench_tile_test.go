package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/distarray"
	"github.com/dpx10/dpx10/internal/native"
	"github.com/dpx10/dpx10/internal/workload"
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

// swlagTile is a SWLAG grid of 2bi+1 rows and 2bj+1 columns on one place of
// one worker, cut into bi × bj tiles, with its reference values. Its middle
// tile (rows bi … 2bi-1, columns bj … 2bj-1) is a typical swlag-local tile:
// every input it reads is local. Compute is SWLAG's, reading its dependencies
// by position after checking their ids, as apps.SWLAG does, and then calls
// hook, when set.
type swlagTile struct {
	bi, bj int
	a, b   string
	ref    [][]native.Cell
	pat    dag.Pattern
	pe     *placeEngine[native.Cell]
	hook   func(i, j int32)
}

func newSWLAGTile(tb testing.TB, bi, bj int) *swlagTile {
	x := &swlagTile{bi: bi, bj: bj, a: workload.Sequence(2*bi, workload.DNA, 1), b: workload.Sequence(2*bj, workload.DNA, 2)}
	h, w := 2*bi+1, 2*bj+1
	x.ref = make([][]native.Cell, h)
	for i := range x.ref {
		x.ref[i] = make([]native.Cell, w)
	}
	native.Strip(x.a, x.b, 0, 0, w, nil, x.ref, 0)
	x.pat = patterns.NewDiagonal(int32(h), int32(w))
	compute := swlagCompute(x.a, x.b)
	cfg := Config[native.Cell]{
		Common: Common{Places: 1, Threads: 1, Pattern: x.pat, TileShape: [2]int{bi, bj}},
		Compute: func(i, j int32, deps []Cell[native.Cell]) native.Cell {
			v := compute(i, j, deps)
			if x.hook != nil {
				x.hook(i, j)
			}
			return v
		},
		Codec: codec.Gob[native.Cell]{},
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		tb.Fatal(err)
	}
	x.pe = cl.jr.engines[0]
	return x
}

// epoch starts epoch n here over a fresh chunk in which the cells before the
// middle tile — the tile rows above it and the tile to its left — are
// finished and the rest are not, and returns it with the middle tile, which
// its activation scan found ready.
func (x *swlagTile) epoch(n uint64) (*epochState[native.Cell], int) {
	d := x.pe.current().d
	ch := distarray.NewChunk[native.Cell](0, d)
	st := x.pe.newEpochState(n, d, ch)
	ch.InitFlags(x.pat)
	for i := range x.ref {
		for j := range x.ref[i] {
			if i < x.bi || i < 2*x.bi && j < x.bj {
				ch.SetResult(d.LocalOffset(int32(i), int32(j)), x.ref[i][j])
			}
		}
	}
	ch.ActivateTiles(x.pat)
	return st, ch.TileOf(d.LocalOffset(int32(x.bi), int32(x.bj)))
}

// BenchmarkStencilTile is ROADMAP item 14's gate: one stencil tile of the
// shape swlag-local's auto pick cuts (12 × 176: side 1400, two places of one
// worker, block rows), walked through the engine (walkStencil, as the middle
// tile of a swlagTile: the cells after it wait on it, so its bottom and right
// cells owe decrements) and through native.RunStrip's loop (native.Strip) on
// the same box, reported as ns/cell for each and their ratio.
func BenchmarkStencilTile(b *testing.B) {
	const bi, bj = 12, 176
	x := newSWLAGTile(b, bi, bj)
	sc, d := x.pe.workers[0].sc, x.pe.current().d
	// The native box: row bi-1 is the ghost, column bj-1 is filled in.
	ghost, rows := x.ref[bi-1], make([][]native.Cell, bi)
	for k := range rows {
		rows[k] = append([]native.Cell(nil), x.ref[bi+k]...)
	}
	var eng, nat time.Duration
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		st, t := x.epoch(1)
		b.StartTimer()
		t0 := time.Now()
		done := x.pe.walkStencil(st, sc, t)
		t1 := time.Now()
		native.Strip(x.a, x.b, bi, bj, 2*bj, ghost, rows, 0)
		t2 := time.Now()
		b.StopTimer()
		eng, nat = eng+t1.Sub(t0), nat+t2.Sub(t1)
		st.closeQuit()
		if n > 0 {
			continue
		}
		if done != bi*bj {
			b.Fatalf("walked %d cells, want %d", done, bi*bj)
		}
		for i := bi; i < 2*bi; i++ {
			for j := bj; j < 2*bj; j++ {
				if got := st.chunk.Value(d.LocalOffset(int32(i), int32(j))); got != x.ref[i][j] || rows[i-bi][j] != got {
					b.Fatalf("cell (%d,%d): engine %v, native %v, want %v", i, j, got, rows[i-bi][j], x.ref[i][j])
				}
			}
		}
	}
	cells := float64(b.N) * bi * bj
	b.ReportMetric(float64(eng.Nanoseconds())/cells, "engine-ns/cell")
	b.ReportMetric(float64(nat.Nanoseconds())/cells, "native-ns/cell")
	b.ReportMetric(float64(eng)/float64(nat), "ratio")
}

// swlagCompute is apps.SWLAG's Compute over native.Cell values.
func swlagCompute(a, b string) ComputeFunc[native.Cell] {
	const negInf = -(1 << 28)
	sc := native.DefaultScoring()
	dep := func(deps []Cell[native.Cell], k int, i, j int32) native.Cell {
		if k >= len(deps) || deps[k].ID != (dag.VertexID{I: i, J: j}) {
			panic(fmt.Sprintf("dependency (%d,%d) not provided at position %d", i, j, k))
		}
		return deps[k].Value
	}
	return func(i, j int32, deps []Cell[native.Cell]) native.Cell {
		if i == 0 || j == 0 {
			return native.Cell{E: negInf, F: negInf}
		}
		top, left, diag := dep(deps, 0, i-1, j), dep(deps, 1, i, j-1), dep(deps, 2, i-1, j-1)
		e := max(left.H+sc.GapOpen, left.E+sc.GapExtend)
		f := max(top.H+sc.GapOpen, top.F+sc.GapExtend)
		s := sc.Mismatch
		if a[i-1] == b[j-1] {
			s = sc.Match
		}
		return native.Cell{H: max(0, diag.H+s, e, f), E: e, F: f}
	}
}
