package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/distarray"
	"github.com/dpx10/dpx10/internal/sched"
)

// weigh is a compute() whose value is a function of the cell and of each
// dependency's value by position, so a reordered, substituted or stale
// dependency changes it.
func weigh(i, j int32, deps []Cell[int64]) int64 {
	v := int64(i)*31 + int64(j)*17
	for k, d := range deps {
		v = v*1000003 + int64(k+1)*d.Value
	}
	return v
}

// orderedCompute is a compute() that sees a reordered, substituted or stale
// dependency: it weighs deps[k] by its position and panics unless deps[k] is
// the pattern's k-th dependency.
func orderedCompute(pat dag.Pattern) ComputeFunc[int64] {
	return func(i, j int32, deps []Cell[int64]) int64 {
		want := pat.Dependencies(i, j, nil)
		for k, d := range deps {
			if d.ID != want[k] {
				panic(fmt.Sprintf("cell (%d,%d): deps[%d] is %v, the pattern says %v", i, j, k, d.ID, want[k]))
			}
		}
		return weigh(i, j, deps)
	}
}

// tileArm is one tile geometry of the parity matrix: a cell count the engine
// shapes itself, or an explicit bi x bj.
type tileArm struct {
	label string
	size  int
	shape [2]int
}

// sizeArms are the tile sizes the engine shapes on its own: per-vertex,
// small fixed tiles, the auto pick and one tile per strip of the box.
var sizeArms = []tileArm{{label: "tile=1", size: 1}, {label: "tile=4", size: 4}, {label: "tile=auto"}, {label: "tile=1048576", size: 1 << 20}}

// hiddenStencil forwards only dag.Pattern: a stencil with its capability
// hidden, which every place must run through the generic arm.
type hiddenStencil struct{ dag.Pattern }

// exposures are the faces of pat a parity run takes: the pattern itself and,
// when it is a stencil, the same pattern with the capability hidden.
func exposures(pat dag.Pattern) []dag.Pattern {
	if _, ok := pat.(dag.Stencil); !ok {
		return []dag.Pattern{pat}
	}
	return []dag.Pattern{pat, hiddenStencil{pat}}
}

// wantArm is the arm a run of pat under d must report (Stats.TileLayout's
// last word): the stencil's wherever a place's box keeps the grid's shape,
// which dist.Func's does not.
func wantArm(pat dag.Pattern, d dist.Dist) string {
	if _, ok := pat.(dag.Stencil); ok && d.LocalBox(d.Places()[0]).ColAxis != dist.Scattered {
		return "stencil"
	}
	return "generic"
}

// tilingParity is the tiling acceptance matrix: every scheduling arm (the
// four strategies, and stealing on one thread a place, where every idle
// worker parks its place on its lifelines), under every tile geometry
// given, with values in memory and spilled to disk, must compute every active
// cell exactly once and produce a matrix identical to the serial reference; a
// stencil must do so with the capability exposed and hidden, and say which
// arm it took. The spilled runs are labelled "nodepcache", a name kept so
// each subtest names the same run across the project's history.
func tilingParity(t *testing.T, pat dag.Pattern, places int, newDist func(h, w int32, n int) dist.Dist, arms []tileArm) {
	compute := orderedCompute(pat)
	want := refValuesWith(pat, compute)
	for _, arm := range []string{"local", "random", "mincomm", "steal", "lifelines"} {
		for _, tile := range arms {
			for _, spill := range []bool{false, true} {
				label := arm + "/" + tile.label
				if spill {
					label += "/nodepcache"
				}
				t.Run(label, func(t *testing.T) {
					for _, face := range exposures(pat) {
						cfg := baseConfig(face, places)
						cfg.Compute = compute
						cfg.NewDist = newDist
						cfg.TileSize, cfg.TileShape = tile.size, tile.shape
						if arm == "lifelines" {
							cfg.Strategy, cfg.Threads = sched.Steal, 1
						} else {
							cfg.Strategy, _ = sched.ParseStrategy(arm)
						}
						if spill {
							cfg.Spill = &SpillConfig{Dir: t.TempDir()}
						}
						cl, err := NewCluster(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if err := cl.Run(); err != nil {
							t.Fatalf("Run: %v", err)
						}
						res, err := cl.Result()
						if err != nil {
							t.Fatal(err)
						}
						for id, wv := range want {
							if got := res.Value(id.I, id.J); !res.Finished(id.I, id.J) || got != wv {
								t.Fatalf("%T: cell %v = %d, want %d", face, id, got, wv)
							}
						}
						s := cl.Stats()
						if s.ComputedCells != int64(len(want)) {
							t.Fatalf("%T: ComputedCells = %d for %d active cells", face, s.ComputedCells, len(want))
						}
						if arm := wantArm(face, cl.jr.engines[0].current().d); !strings.HasSuffix(s.TileLayout, arm) {
							t.Fatalf("%T: layout %q, want the %s arm", face, s.TileLayout, arm)
						}
					}
				})
			}
		}
	}
}

func TestTilingStrategyParity(t *testing.T) {
	tilingParity(t, patterns.NewDiagonal(24, 18), 4, nil, sizeArms)
}

// TestTilingNoDepCacheParity runs the matrix on three places, for a
// wavefront pattern and for an interval pattern, whose same-tile dependencies
// point at larger offsets, so only a Kahn walk orders its tiles. The name
// predates the dependency cache's removal and is kept, as are its subtests'.
func TestTilingNoDepCacheParity(t *testing.T) {
	t.Run("diagonal", func(t *testing.T) { tilingParity(t, patterns.NewDiagonal(24, 18), 3, nil, sizeArms) })
	t.Run("interval", func(t *testing.T) { tilingParity(t, patterns.NewInterval(12), 3, nil, sizeArms) })
}

// TestTilingKillMidRunRecovers kills a place mid-run under tiled
// execution: the rebuilt epoch keeps only finished flags, the resume scan
// derives the tile counters from them and the replayed remote decrements,
// and the result must still match the reference bit-exactly.
func TestTilingKillMidRunRecovers(t *testing.T) {
	for _, tile := range []int{4, 0} {
		tile := tile
		t.Run(fmt.Sprintf("tile=%d", tile), func(t *testing.T) {
			pat := patterns.NewDiagonal(24, 18)
			cfg, gate, release := gatedConfig(pat, 4, 150)
			cfg.TileSize = tile
			cl, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- cl.Run() }()
			<-gate
			cl.Kill(2)
			release()
			if err := <-done; err != nil {
				t.Fatalf("Run: %v", err)
			}
			if s := cl.Stats(); s.Recoveries < 1 || !strings.HasSuffix(s.TileLayout, "stencil") {
				t.Fatalf("%d recoveries, layout %q: want one, on the stencil arm", s.Recoveries, s.TileLayout)
			}
			checkResult(t, cl, pat)
		})
	}
}

// TestStencilWalkPausesBetweenRows stops a stencil walk with quit after row k
// of its tile — the pause a recovery sends — and checks that exactly rows
// 0 … k-1 are finished and settled: the done count took them, and the
// tiles to the right and below wait on exactly the edges from the tile's
// unfinished cells. A recovery's walk of the rebuilt tile, its first k rows
// restored, then computes the rest, and only the rest, bit-exact. (The kill
// tests above pause walks too, but not at a row they can name.)
func TestStencilWalkPausesBetweenRows(t *testing.T) {
	const bi, bj = 6, 10
	x := newSWLAGTile(t, bi, bj)
	sc := x.pe.workers[0].sc
	d := x.pe.current().d
	for _, k := range []int{0, 1, 4, bi - 1} {
		st, tl := x.epoch(1)
		ch, computed := st.chunk, 0
		before := ch.FinishedCount()
		if k == 0 {
			st.closeQuit()
		}
		x.hook = func(i, j int32) {
			if computed++; i == int32(bi+k-1) && j == 2*bj-1 {
				st.closeQuit() // the pause lands as row k-1 ends
			}
		}
		if done := x.pe.walkStencil(st, sc, tl); done != k*bj || computed != done {
			t.Fatalf("k=%d: walked %d cells, computed %d, want %d", k, done, computed, k*bj)
		}
		for i := bi; i < 2*bi; i++ {
			for j := bj; j < 2*bj; j++ {
				off := d.LocalOffset(int32(i), int32(j))
				if fin := ch.Finished(off); fin != (i < bi+k) || fin && ch.Value(off) != x.ref[i][j] {
					t.Fatalf("k=%d: cell (%d,%d) finished %v, value %v", k, i, j, fin, ch.Value(off))
				}
			}
		}
		if got := ch.FinishedCount() - before; got != int64(k*bj) {
			t.Fatalf("k=%d: done count took %d cells, want %d", k, got, k*bj)
		}
		// Settled: each successor's counter is down to the edges still owed,
		// so adding those back is what makes it ready, neither more nor less.
		for _, cell := range []dag.VertexID{{I: bi, J: 2 * bj}, {I: 2 * bi, J: bj}} {
			succ := ch.TileOf(d.LocalOffset(cell.I, cell.J))
			if owed := owedEdges(ch, x.pat, succ); !ch.TileAdd(succ, owed) {
				t.Fatalf("k=%d: tile %d not ready after the %d edges still owed", k, succ, owed)
			}
		}
		st.closeQuit()

		// The recovery: the finished cells survive, the tile runs again.
		rebuilt, _ := distarray.RebuildChunk(ch, x.pat, d, false)
		st2 := x.pe.newEpochState(2, d, rebuilt)
		rebuilt.ActivateTiles(x.pat)
		x.hook, computed = func(int32, int32) { computed++ }, 0
		if done := x.pe.walkStencil(st2, sc, tl); done != (bi-k)*bj || computed != done {
			t.Fatalf("k=%d: the recovery walked %d cells, computed %d, want %d", k, done, computed, (bi-k)*bj)
		}
		st2.closeQuit()
		for i := bi; i < 2*bi; i++ {
			for j := bj; j < 2*bj; j++ {
				if off := d.LocalOffset(int32(i), int32(j)); !rebuilt.Finished(off) || rebuilt.Value(off) != x.ref[i][j] {
					t.Fatalf("k=%d: after the recovery cell (%d,%d) = %v, want %v", k, i, j, rebuilt.Value(off), x.ref[i][j])
				}
			}
		}
	}
	x.hook = nil
}

// owedEdges counts the edges into tile t's unfinished cells from unfinished
// cells of other tiles: what t's counter holds on a place with no other.
func owedEdges[T any](ch *distarray.Chunk[T], pat dag.Pattern, t int) (n int32) {
	b, d := ch.TileBox(t), ch.Dist()
	var buf []dag.VertexID
	for off := b.Lo; off < b.Lo+b.Span(); off++ {
		if !b.Holds(off) || ch.Finished(off) {
			continue
		}
		i, j := d.CellAt(ch.Place(), off)
		for _, dep := range pat.Dependencies(i, j, buf[:0]) {
			if doff := d.LocalOffset(dep.I, dep.J); ch.TileOf(doff) != t && !ch.Finished(doff) {
				n++
			}
		}
	}
	return n
}

// TestTilingCyclicQuotientFallback runs a pattern whose tile quotient is
// cyclic under the row-major tiling (ColWave: columns advance against the
// row-major offset order, so coarse tiles depend on each other both
// ways). The engine must detect this and fall back to per-vertex
// scheduling uniformly — observable as one tile task per computed cell —
// rather than deadlock. The shape is pinned: left to itself the engine
// would cut one column instead (TestThinShapeBeforeSingleCells).
func TestTilingCyclicQuotientFallback(t *testing.T) {
	pat := patterns.NewColWave(12, 14)
	cfg := baseConfig(pat, 3)
	cfg.TileSize = 8
	cfg.TileShape = [2]int{1, 8}
	cl := runAndCheck(t, cfg)
	s := cl.Stats()
	if s.TilesExecuted != s.ComputedCells {
		t.Fatalf("expected per-vertex fallback (tiles == cells), got %d tiles for %d cells",
			s.TilesExecuted, s.ComputedCells)
	}
}

// TestTilingCoarseTasks is the positive control for the fallback test:
// on a quotient-acyclic layout the engine must actually coarsen, not
// silently run per-vertex.
func TestTilingCoarseTasks(t *testing.T) {
	pat := patterns.NewGrid(24, 24)
	cfg := baseConfig(pat, 3)
	cfg.TileSize = 16
	cl := runAndCheck(t, cfg)
	s := cl.Stats()
	if s.TilesExecuted >= s.ComputedCells/8 {
		t.Fatalf("tiling not engaged: %d tile tasks for %d cells", s.TilesExecuted, s.ComputedCells)
	}
}

// countingStencil is a stencil that counts every Dependencies and
// AntiDependencies call made on it, forwarding Offsets.
type countingStencil struct {
	patterns.Diagonal
	calls atomic.Int64
}

func (p *countingStencil) Dependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	p.calls.Add(1)
	return p.Diagonal.Dependencies(i, j, buf)
}

func (p *countingStencil) AntiDependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	p.calls.Add(1)
	return p.Diagonal.AntiDependencies(i, j, buf)
}

// TestStencilWalkMakesNoPatternCalls is the stencil arm's mechanism, counted,
// at side 201 on two configurations: swlag-local's (block rows, two places of
// one worker, no cache, auto tiles) and swlag-tcp-push's (cyclic rows, so
// every row reads the one above from the other place, and a cache, so
// values are pushed). The activation and the walk of every own tile find
// every edge by arithmetic — not one Dependencies or AntiDependencies call —
// and the run's Stats are those of the same run with the capability hidden,
// but for the arm's name and the message traffic, whose batching is timing.
// That pins the ghost frame's pour of a tile's box into its slab to
// fillHalo's accounting; the push row's counts also pin that the run-wise
// settlement pushes each value to each tile that reads it once.
func TestStencilWalkMakesNoPatternCalls(t *testing.T) {
	diag := patterns.NewDiagonal(201, 201)
	compute := orderedCompute(diag)
	want := refValuesWith(diag, compute)
	for _, tc := range []struct {
		name    string
		newDist func(h, w int32, n int) dist.Dist
		cache   int
		want    func(Stats) bool // the counts, beside the arms' agreement
	}{
		{"swlag-local", func(h, w int32, n int) dist.Dist { return dist.NewBlockRow(h, w, n) }, 0,
			func(s Stats) bool { return s.ValuesPushed == 0 && s.CacheHits == 0 }},
		{"swlag-tcp-push", func(h, w int32, n int) dist.Dist { return dist.NewCyclicRow(h, w, n) }, 4096,
			func(s Stats) bool {
				return s.LocalReads == 40200 && s.RemoteFetches == 0 && s.CacheHits == 40600 && s.ValuesPushed == 40600 &&
					s.PushDeposits == 40600 && s.PushConsumed == 40600
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(pat dag.Pattern) (Stats, *Cluster[int64]) {
				cfg := baseConfig(pat, 2)
				cfg.Threads = 1
				cfg.Compute = compute
				cfg.NewDist = tc.newDist
				cfg.CacheSize = tc.cache
				cl, err := NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := cl.Run(); err != nil {
					t.Fatal(err)
				}
				res, err := cl.Result()
				if err != nil {
					t.Fatal(err)
				}
				for id, wv := range want {
					if got := res.Value(id.I, id.J); got != wv {
						t.Fatalf("%T: cell %v = %d, want %d", pat, id, got, wv)
					}
				}
				s := cl.Stats()
				s.MsgsSent, s.BytesSent, s.SendsOut, s.AggBatches, s.DecrsCoalesced = 0, 0, 0, 0, 0
				return s, cl
			}
			counted := &countingStencil{Diagonal: diag}
			exposed, cl := run(counted)
			if n := counted.calls.Load(); n != 0 {
				t.Fatalf("%d Dependencies/AntiDependencies calls in a stencil run", n)
			}
			for _, pe := range cl.jr.engines {
				if pe.current().chunk.Stencil() == nil {
					t.Fatalf("place %d did not take the stencil arm", pe.self)
				}
			}
			hidden, _ := run(hiddenStencil{diag})
			if exposed.TileLayout, hidden.TileLayout = strings.TrimSuffix(exposed.TileLayout, "stencil"), strings.TrimSuffix(hidden.TileLayout, "generic"); exposed != hidden {
				t.Fatalf("Stats differ:\nexposed %+v\nhidden  %+v", exposed, hidden)
			}
			if !tc.want(exposed) {
				t.Fatalf("Stats %+v", exposed)
			}
		})
	}
}
