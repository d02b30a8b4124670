package core

import (
	"fmt"
	"testing"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/sched"
)

// orderedCompute is a compute() that sees a reordered, substituted or stale
// dependency: it weighs deps[k] by its position and panics unless deps[k] is
// the pattern's k-th dependency.
func orderedCompute(pat dag.Pattern) ComputeFunc[int64] {
	return func(i, j int32, deps []Cell[int64]) int64 {
		want := pat.Dependencies(i, j, nil)
		v := int64(i)*31 + int64(j)*17
		for k, d := range deps {
			if d.ID != want[k] {
				panic(fmt.Sprintf("cell (%d,%d): deps[%d] is %v, the pattern says %v", i, j, k, d.ID, want[k]))
			}
			v = v*1000003 + int64(k+1)*d.Value
		}
		return v
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

// tilingParity is the tiling acceptance matrix: every scheduling arm (the
// four strategies, and stealing with lifelines), under every tile geometry
// given, each with the dependency cache live and — spilled to disk, the one
// configuration that runs without it — off, must compute every active cell
// exactly once and produce a matrix identical to the serial reference.
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
					cfg := baseConfig(pat, places)
					cfg.Compute = compute
					cfg.NewDist = newDist
					cfg.TileSize, cfg.TileShape = tile.size, tile.shape
					if cfg.Lifelines = arm == "lifelines"; cfg.Lifelines {
						cfg.Strategy = sched.Steal
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
							t.Fatalf("cell %v = %d, want %d", id, got, wv)
						}
					}
					if got := cl.Stats().ComputedCells; got != int64(len(want)) {
						t.Fatalf("ComputedCells = %d for %d active cells", got, len(want))
					}
				})
			}
		}
	}
}

func TestTilingStrategyParity(t *testing.T) {
	tilingParity(t, patterns.NewDiagonal(24, 18), 4, nil, sizeArms)
}

// TestTilingNoDepCacheParity runs the matrix on three places for a monotone
// wavefront pattern (whose cached runs take the ascending-offset order) and
// an interval pattern (whose same-tile deps point at larger offsets, forcing
// the Kahn walk).
func TestTilingNoDepCacheParity(t *testing.T) {
	t.Run("diagonal", func(t *testing.T) { tilingParity(t, patterns.NewDiagonal(24, 18), 3, nil, sizeArms) })
	t.Run("interval", func(t *testing.T) { tilingParity(t, patterns.NewInterval(12), 3, nil, sizeArms) })
}

// TestTilingKillMidRunRecovers kills a place mid-run under tiled
// execution: the rebuilt epoch re-derives the per-vertex indegrees, the
// resume scan re-activates tiles from them, and the result must still
// match the reference bit-exactly.
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
			if cl.Stats().Recoveries < 1 {
				t.Fatal("no recovery recorded")
			}
			checkResult(t, cl, pat)
		})
	}
}

// TestTilingCyclicQuotientFallback runs a pattern whose tile quotient is
// cyclic under the row-major tiling (ColWave: columns advance against the
// row-major offset order, so coarse tiles depend on each other both
// ways). The engine must detect this and fall back to per-vertex
// scheduling uniformly — observable as one tile task per computed cell —
// rather than deadlock.
func TestTilingCyclicQuotientFallback(t *testing.T) {
	pat := patterns.NewColWave(12, 14)
	cfg := baseConfig(pat, 3)
	cfg.TileSize = 8
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
