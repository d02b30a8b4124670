package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/distarray"
	"github.com/dpx10/dpx10/internal/sched"
)

type namedDist struct {
	name  string
	make  func(h, w int32, n int) dist.Dist
	shape [2]int // a multi-cell tile a wavefront pattern stays acyclic under
}

// boxDists are the six distributions that lay a place's cells out as a box
// more than one row high.
var boxDists = []namedDist{
	{"blockrow", func(h, w int32, n int) dist.Dist { return dist.NewBlockRow(h, w, n) }, [2]int{2, 3}},
	{"blockcol", func(h, w int32, n int) dist.Dist { return dist.NewBlockCol(h, w, n) }, [2]int{2, 3}},
	{"cyclicrow", func(h, w int32, n int) dist.Dist { return dist.NewCyclicRow(h, w, n) }, [2]int{1, 4}},
	{"cycliccol", func(h, w int32, n int) dist.Dist { return dist.NewCyclicCol(h, w, n) }, [2]int{4, 1}},
	{"blockcyclicrow", func(h, w int32, n int) dist.Dist { return dist.NewBlockCyclicRow(h, w, 4, n) }, [2]int{1, 4}},
	{"block2d", func(h, w int32, n int) dist.Dist {
		if n%2 == 0 {
			return dist.NewBlock2D(h, w, 2, n/2)
		}
		return dist.NewBlock2D(h, w, n, 1)
	}, [2]int{2, 3}},
}

func funcDist(h, w int32, n int) dist.Dist {
	places := make([]int, n)
	for p := range places {
		places[p] = p
	}
	d, err := dist.NewFunc(h, w, places, func(i, j int32) int { return int(i/5+j/7) % n })
	if err != nil {
		panic(err)
	}
	return d
}

// autoLayout is the layout the engine picks for pat under d with nothing
// configured.
func autoLayout(pat dag.Pattern, d dist.Dist) ([]distarray.TileGrid, tileLayout) {
	c := Common{Pattern: pat, tileCheck: &tileLayoutCache{}}
	return c.tileGrids(d)
}

// TestAutoShapeExposesParallelism is the host-independent half of the
// tentpole's claim: the tile DAG the auto shape produces is not a chain.
// tiles / longest chain must reach half the shorter side of a place's grid of
// tiles — what a wavefront over that grid offers — on every box dist.
func TestAutoShapeExposesParallelism(t *testing.T) {
	pat := patterns.NewDiagonal(320, 320)
	for _, bd := range boxDists {
		for _, places := range []int{2, 3, 4} {
			d := bd.make(320, 320, places)
			grids, lay := autoLayout(pat, d)
			name := fmt.Sprintf("%s/%d places: %s", bd.name, places, describeLayout(grids, lay, true))
			if !lay.ok || lay.span == 0 {
				t.Fatalf("%s: auto shape not coarsened", name)
			}
			for k := range grids {
				if floor := float64(min(grids[k].TileRows(), grids[k].TileCols())) / 2; lay.parallelism() < floor {
					t.Errorf("%s: parallelism %.2f under %.1f", name, lay.parallelism(), floor)
				}
			}
			if bd.name == "blockrow" && lay.parallelism() < 2 {
				t.Errorf("%s: block rows still a chain", name)
			}
			t.Log(name)
		}
	}
}

// TestEveryPlaceDerivesTheSameLayout runs a job under each dist and compares
// what the places, each on its own, made of it.
func TestEveryPlaceDerivesTheSameLayout(t *testing.T) {
	pat := patterns.NewDiagonal(40, 36)
	for _, bd := range append(boxDists, namedDist{name: "func", make: funcDist}) {
		cfg := baseConfig(pat, 3)
		cfg.NewDist = bd.make
		cl := runAndCheck(t, cfg)
		ref := cl.jr.engines[0].current()
		for _, pe := range cl.jr.engines[1:] {
			st := pe.current()
			if st.lay != ref.lay || len(st.grids) != len(ref.grids) {
				t.Fatalf("%s: place %d derived %+v, place 0 %+v", bd.name, pe.self, st.lay, ref.lay)
			}
			for k := range st.grids {
				if st.grids[k] != ref.grids[k] {
					t.Fatalf("%s: place %d cut place %d's box as %s, place 0 as %s", bd.name, pe.self, k, st.grids[k], ref.grids[k])
				}
			}
		}
		if s := cl.Stats(); s.TileLayout == "" || s.TileParallelism != ref.lay.parallelism() {
			t.Fatalf("%s: Stats report layout %q parallelism %v", bd.name, s.TileLayout, s.TileParallelism)
		}
	}
}

// TestThinShapeBeforeSingleCells is the table behind the Viterbi
// regression: RowWave (Viterbi) and Triangle (matrix-chain, OBST, CYK) under
// three dists at 2–4 places. Each candidate shape is cut and checked here on
// its own, with no run; the engine must fall back to single cells only when
// every candidate is cyclic, and otherwise take the first acyclic one. The
// auto rectangle of RowWave under block rows is cyclic, its one-row cut is
// not: that is the case the engine used to send to single cells.
func TestThinShapeBeforeSingleCells(t *testing.T) {
	apps := []struct {
		name string
		pat  dag.Pattern
	}{
		{"viterbi", patterns.NewRowWave(150, 150)},
		{"matrixchain", patterns.NewTriangle(150)},
		{"obst", patterns.NewTriangle(121)},
		{"cyk", patterns.NewTriangle(40)},
	}
	thinned := 0
	for _, app := range apps {
		for _, bd := range boxDists[:3] { // blockrow, blockcol, cyclicrow
			for _, places := range []int{2, 3, 4} {
				h, w := app.pat.Bounds()
				d := bd.make(h, w, places)
				c := Common{Pattern: app.pat}
				first := -1 // the first acyclic candidate
				for cand := shapeRect; cand < shapeCell && first < 0; cand++ {
					grids, base := c.cutGrids(d, cand)
					tileOf := func(i, j int32) int {
						p, off := d.PlaceOffset(i, j)
						return base[p] + grids[p].TileOf(off)
					}
					tiles := base[len(base)-1]
					if _, ok := dag.QuotientSpan(app.pat, tileOf, tiles, maxQuotientEdges); ok && tiles < int(h)*int(w) {
						first = cand
					}
				}
				grids, lay := autoLayout(app.pat, d)
				name := fmt.Sprintf("%s/%s/%d places: %s", app.name, bd.name, places, describeLayout(grids, lay, false))
				switch {
				case first < 0 && lay.ok:
					t.Errorf("%s: every candidate is cyclic, yet the engine coarsened", name)
				case first >= 0 && (!lay.ok || lay.shape != first):
					t.Errorf("%s: candidate %d is the first acyclic one, the engine took %+v", name, first, lay)
				case first > shapeRect:
					thinned++
				}
				t.Log(name)
			}
		}
	}
	if thinned == 0 {
		t.Error("no configuration needed a thinner shape; the table does not exercise the chain")
	}
}

// TestCyclicRowsCoarsen is the swlag-tcp-push configuration in process:
// cyclic rows used to make every multi-cell tile cyclic and the run fall
// back to one tile task per cell.
func TestCyclicRowsCoarsen(t *testing.T) {
	pat := patterns.NewDiagonal(301, 301)
	cfg := baseConfig(pat, 2)
	cfg.Threads = 1
	cfg.CacheSize = 1024
	cfg.NewDist = func(h, w int32, n int) dist.Dist { return dist.NewCyclicRow(h, w, n) }
	s := runAndCheck(t, cfg).Stats()
	if perK := s.TilesExecuted * 1000 / s.ComputedCells; perK > 25 {
		t.Fatalf("%d tile tasks for %d cells (%d per kcell, want <= 25): %s", s.TilesExecuted, s.ComputedCells, perK, s.TileLayout)
	}
}

// TestBlockRowTilesKeepEdgesInside counts, from the layout alone, the
// dependency edges of swlag-local's grid whose two ends lie in different
// tiles: each costs an atomic decrement or a message. A tile of consecutive
// offsets longer than a row cut nearly every up and diagonal edge.
func TestBlockRowTilesKeepEdgesInside(t *testing.T) {
	pat := patterns.NewDiagonal(1401, 1401)
	d := dist.NewBlockRow(1401, 1401, 2)
	grids, lay := autoLayout(pat, d)
	if !lay.ok {
		t.Fatal("auto shape under block rows reported cyclic")
	}
	tileOf := func(id dag.VertexID) [2]int {
		p, off := d.PlaceOffset(id.I, id.J)
		return [2]int{p, grids[p].TileOf(off)}
	}
	var cross, cells int
	var buf []dag.VertexID
	for i := int32(0); i < 1401; i++ {
		for j := int32(0); j < 1401; j++ {
			cells++
			buf = pat.Dependencies(i, j, buf[:0])
			for _, dep := range buf {
				if tileOf(dep) != tileOf(dag.VertexID{I: i, J: j}) {
					cross++
				}
			}
		}
	}
	if ratio := float64(cross) / float64(cells); ratio > 0.2 {
		t.Fatalf("%.3f cross-tile edges per cell (want <= 0.2) under %s", ratio, describeLayout(grids, lay, true))
	}
}

// TestTilingShapeParity is the parity matrix over explicit tile shapes —
// single cells, row segments, column segments, blocks, a block with ragged
// edges one cell wide and one cell high, a tile larger than any box — on
// every dist. Shapes a dist cannot take (the quotient is cyclic) must fall
// back, not hang.
func TestTilingShapeParity(t *testing.T) {
	shapes := []tileArm{
		{label: "shape=1x1", shape: [2]int{1, 1}}, {label: "shape=1x5", shape: [2]int{1, 5}},
		{label: "shape=3x1", shape: [2]int{3, 1}}, {label: "shape=2x3", shape: [2]int{2, 3}},
		{label: "shape=5x17", shape: [2]int{5, 17}}, {label: "shape=64x64", shape: [2]int{64, 64}},
	}
	pat := patterns.NewDiagonal(24, 18)
	for _, bd := range boxDists {
		t.Run(bd.name, func(t *testing.T) { tilingParity(t, pat, 4, bd.make, shapes) })
	}
	t.Run("func", func(t *testing.T) { tilingParity(t, pat, 4, funcDist, shapes) })
}

// TestShapeKillMidRunRecovers kills a non-zero place mid-run under each box
// dist with two workers a place: the rebuilt epoch cuts the restricted
// dist's boxes afresh and re-derives the counters of rectangles that are
// partly finished. Cells are computed twice only because of the kill (the
// parity matrix pins exactly-once without one).
func TestShapeKillMidRunRecovers(t *testing.T) {
	pat := patterns.NewDiagonal(24, 18)
	for _, bd := range boxDists {
		t.Run(bd.name, func(t *testing.T) {
			cfg, gate, release := gatedConfig(pat, 4, 150)
			cfg.Threads = 2
			cfg.NewDist = bd.make
			cfg.TileShape = bd.shape
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
			s := cl.Stats()
			if s.ComputedCells < 24*18 || s.Recoveries < 1 || s.TilesExecuted*2 > s.ComputedCells || !strings.HasSuffix(s.TileLayout, "stencil") {
				t.Fatalf("computed %d cells in %d tiles, %d recoveries (%s)", s.ComputedCells, s.TilesExecuted, s.Recoveries, s.TileLayout)
			}
			checkResult(t, cl, pat)
		})
	}
}

// TestBlockRowsDrainTowardTheBoundary is the priority's contract, in trace
// order and without a clock: under block rows place 0 works strip by strip,
// so place 1's first tile can start once place 0 has finished one strip.
// Place 0's compute refuses to begin a tile beyond (one strip + 1) until
// place 1 has computed something; were ready tiles claimed in any order that
// leaves the first strip's last tile for later, place 1 would never start
// and the run would hang here.
func TestBlockRowsDrainTowardTheBoundary(t *testing.T) {
	const h, w = 64, 256
	pat := patterns.NewDiagonal(h, w)
	d := dist.NewBlockRow(h, w, 2)
	cfg := baseConfig(pat, 2)
	cfg.Threads = 1
	cfg.TileShape = [2]int{4, 32} // 8 tiles a strip, 8 strips a place
	cfg.tileCheck = &tileLayoutCache{}
	grids, _ := cfg.Common.tileGrids(d)
	perStrip := grids[0].TileRows()

	var mu sync.Mutex
	started := map[int]bool{}
	below := make(chan struct{})
	var once sync.Once
	cfg.Compute = func(i, j int32, deps []Cell[int64]) int64 {
		p, off := d.PlaceOffset(i, j)
		if p == 1 {
			once.Do(func() { close(below) })
			return sumCompute(i, j, deps)
		}
		mu.Lock()
		started[grids[0].TileOf(off)] = true
		n := len(started)
		mu.Unlock()
		if n > perStrip+1 {
			select {
			case <-below:
			case <-time.After(20 * time.Second):
				panic(fmt.Sprintf("place 0 is on its tile %d of %d a strip and place 1 has not started", n, perStrip))
			}
		}
		return sumCompute(i, j, deps)
	}
	runAndCheck(t, cfg)
}

// TestTileCheckMemoKeysCustomDistsByValue: two custom dists in one process
// with the same pattern, place count and tile size used to share one
// memoized verdict, their Name being the same constant. In this order the
// second run took "acyclic" from the first, coarsened a cyclic quotient and
// hung; in the other the first run's "cyclic" sent the block layout to
// single cells.
func TestTileCheckMemoKeysCustomDistsByValue(t *testing.T) {
	pat := patterns.NewDiagonal(32, 32)
	blocks := func(i, j int32) int { return int(i / 16) }
	dealt := func(i, j int32) int { return int(i % 2) }
	for _, order := range [][]func(i, j int32) int{{blocks, dealt}, {dealt, blocks}} {
		for k, fn := range order {
			cfg := baseConfig(pat, 2)
			cfg.TileSize = 64
			cfg.Strategy = sched.Local
			cfg.NewDist = func(h, w int32, n int) dist.Dist {
				d, err := dist.NewFunc(h, w, []int{0, 1}, fn)
				if err != nil {
					panic(err)
				}
				return d
			}
			cl, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- cl.Run() }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("run %d of the order hung: it scheduled by another dist's verdict", k+1)
			}
			checkResult(t, cl, pat)
			// i/16 keeps 64-offset runs acyclic; i%2 cannot.
			coarse := cl.Stats().TilesExecuted < cl.Stats().ComputedCells
			if wantCoarse := fn(16, 0) == 1 && fn(1, 0) == 0; coarse != wantCoarse {
				t.Fatalf("run %d of the order: coarsened = %v, want %v (%s)", k+1, coarse, wantCoarse, cl.Stats().TileLayout)
			}
		}
	}
}
