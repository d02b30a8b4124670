package core

import (
	"fmt"
	"slices"
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
	c := Common{Pattern: pat}
	return c.tileGrids(d)
}

// TestAutoTileShape pins the auto tile of one place's box: about 16 tiles per
// worker (Threads 0 counts as the default 2), at least 64 under a column
// split, clamped to [8, 2048] cells before the row count is rounded up. The
// boxes are the benchmark's: sw-smalljobs (SW 128² on two block-row places),
// swlag-local, swlag-tcp-push's dealt rows and kp-tcp-fetch's column bands.
func TestAutoTileShape(t *testing.T) {
	const W, B, D = dist.Whole, dist.Block, dist.Dealt
	for _, tc := range []struct {
		name                string
		box                 dist.Box
		threads, size       int
		wantBI, wantBJ, num int
	}{
		{"sw-smalljobs top, 1 thread", dist.Box{Rows: 64, Cols: 129, RowAxis: B, ColAxis: W}, 1, 0, 8, 65, 16},
		{"sw-smalljobs bottom, 1 thread", dist.Box{Rows: 65, Cols: 129, RowAxis: B, ColAxis: W}, 1, 0, 9, 65, 16},
		{"sw-smalljobs top, 2 threads", dist.Box{Rows: 64, Cols: 129, RowAxis: B, ColAxis: W}, 2, 0, 4, 65, 32},
		{"sw-smalljobs bottom, 2 threads", dist.Box{Rows: 65, Cols: 129, RowAxis: B, ColAxis: W}, 2, 0, 5, 65, 26},
		{"sw-smalljobs top, default threads", dist.Box{Rows: 64, Cols: 129, RowAxis: B, ColAxis: W}, 0, 0, 4, 65, 32},
		{"sw-smalljobs top, 4 threads", dist.Box{Rows: 64, Cols: 129, RowAxis: B, ColAxis: W}, 4, 0, 2, 65, 64},
		{"sw-smalljobs bottom, 4 threads", dist.Box{Rows: 65, Cols: 129, RowAxis: B, ColAxis: W}, 4, 0, 3, 65, 44},
		{"swlag-local, at the cap", dist.Box{Rows: 700, Cols: 1401, RowAxis: B, ColAxis: W}, 1, 0, 12, 176, 59 * 8},
		{"swlag-tcp-push, dealt rows", dist.Box{Rows: 151, Cols: 301, RowAxis: D, ColAxis: W}, 1, 0, 1, 76, 151 * 4},
		{"kp-tcp-fetch band, 1 thread", dist.Box{Rows: 201, Cols: 500, RowAxis: W, ColAxis: B}, 1, 0, 4, 500, 51},
		{"kp-tcp-fetch band, 4 threads", dist.Box{Rows: 201, Cols: 500, RowAxis: W, ColAxis: B}, 4, 0, 4, 500, 51},
		{"kp-tcp-fetch band, 8 threads", dist.Box{Rows: 201, Cols: 500, RowAxis: W, ColAxis: B}, 8, 0, 2, 500, 101},
		{"8-cell floor", dist.Box{Rows: 10, Cols: 10, RowAxis: B, ColAxis: W}, 1, 0, 1, 8, 20},
		{"2048-cell cap, passed by less than a row", dist.Box{Rows: 1000, Cols: 1000, RowAxis: W, ColAxis: W}, 1, 0, 3, 1000, 334},
		{"TileSize honoured, 1 thread", dist.Box{Rows: 64, Cols: 129, RowAxis: B, ColAxis: W}, 1, 100, 2, 65, 64},
		{"TileSize honoured, 4 threads", dist.Box{Rows: 64, Cols: 129, RowAxis: B, ColAxis: W}, 4, 100, 2, 65, 64},
	} {
		c := Common{Threads: tc.threads, TileSize: tc.size}
		bi, bj := c.tileShape(tc.box, shapeRect)
		g := distarray.NewTileGrid(tc.box.Rows, tc.box.Cols, bi, bj)
		num := g.NumTiles()
		if bi != tc.wantBI || bj != tc.wantBJ || num != tc.num {
			t.Errorf("%s: %dx%d in %dx%d, %d tiles; want %dx%d, %d tiles",
				tc.name, tc.box.Rows, tc.box.Cols, bi, bj, num, tc.wantBI, tc.wantBJ, tc.num)
		}
	}
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

// TestEveryPlaceDerivesTheSameLayout runs a job under each dist, then has
// every place derive the layout on its own, from its own configuration and a
// distribution it builds itself, with nothing shared between the places: at
// epoch 0, where the result must be what the job ran with, and after place 1
// is restricted away.
func TestEveryPlaceDerivesTheSameLayout(t *testing.T) {
	pat := patterns.NewDiagonal(40, 36)
	for _, bd := range append(boxDists, namedDist{name: "func", make: funcDist}) {
		cfg := baseConfig(pat, 3)
		cfg.NewDist = bd.make
		cl := runAndCheck(t, cfg)
		ran := cl.jr.engines[0].current()
		for epoch, alive := range []func(int) bool{nil, func(p int) bool { return p != 1 }} {
			refGrids, refLay := ran.grids, ran.lay
			for _, pe := range cl.jr.engines {
				c := pe.cfg.Common // this place's own copy; tileGrids reads no cache
				d := c.NewDist(40, 36, 3)
				if alive != nil {
					var err error
					if d, err = d.Restrict(alive); err != nil {
						t.Fatal(err)
					}
				}
				grids, lay := c.tileGrids(d)
				if alive != nil && pe.self == 0 {
					refGrids, refLay = grids, lay
				}
				if lay != refLay || len(grids) != len(refGrids) {
					t.Fatalf("%s epoch %d: place %d derived %+v, place 0 %+v", bd.name, epoch, pe.self, lay, refLay)
				}
				for k := range grids {
					if grids[k] != refGrids[k] {
						t.Fatalf("%s epoch %d: place %d cut box %d as %s, place 0 as %s", bd.name, epoch, pe.self, k, grids[k], refGrids[k])
					}
				}
			}
		}
		if s := cl.Stats(); s.TileLayout == "" || s.TileParallelism != ran.lay.parallelism() {
			t.Fatalf("%s: Stats report layout %q parallelism %v", bd.name, s.TileLayout, s.TileParallelism)
		}
	}
}

// countingDist counts the lookups the layout makes of a distribution.
type countingDist struct {
	dist.Dist
	calls int
}

func (d *countingDist) PlaceOffset(i, j int32) (int, int) {
	d.calls++
	return d.Dist.PlaceOffset(i, j)
}

func (d *countingDist) CellAt(p, off int) (int32, int32) {
	d.calls++
	return d.Dist.CellAt(p, off)
}

// TestStencilLayoutWorkIsPerTile is the work gate of the tile cover: a
// declared stencil's layout is decided with a bounded number of
// distribution lookups per tile and offset on every box dist, not one per
// cell and dependency.
func TestStencilLayoutWorkIsPerTile(t *testing.T) {
	const h, w = 97, 131
	pat := patterns.NewDiagonal(h, w)
	offsets := len(pat.Offsets(0))
	for _, bd := range boxDists {
		for _, places := range []int{2, 3, 4} {
			d := &countingDist{Dist: bd.make(h, w, places)}
			grids, lay := (&Common{Pattern: pat}).tileGrids(d)
			if !lay.ok || lay.shape != shapeRect || lay.span == 0 {
				t.Fatalf("%s/%d places: %s", bd.name, places, describeLayout(grids, lay, true))
			}
			if limit := 16 * lay.tiles * offsets; d.calls > limit {
				t.Errorf("%s/%d places: %d lookups for %d tiles (limit %d, %d cells)", bd.name, places, d.calls, lay.tiles, limit, h*w)
			}
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

// FuzzStencilLayout checks the tile cover (coverEdges) against the per-cell
// scan over the same grids: on every candidate whose tiles are global
// rectangles, the two edge sets, acyclicity verdicts and spans are equal, and
// the auto rectangle of a stencil is always acyclic, so such a layout never
// leaves the first candidate. tileGrids must pick what the per-cell scan,
// candidate by candidate, picks. The inputs choose the offsets (optionally
// row-dependent), one of the six box dists over 1–5 places, optionally with
// a place restricted away, and optionally a pinned tile shape.
func FuzzStencilLayout(f *testing.F) {
	diagonal := []byte{1, 1, 1, 0, 0, 1} // (-1,-1) (-1,0) (0,-1): SWLAG
	for dk := range len(boxDists) {
		for places := range uint8(5) {
			f.Add(uint8(30), uint8(44), uint8(dk), places, uint8(0), uint8(0), uint8(0), false, diagonal)
		}
		// Reach 2 on both axes.
		f.Add(uint8(17), uint8(19), uint8(dk), uint8(2), uint8(0), uint8(0), uint8(0), false, []byte{2, 1, 0, 2, 1, 0})
	}
	// Block columns of two widths, cut into tiles of two heights: a band of
	// the cover crosses both.
	f.Add(uint8(32), uint8(10), uint8(1), uint8(3), uint8(0), uint8(0), uint8(0), false, diagonal)
	// Knapsack: (-1,0) and a (-1,-w_i) that moves from row to row.
	f.Add(uint8(21), uint8(60), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), true, []byte{1, 0, 1, 3})
	f.Add(uint8(21), uint8(60), uint8(2), uint8(3), uint8(0), uint8(0), uint8(0), true, []byte{1, 0, 1, 3})
	// The same on pinned 2 x 5 tiles: every tile holds two runs of rows.
	f.Add(uint8(21), uint8(60), uint8(0), uint8(1), uint8(0), uint8(2), uint8(4), true, []byte{1, 0, 1, 3})
	// A row-dependent (0, -5k) reaching across several tiles of a row, on
	// block rows with place 4 of 5 restricted away.
	f.Add(uint8(35), uint8(44), uint8(0), uint8(4), uint8(5), uint8(0), uint8(0), true, []byte{0, 5})
	// Place 2 of 4 restricted away, as after a kill.
	f.Add(uint8(30), uint8(44), uint8(0), uint8(3), uint8(3), uint8(0), uint8(0), false, diagonal)
	// A pinned 2 x 3 tile across cyclic rows: not rectangles, scanned per cell.
	f.Add(uint8(24), uint8(18), uint8(2), uint8(3), uint8(0), uint8(1), uint8(2), false, diagonal)
	f.Fuzz(func(t *testing.T, h, w, dk, places, dead, bi, bj uint8, rowDep bool, offs []byte) {
		pl := 1 + int(places)%5
		hh, ww := int32(max(int(h)%48, 2*pl)), int32(max(int(w)%80, 2*pl))
		pat := newOffsetStencil(hh, ww, offs, rowDep)
		d := boxDists[int(dk)%len(boxDists)].make(hh, ww, pl)
		if x := int(dead) % (pl + 1); pl > 1 && x > 0 {
			var err error
			if d, err = d.Restrict(func(p int) bool { return p != x-1 }); err != nil {
				t.Fatal(err)
			}
		}
		c := Common{Pattern: pat}
		if bi != 0 {
			c.TileShape = [2]int{1 + int(bi-1)%12, 1 + int(bj)%64}
		}
		ps, cells := d.Places(), int(hh)*int(ww)
		rank := make([]int, ps[len(ps)-1]+1)
		for k, p := range ps {
			rank[p] = k
		}
		first, firstBase := c.cutGrids(d, shapeRect)
		want := tileLayout{shape: shapeCell}
		if firstBase[len(ps)] == cells {
			want = tileLayout{ok: true}
		}
		last := shapeCell
		if c.TileShape != [2]int{} {
			last = shapeRow
		}
		for cand := shapeRect; cand < last && !want.ok; cand++ {
			g, b := c.cutGrids(d, cand)
			tiles := b[len(ps)]
			if tiles == cells || cand != shapeRect && slices.Equal(g, first) {
				continue
			}
			tileOf := func(i, j int32) int {
				p, off := d.PlaceOffset(i, j)
				return b[rank[p]] + g[rank[p]].TileOf(off)
			}
			span, ok := dag.QuotientSpan(pat, tileOf, tiles, 1<<30)
			if ok {
				want = tileLayout{ok: true, shape: cand, tiles: tiles, span: span}
			}
			cover, rect := coverEdges(pat, d, g, b, rank, 1<<30)
			if !rect {
				continue
			}
			if cand == shapeRect && !ok {
				t.Fatalf("%s: a stencil's rectangle tiles %v have a cyclic quotient", d.Name(), g)
			}
			scan, _ := dag.QuotientEdges(pat, tileOf, 1<<30)
			slices.Sort(cover)
			slices.Sort(scan)
			cover, scan = slices.Compact(cover), slices.Compact(scan)
			if !slices.Equal(cover, scan) {
				t.Fatalf("%s, %v: cover edges %v, per-cell %v", d.Name(), g, edgeList(cover), edgeList(scan))
			}
			if cs, cok := dag.Span(cover, tiles); cok != ok || cok && cs != span {
				t.Fatalf("%s, %v: cover span %d (acyclic %v), per-cell %d (%v)", d.Name(), g, cs, cok, span, ok)
			}
		}
		if _, lay := c.tileGrids(d); lay != want {
			t.Fatalf("%s, shape %v: tileGrids %+v, per-cell candidates %+v", d.Name(), c.TileShape, lay, want)
		}
	})
}

// edgeList renders packed quotient edges as from->to pairs.
func edgeList(edges []uint64) []string {
	out := make([]string, len(edges))
	for k, e := range edges {
		out[k] = fmt.Sprintf("%d->%d", e>>32, uint32(e))
	}
	return out
}
