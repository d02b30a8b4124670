package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/dist"
)

// depOracle is a compute() that checks every call it gets: deps must be
// Pattern.Dependencies(i, j), in that order, each holding its value in the
// serial table. With scribble it then writes over deps, which the engine
// must not read back. The first violation is kept for the test to report.
type depOracle struct {
	pat      dag.Pattern
	want     map[dag.VertexID]int64
	scribble bool

	mu  sync.Mutex
	err error
}

func newDepOracle(pat dag.Pattern) *depOracle {
	return &depOracle{pat: pat, want: refValuesWith(pat, weigh)}
}

func (o *depOracle) compute(i, j int32, deps []Cell[int64]) int64 {
	var buf [8]dag.VertexID
	ids := o.pat.Dependencies(i, j, buf[:0])
	if len(deps) != len(ids) {
		o.fail("cell (%d,%d): %d deps, the pattern says %d", i, j, len(deps), len(ids))
	}
	for k := range min(len(deps), len(ids)) {
		if d := deps[k]; d.ID != ids[k] || d.Value != o.want[ids[k]] {
			o.fail("cell (%d,%d): deps[%d] is %v = %d, want %v = %d", i, j, k, d.ID, d.Value, ids[k], o.want[ids[k]])
		}
	}
	v := weigh(i, j, deps)
	if o.scribble {
		for k := range deps {
			deps[k] = Cell[int64]{ID: dag.VertexID{I: -1, J: -1}, Value: -1}
		}
	}
	return v
}

func (o *depOracle) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err == nil {
		o.err = fmt.Errorf(format, args...)
	}
}

func (o *depOracle) failure() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}

// localReads is what Stats.LocalReads must read after a fault-free run of
// pat under d: one per edge whose two cells the same place owns.
func localReads(pat dag.Pattern, d dist.Dist) (n int64) {
	h, w := pat.Bounds()
	var buf []dag.VertexID
	for i := range h {
		for j := range w {
			if !dag.IsActive(pat, i, j) {
				continue
			}
			for _, dep := range pat.Dependencies(i, j, buf[:0]) {
				if d.Place(dep.I, dep.J) == d.Place(i, j) {
					n++
				}
			}
		}
	}
	return n
}

// TestStencilWalkDependencyOracle runs the stencil walk under a compute()
// that checks every call's deps against the pattern and the serial table:
// over a wavefront, a knapsack whose second offset moves from row to row (so
// every row's interior starts at another column), and a stencil of reach 2
// whose (0, -1) offset is not the first; under block rows, cyclic rows, block
// columns and cyclic (dealt) columns; at auto, 1 × k and k × 1 tiles. Each
// runs fault-free, fault-free with a compute() that writes over deps, and
// with place 2 killed mid-run, so the recovery walks rows with restored
// cells. Every run is bit-exact, and a fault-free one reads locally exactly
// the edges whose cells share a place.
func TestStencilWalkDependencyOracle(t *testing.T) {
	const places = 3
	knap, err := patterns.NewKnapsack([]int32{3, 1, 4, 1, 5, 7, 2, 6, 5, 3, 5, 2, 7, 4}, 30)
	if err != nil {
		t.Fatal(err)
	}
	pats := []struct {
		name string
		pat  dag.Pattern
	}{
		{"diagonal", patterns.NewDiagonal(30, 26)},
		{"knapsack", knap},
		{"reach2", newOffsetStencil(24, 22, []byte{1, 0, 0, 1, 2, 1, 0, 2}, false)},
	}
	layouts := []struct {
		name    string
		newDist func(h, w int32, n int) dist.Dist
	}{
		{"blockrow", func(h, w int32, n int) dist.Dist { return dist.NewBlockRow(h, w, n) }},
		{"cyclicrow", func(h, w int32, n int) dist.Dist { return dist.NewCyclicRow(h, w, n) }},
		{"blockcol", func(h, w int32, n int) dist.Dist { return dist.NewBlockCol(h, w, n) }},
		{"cycliccol", func(h, w int32, n int) dist.Dist { return dist.NewCyclicCol(h, w, n) }},
	}
	tiles := []tileArm{{label: "auto"}, {label: "1x5", shape: [2]int{1, 5}}, {label: "5x1", shape: [2]int{5, 1}}}
	for _, pc := range pats {
		cells := len(refValues(pc.pat))
		for _, lc := range layouts {
			for _, tile := range tiles {
				for _, run := range []string{"plain", "scribble", "kill"} {
					t.Run(strings.Join([]string{pc.name, lc.name, tile.label, run}, "/"), func(t *testing.T) {
						o := newDepOracle(pc.pat)
						o.scribble = run == "scribble"
						cfg := baseConfig(pc.pat, places)
						cfg.Compute, cfg.NewDist, cfg.TileShape = o.compute, lc.newDist, tile.shape
						var gate chan struct{}
						var release func()
						if run == "kill" {
							cfg.Compute, gate, release = gatedCompute(o.compute, cells/2)
						}
						cl, err := NewCluster(cfg)
						if err != nil {
							t.Fatal(err)
						}
						done := make(chan error, 1)
						go func() { done <- cl.Run() }()
						if gate != nil {
							<-gate
							cl.Kill(2)
							release()
						}
						if err := <-done; err != nil {
							t.Fatalf("Run: %v", err)
						}
						if err := o.failure(); err != nil {
							t.Fatal(err)
						}
						res, err := cl.Result()
						if err != nil {
							t.Fatal(err)
						}
						for id, wv := range o.want {
							if got := res.Value(id.I, id.J); !res.Finished(id.I, id.J) || got != wv {
								t.Fatalf("cell %v = %d, want %d", id, got, wv)
							}
						}
						s := cl.Stats()
						if !strings.HasSuffix(s.TileLayout, "stencil") {
							t.Fatalf("layout %q: want the stencil arm", s.TileLayout)
						}
						if run == "kill" {
							if s.Recoveries < 1 {
								t.Fatal("no recovery recorded")
							}
							return
						}
						if s.ComputedCells != int64(cells) {
							t.Fatalf("computed %d cells of %d", s.ComputedCells, cells)
						}
						h, w := pc.pat.Bounds()
						if want := localReads(pc.pat, lc.newDist(h, w, places)); s.LocalReads != want {
							t.Fatalf("LocalReads = %d, want %d", s.LocalReads, want)
						}
					})
				}
			}
		}
	}
}
