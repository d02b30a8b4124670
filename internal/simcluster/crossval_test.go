package simcluster

import (
	"testing"

	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/core"
	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/dist"
)

// TestSimMatchesEngineTraffic cross-validates the simulator against the
// real runtime: with the cache off, local scheduling and single-cell tiles
// (the paper's per-vertex model, which is what the simulator implements),
// the number of remote dependency transfers is a deterministic function of
// (pattern, distribution) — every vertex fetches each remotely-owned
// dependency exactly once — so the simulator and the engine must agree
// exactly. This pins the simulator's communication model to the engine's
// actual behaviour, which is what makes the simulated Figures 10/11/13
// credible. With tiles the engine fetches each distinct remote dependency
// once per tile, so its count can only be lower.
func TestSimMatchesEngineTraffic(t *testing.T) {
	cases := []struct {
		name   string
		pat    dag.Pattern
		places int
		nd     func(h, w int32, n int) dist.Dist
	}{
		{"diagonal/blockrow", patterns.NewDiagonal(18, 15), 3,
			func(h, w int32, n int) dist.Dist { return dist.NewBlockRow(h, w, n) }},
		{"grid/blockcol", patterns.NewGrid(12, 16), 4,
			func(h, w int32, n int) dist.Dist { return dist.NewBlockCol(h, w, n) }},
		{"interval/blockrow", patterns.NewInterval(14), 3,
			func(h, w int32, n int) dist.Dist { return dist.NewBlockRow(h, w, n) }},
		{"triangle/cyclicrow", patterns.NewTriangle(10), 3,
			func(h, w int32, n int) dist.Dist { return dist.NewCyclicRow(h, w, n) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			h, w := tc.pat.Bounds()

			// Real engine, cache off, local scheduling.
			engine := func(tileSize int) core.Stats {
				cfg := core.Config[int64]{
					Common: core.Common{Places: tc.places, Pattern: tc.pat, NewDist: tc.nd, TileSize: tileSize},
					Codec:  codec.Int64{},
					Compute: func(i, j int32, deps []core.Cell[int64]) int64 {
						v := int64(i) + int64(j)
						for _, d := range deps {
							v += d.Value
						}
						return v
					},
				}
				cl, err := core.NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := cl.Run(); err != nil {
					t.Fatal(err)
				}
				return cl.Stats()
			}
			perVertex := engine(1)
			engineFetches := perVertex.RemoteFetches
			if tiled := engine(0).RemoteFetches; tiled > engineFetches {
				t.Fatalf("tiled engine fetched %d values, per-vertex %d: a tile's halo must not fetch more",
					tiled, engineFetches)
			}

			// Simulator, same pattern and distribution.
			sim, err := New(tc.pat, tc.nd(h, w, tc.places), DefaultModel(2))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.RemoteFetches != engineFetches {
				t.Fatalf("simulator models %d remote fetches, engine measured %d",
					res.RemoteFetches, engineFetches)
			}
			if res.ComputedCells != perVertex.ComputedCells {
				t.Fatalf("simulator computed %d cells, engine %d",
					res.ComputedCells, perVertex.ComputedCells)
			}
		})
	}
}
