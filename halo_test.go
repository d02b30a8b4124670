package dpx10_test

import (
	"strings"
	"testing"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/apps"
	"github.com/dpx10/dpx10/internal/bench"
	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/distarray"
)

// Counter gates for the tile halo: the demand side of value movement is
// one batched fetch per owning place per tile, so the fetch counters are
// functions of the tile layout, not of the cell count. In process, no wall
// clock; every run is verified cell by cell against Serial().

// TestHaloFetchCallsBoundedByTiles is the benchmark's kp-tcp-fetch shape —
// knapsack on block columns with a small cache — with value push off, so
// place 1 fetches each value of place 0's it reads that the cache does not
// hold. (With push on it keeps every pushed value and fetches none.) A
// per-dependency fetch pays one round trip for each of them (Σw ≈ 20 000
// here); a halo pays at most one per tile per other place.
func TestHaloFetchCallsBoundedByTiles(t *testing.T) {
	const places = 2
	app := apps.NewRandomKnapsack(200, 200, 100, 1000, 1)
	pat, err := app.Pattern()
	if err != nil {
		t.Fatal(err)
	}
	d, err := dpx10.Run[int64](app, pat,
		dpx10.Places(places), dpx10.WithDist(dpx10.BlockColDist), dpx10.CacheSize(256),
		bench.WithoutValuePush(), dpx10.WithCodec[int64](dpx10.Int64Codec{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(d); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.RemoteFetches == 0 {
		t.Fatal("no value was fetched: the scenario no longer reads remote values")
	}
	if bound := st.TilesExecuted * (places - 1); st.FetchCalls > bound {
		t.Fatalf("FetchCalls = %d over %d tiles on %d places, want <= %d (one per tile per other place)",
			st.FetchCalls, st.TilesExecuted, places, bound)
	}
}

// TestHaloFetchesDistinctRemoteDepsPerTile pins RemoteFetches with the
// cache off to its closed form: every tile fetches each distinct
// dependency another place owns exactly once, however many of its cells
// read it. Both layouts cut 37-cell tiles as 1 x 37 row segments of the
// place's box (the run's reported layout is checked to say so).
func TestHaloFetchesDistinctRemoteDepsPerTile(t *testing.T) {
	const places, tile = 3, 37
	app := apps.NewRandomKnapsack(40, 30, 50, 150, 7)
	pat, err := app.Pattern()
	if err != nil {
		t.Fatal(err)
	}
	h, w := pat.Bounds()
	layouts := map[dpx10.DistKind]dist.Dist{
		dpx10.BlockColDist:  dist.NewBlockCol(h, w, places),
		dpx10.CyclicRowDist: dist.NewCyclicRow(h, w, places),
	}
	for kind, dd := range layouts {
		t.Run(string(kind), func(t *testing.T) {
			var want int64
			var deps []dag.VertexID
			for p := 0; p < places; p++ {
				box := dd.LocalBox(p)
				grid := distarray.NewTileGrid(box.Rows, box.Cols, 1, tile)
				for tl := 0; tl < grid.NumTiles(); tl++ {
					halo := map[dag.VertexID]bool{}
					for tb, off := grid.TileBox(tl), 0; off < tb.W; off++ {
						i, j := dd.CellAt(p, tb.Lo+off)
						deps = pat.Dependencies(i, j, deps[:0])
						for _, dep := range deps {
							if dd.Place(dep.I, dep.J) != p {
								halo[dep] = true
							}
						}
					}
					want += int64(len(halo))
				}
			}
			d, err := dpx10.Run[int64](app, pat,
				dpx10.Places(places), dpx10.WithDist(kind), dpx10.WithTileSize(tile),
				dpx10.WithCodec[int64](dpx10.Int64Codec{}))
			if err != nil {
				t.Fatal(err)
			}
			if err := app.Verify(d); err != nil {
				t.Fatal(err)
			}
			if lay := d.Stats().TileLayout; strings.Count(lay, " in ") != strings.Count(lay, " in 1x37)") {
				t.Fatalf("layout %q: want 1x37 tiles on every place", lay)
			}
			if got := d.Stats().RemoteFetches; got != want || want == 0 {
				t.Fatalf("RemoteFetches = %d, want %d (distinct remote dependencies summed over tiles)", got, want)
			}
		})
	}
}
