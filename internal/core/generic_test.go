package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/distarray"
)

// TestDescribeTileOrder is the generic arm's order contract on patterns whose
// same-tile dependencies lie at smaller offsets (Grid, RowWave) and at larger
// ones (ColWave's column below, Interval's row below), with one cell restored
// finished as a recovery leaves it: on every tile of every place,
// describeTile lists each unfinished cell exactly once, after every
// unfinished dependency it has in the tile, and no finished cell.
func TestDescribeTileOrder(t *testing.T) {
	const places = 2
	for _, pat := range []dag.Pattern{
		hiddenStencil{patterns.NewGrid(9, 11)}, patterns.NewRowWave(9, 11),
		patterns.NewColWave(9, 11), patterns.NewInterval(12),
	} {
		h, w := pat.Bounds()
		d := dist.NewBlockRow(h, w, places)
		cfg := baseConfig(pat, places)
		for p := 0; p < places; p++ {
			box := d.LocalBox(p)
			for _, sh := range [][2]int{{1, 4}, {2, 3}, {3, box.Cols}, {box.Rows, box.Cols}} {
				name := fmt.Sprintf("%T place %d %dx%d tiles", pat, p, sh[0], sh[1])
				ch := distarray.NewChunk[int64](p, d)
				ch.ConfigureGrid(distarray.NewTileGrid(box.Rows, box.Cols, sh[0], sh[1]))
				ch.InitFlags(pat)
				for off := ch.Len() / 2; off < ch.Len(); off++ {
					if !ch.Finished(off) {
						ch.SetResult(off, 0)
						break
					}
				}
				ch.ActivateTiles(pat)
				pe := &placeEngine[int64]{self: p, cfg: &cfg}
				st := &epochState[int64]{d: d, chunk: ch}
				sc := newScratch[int64](places, 0)
				for tl := 0; tl < ch.NumTiles(); tl++ {
					tb := ch.TileBox(tl)
					td := pe.describeTile(st, sc, tl)
					pos := map[int]int{} // listed offset -> place in the order
					for k, s := range td.order {
						off := tb.Lo + int(s)
						if _, twice := pos[off]; twice || !tb.Holds(off) || ch.Finished(off) {
							t.Fatalf("%s: tile %d lists offset %d (twice %v, in tile %v, finished %v)",
								name, tl, off, twice, tb.Holds(off), ch.Finished(off))
						}
						pos[off] = k
					}
					for off := tb.Lo; off < tb.Lo+tb.Span(); off++ {
						if _, listed := pos[off]; tb.Holds(off) && !ch.Finished(off) && !listed {
							t.Fatalf("%s: tile %d leaves unfinished offset %d out", name, tl, off)
						}
					}
					for off, k := range pos {
						i, j := d.CellAt(p, off)
						for _, dep := range pat.Dependencies(i, j, nil) {
							dp, doff := d.PlaceOffset(dep.I, dep.J)
							if dp == p && tb.Holds(doff) && !ch.Finished(doff) && pos[doff] >= k {
								t.Fatalf("%s: tile %d runs (%d,%d) before its dependency %v", name, tl, i, j, dep)
							}
						}
					}
				}
			}
		}
	}
}

// TestGenericArmKeepsNoDependencyLists states the generic arm's memory bound
// and enforces it: a run allocates at most 1 KiB per active cell, on RowWave,
// whose every cell depends on the whole row above. Dependency lists kept for
// the run would cost 16 B per dependency, 4.8 KB per cell here.
func TestGenericArmKeepsNoDependencyLists(t *testing.T) {
	cfg := baseConfig(patterns.NewRowWave(300, 300), 2)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	s := cl.Stats()
	if !strings.HasSuffix(s.TileLayout, "generic") || s.ComputedCells != 300*300 {
		t.Fatalf("layout %q, %d cells: want 90000 on the generic arm", s.TileLayout, s.ComputedCells)
	}
	if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(s.ComputedCells); per > 1024 {
		t.Fatalf("the run allocated %.0f B per cell, over the 1 KiB bound", per)
	}
}
