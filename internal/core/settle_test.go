package core

import (
	"fmt"
	"maps"
	"testing"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/distarray"
)

// offsetStencil is a dense stencil with any offsets per row.
type offsetStencil struct {
	h, w int32
	rows [][]dag.Offset
	tbl  *dag.StencilTable
}

func (p *offsetStencil) Bounds() (int32, int32)       { return p.h, p.w }
func (p *offsetStencil) Offsets(i int32) []dag.Offset { return p.rows[i] }
func (p *offsetStencil) Dependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	return p.tbl.Dependencies(i, j, buf)
}
func (p *offsetStencil) AntiDependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	return p.tbl.AntiDependencies(i, j, buf)
}

// newOffsetStencil builds an h × w stencil from base offsets, each byte pair
// one offset (DI in 0 … -3, DJ in 0 … -7, not both 0; repeats dropped). With
// rowDep, row i scales every DJ by 1 + i%3, the way Knapsack's weights move
// its second offset from row to row, which leaves gaps between the DJ.
func newOffsetStencil(h, w int32, base []byte, rowDep bool) *offsetStencil {
	p := &offsetStencil{h: h, w: w, rows: make([][]dag.Offset, h)}
	for i := range p.rows {
		scale := int32(1)
		if rowDep {
			scale += int32(i % 3)
		}
		seen := map[dag.Offset]bool{}
		for k := 0; k+1 < len(base) && k < 8; k += 2 {
			o := dag.Offset{DI: -int32(base[k] % 4), DJ: -int32(base[k+1]%8) * scale}
			if o != (dag.Offset{}) && !seen[o] {
				seen[o] = true
				p.rows[i] = append(p.rows[i], o)
			}
		}
	}
	p.tbl = dag.TabulateStencil(p)
	return p
}

// settleKey is one target tile: a place and a tile of its grid.
type settleKey struct{ place, tile int }

// settled is what a unit owes: decrements per target tile and, under push,
// the senders' offsets each tile gets, with their values.
type settled struct {
	counts map[settleKey]int
	vals   map[settleKey]map[int]int64
}

func newSettled() settled {
	return settled{counts: map[settleKey]int{}, vals: map[settleKey]map[int]int64{}}
}

func (s settled) push(k settleKey, off int, v int64) (dup bool) {
	if s.vals[k] == nil {
		s.vals[k] = map[int]int64{}
	}
	_, dup = s.vals[k][off]
	s.vals[k][off] = v
	return dup
}

// FuzzStencilSettlement checks settleRow and pushSettled, the stencil walk's
// run-wise settlement, against park's rules applied edge by edge. For every
// tile of every place it settles the tile's rows as walkStencil does and
// compares what that owes with a brute-force reference over every unfinished
// cell of the tile: each anti-dependency (StencilTable.AntiDependencies)
// located with PlaceOffset and its owner's TileOf; a local one owes a
// decrement unless it is in the tile or finished, a remote one always, and
// under push its sender's value once. A tile entry's runs must also be
// increasing and maximal — no run ends where the next begins — which pins
// the record bytes the wire carries. The inputs pick the offsets (optionally
// row-dependent, with gaps in DJ), one of the six box distributions, 1–4
// places, a tile shape and the cells a recovery restored.
func FuzzStencilSettlement(f *testing.F) {
	diagonal := []byte{1, 1, 1, 0, 0, 1} // (-1,-1) (-1,0) (0,-1): SWLAG
	// swlag-tcp-push: cyclic rows, two places, 1 × 76 tiles.
	f.Add(uint8(12), uint8(160), uint8(2), uint8(2), uint8(1), uint8(76), true, false, diagonal, []byte{})
	// kp-tcp-fetch: block columns, two places, Knapsack's (-1,0) (-1,-w_i).
	f.Add(uint8(20), uint8(40), uint8(1), uint8(2), uint8(4), uint8(8), true, true, []byte{1, 0, 1, 3}, []byte{})
	f.Add(uint8(20), uint8(40), uint8(1), uint8(2), uint8(4), uint8(8), false, true, []byte{1, 0, 1, 3}, []byte{0x10, 0, 0xff})
	// Reach 2 on both axes, tall tiles, restored cells, every distribution.
	for dk := range len(boxDists) {
		f.Add(uint8(17), uint8(19), uint8(dk), uint8(3), uint8(3), uint8(4), true, false, []byte{2, 1, 0, 2, 1, 0}, []byte{0, 0x24, 0x81, 0, 0x18})
	}
	f.Fuzz(func(t *testing.T, h, w, dk, places, bi, bj uint8, push, rowDep bool, offs, restored []byte) {
		pl := 1 + int(places)%4
		hh, ww := int32(max(int(h)%40, 2*pl)), int32(max(int(w), 2*pl))
		pat := newOffsetStencil(hh, ww, offs, rowDep)
		d := boxDists[int(dk)%len(boxDists)].make(hh, ww, pl)
		grids, rank := make([]distarray.TileGrid, pl), make([]int, pl)
		for k, p := range d.Places() {
			b := d.LocalBox(p)
			grids[k], rank[p] = distarray.NewTileGrid(b.Rows, b.Cols, 1+int(bi)%12, 1+int(bj)%96), k
		}
		chunks := make([]*distarray.Chunk[int64], pl)
		for p := range chunks {
			ch := distarray.NewChunk[int64](p, d)
			ch.ConfigureGrid(grids[rank[p]])
			ch.InitFlags(pat)
			for off := range d.LocalCount(p) {
				i, j := d.CellAt(p, off)
				ch.SetValue(off, int64(i)<<16|int64(j))
				if x := int(i)*int(ww) + int(j); x/8 < len(restored) && restored[x/8]>>(x%8)&1 == 1 {
					ch.SetResult(off, int64(i)<<16|int64(j))
				}
			}
			chunks[p] = ch
		}
		for p, ch := range chunks {
			ch.ActivateTiles(pat)
			s := ch.Stencil()
			if s == nil {
				continue // the place holds no cells
			}
			pe := &placeEngine[int64]{self: p}
			st := &epochState[int64]{d: d, chunk: ch, grids: grids, rank: rank, agg: &aggregator[int64]{push: push}}
			sc := newScratch[int64](pl, 0)
			for tile := range ch.NumTiles() {
				b := ch.TileBox(tile)
				got, want := newSettled(), newSettled()
				for r := b.Lo / b.Stride; r < b.Lo/b.Stride+b.Rows; r++ {
					pe.settleRow(st, sc, s, b, r)
				}
				pe.pushSettled(st, sc)
				for _, q := range sc.owing {
					so := &sc.owed[q]
					for k, tc := range so.tiles {
						key := settleKey{q, int(tc.tile)}
						got.counts[key] += int(tc.count)
						if k >= len(so.vals) {
							continue
						}
						at := 0
						for x, run := range so.vals[k].runs {
							if x > 0 && run.off <= so.vals[k].runs[x-1].off+so.vals[k].runs[x-1].n {
								t.Fatalf("place %d tile %d: runs %v to %v not increasing and maximal", p, tile, so.vals[k].runs, key)
							}
							for off := int(run.off); off < int(run.off+run.n); off++ {
								if got.push(key, off, so.vals[k].vals[at]) {
									t.Fatalf("place %d tile %d: pushed offset %d to %v twice", p, tile, off, key)
								}
								at++
							}
						}
					}
					so.tiles, so.vals = so.tiles[:0], so.vals[:0]
				}
				sc.owing = sc.owing[:0]

				var buf []dag.VertexID
				for off := b.Lo; off < b.Lo+b.Span(); off++ {
					if !b.Holds(off) || ch.Finished(off) {
						continue
					}
					i, j := d.CellAt(p, off)
					for _, a := range pat.tbl.AntiDependencies(i, j, buf[:0]) {
						q, aoff := d.PlaceOffset(a.I, a.J)
						key := settleKey{q, grids[rank[q]].TileOf(aoff)}
						switch {
						case q == p && (key.tile == tile || ch.Finished(aoff)):
						case q == p:
							want.counts[key]++
						default:
							want.counts[key]++
							if push {
								want.push(key, off, ch.Value(off))
							}
						}
					}
				}
				if !maps.Equal(got.counts, want.counts) || !maps.EqualFunc(got.vals, want.vals, maps.Equal) {
					t.Fatalf("%s, %d places, %v, tile %d of place %d:\nrun-wise %v\nper edge %v",
						d.Name(), pl, grids[rank[p]], tile, p, fmt.Sprint(got), fmt.Sprint(want))
				}
			}
		}
	})
}
