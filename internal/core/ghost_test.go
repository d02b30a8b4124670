package core

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/distarray"
	"github.com/dpx10/dpx10/internal/transport"
	"github.com/dpx10/dpx10/internal/vcache"
)

// ghostFrameByCell is the ghost frame cell by cell, the oracle
// FuzzGhostFrame holds ghostFrame to: the same slab and pour, then every
// unfinished cell within reach of its tile's top or left edge goes through
// its offsets one at a time. A dependency the box filled is a push hit when
// first read and is never located; a local one is copied from the chunk, a
// remote one comes from the cache or a fetch.
func (pe *placeEngine[T]) ghostFrameByCell(st *epochState[T], sc *scratch[T], s *distarray.Stencil, t int) error {
	ch, b := st.chunk, st.chunk.TileBox(t)
	top, left := b.Lo/b.Stride, b.Lo%b.Stride
	sc.gi0, sc.gj0 = int(s.RowOf[top]-s.ReachI), int(s.ColOf[left]-s.ReachJ)
	sc.stride = int(s.ColOf[left+b.W-1]) - sc.gj0 + 1
	rows := int(s.RowOf[top+b.Rows-1]) - sc.gi0 + 1
	sc.slab, sc.mark = slices.Grow(sc.slab[:0], rows*sc.stride)[:rows*sc.stride], slices.Grow(sc.mark[:0], rows*sc.stride)[:rows*sc.stride]
	if sc.gen += 4; sc.gen < 4 { // wrapped: stale marks would read as this walk's
		clear(sc.mark[:cap(sc.mark)])
		sc.gen = 4
	}
	pe.drainBox(st, t, func(i, j int32, v T) {
		if di, dj := int(i)-sc.gi0, int(j)-sc.gj0; uint(di) < uint(rows) && uint(dj) < uint(sc.stride) {
			sc.slab[di*sc.stride+dj], sc.mark[di*sc.stride+dj] = v, sc.gen+markPoured
		}
	})
	sc.resetGroups()
	var n haloCounts
	sc.ghostReads = sc.ghostReads[:0]
	for r := top; r < top+b.Rows; r++ {
		reads := int32(0)
		for c, i := left, s.RowOf[r]; c < left+b.W && (r-top < s.ReachRows || c-left < s.ReachCols); c++ {
			if ch.Finished(r*b.Stride + c) {
				continue
			}
			for _, o := range s.Offsets(i) {
				dep := dag.VertexID{I: i + o.DI, J: s.ColOf[c] + o.DJ}
				x := sc.at(dep.I, dep.J) // no box fills a place outside the grid
				if m := sc.mark[x] - sc.gen; m <= markRemote {
					if m == markPoured { // a push hit, the first time it is read
						sc.mark[x], n.pushHits = sc.gen+markRemote, n.pushHits+1
					}
					reads++
					continue
				}
				switch ref, ok := s.Locate(r, c, i, s.ColOf[c], o.DI, o.DJ); {
				case !ok || int(ref.Owner) == pe.self && b.Holds(int(ref.Off)): // outside the grid, or the walk writes it
				case int(ref.Owner) != pe.self:
					sc.mark[x], reads = sc.gen+markRemote, reads+1
					pe.cachedOrQueued(st, sc, int(ref.Owner), dep, &sc.slab[x], &n)
				case ch.Finished(int(ref.Off)):
					sc.slab[x] = ch.Value(int(ref.Off))
				default:
					panic(fmt.Sprintf("core: place %d walked (%d,%d) before its dependency %v was finished", pe.self, i, s.ColOf[c], dep))
				}
			}
		}
		sc.ghostReads = append(sc.ghostReads, reads)
	}
	return pe.fetchQueued(st, sc, n, func(id dag.VertexID, v T) { sc.slab[sc.at(id.I, id.J)] = v })
}

// cellValue is the value every test of the ghost frame gives cell (i, j).
func cellValue(i, j int32) int64 { return int64(i)<<16 | int64(j) + 1 }

// fetchRecorder serves kindFetch calls from cellValue and records the ids
// asked of each place; it serves nothing else.
type fetchRecorder struct {
	transport.Transport
	asked map[int][]dag.VertexID
}

func (f *fetchRecorder) Call(to int, kind uint8, payload []byte) ([]byte, error) {
	_, ids, err := decodeFetchReq(payload, nil)
	if kind != kindFetch || err != nil {
		return nil, fmt.Errorf("fetchRecorder: kind %d to place %d: %v", kind, to, err)
	}
	f.asked[to] = append(f.asked[to], ids...)
	var reply []byte
	for _, id := range ids {
		reply = codec.Int64{}.Encode(reply, cellValue(id.I, id.J))
	}
	return reply, nil
}

// frameCase is own tile t of place p about to be ghost-framed: a chunk with
// every cell outside the tile finished and the tile's cells finished where
// restored says, an empty box, a vertex cache and a fetchRecorder.
type frameCase struct {
	pe  *placeEngine[int64]
	st  *epochState[int64]
	sc  *scratch[int64]
	rec *fetchRecorder
	t   int
}

func newFrameCase(pat dag.Pattern, d dist.Dist, p int, g distarray.TileGrid, t int, restored func(i, j int32) bool) frameCase {
	ch := distarray.NewChunk[int64](p, d)
	ch.ConfigureGrid(g)
	ch.InitFlags(pat)
	b := g.TileBox(t)
	for off := range ch.Len() {
		if i, j := d.CellAt(p, off); !b.Holds(off) || restored(i, j) {
			ch.SetResult(off, cellValue(i, j))
		}
	}
	ch.ActivateTiles(pat)
	ps := d.Places()
	rec := &fetchRecorder{asked: map[int][]dag.VertexID{}}
	return frameCase{
		pe:  &placeEngine[int64]{self: p, cfg: &Config[int64]{Codec: codec.Int64{}}, tr: rec},
		st:  &epochState[int64]{d: d, chunk: ch, cache: vcache.New[int64](1 << 16), boxes: newPushBoxes[int64](ch.NumTiles(), 1<<30)},
		sc:  newScratch[int64](ps[len(ps)-1]+1, 0),
		rec: rec, t: t,
	}
}

// reads calls f for every dependency inside the grid of every unfinished
// cell of the case's tile, with whether it lies outside the tile.
func (fc frameCase) reads(f func(dep dag.VertexID, outside bool)) {
	ch, s := fc.st.chunk, fc.st.chunk.Stencil()
	b := ch.TileBox(fc.t)
	for off := b.Lo; off < b.Lo+b.Span(); off++ {
		if !b.Holds(off) || ch.Finished(off) {
			continue
		}
		i, j := fc.st.d.CellAt(fc.pe.self, off)
		for _, o := range s.Offsets(i) {
			if i+o.DI < 0 || j+o.DJ < 0 {
				continue
			}
			dep := dag.VertexID{I: i + o.DI, J: j + o.DJ}
			q, qoff := fc.st.d.PlaceOffset(dep.I, dep.J)
			f(dep, q != fc.pe.self || !b.Holds(qoff))
		}
	}
}

// FuzzGhostFrame holds ghostFrame, which reads a stencil tile's border a run
// at a time, to ghostFrameByCell, cell by cell, on the same tile of the same
// chunk: the slab value at every index a cell of the tile reads (outside the
// tile, that cell's value), the remote reads per row, the cache hits, misses,
// push hits and fetches, and the ids fetched from each place. The inputs pick
// the offsets (optionally row-dependent), one of the six box dists over 1–5
// places, optionally with one restricted away, a tile shape and a tile of
// each place, the tile's cells a recovery restored, the remote cells around
// it the vertex cache holds, and the remote cells a push box holds, anywhere
// in the slab's rows and a row past them on either side. The box holds the
// latter as maximal runs of each sender's offsets, as a sender's walk pushes
// them, so a run can start or end outside the slab, which the pour drops,
// and cross the end of a sender's box row, where the pour cuts it.
func FuzzGhostFrame(f *testing.F) {
	diagonal := []byte{1, 1, 1, 0, 0, 1} // (-1,-1) (-1,0) (0,-1): SWLAG
	some := []byte{0x5a, 0x0f, 0x33, 0xc4, 0x81, 0x7e, 0x19, 0xe2}
	all := bytes.Repeat([]byte{0xff}, 24*96/8)                // every remote cell in the box: runs of whole box rows and more
	gappy := bytes.Repeat([]byte{0xb6, 0x6d, 0xdb}, 24*96/24) // runs of two between gaps
	// swlag-tcp-push: cyclic rows, two places, 1 × 76 tiles.
	f.Add(uint8(12), uint8(90), uint8(2), uint8(1), uint8(0), uint8(0), uint8(75), uint8(3), false, diagonal, []byte{}, []byte{}, []byte{})
	f.Add(uint8(12), uint8(90), uint8(2), uint8(1), uint8(0), uint8(0), uint8(75), uint8(3), false, diagonal, some, some[2:], some[5:])
	// kp-tcp-fetch: block columns, Knapsack's (-1,0) (-1,-w_i).
	f.Add(uint8(20), uint8(60), uint8(1), uint8(1), uint8(0), uint8(3), uint8(7), uint8(1), true, []byte{1, 0, 1, 3}, some, some, []byte{})
	// Reach 2 on both axes, tall tiles, every dist, a place restricted away.
	for dk := range uint8(len(boxDists)) {
		f.Add(uint8(17), uint8(19), dk, uint8(2), uint8(0), uint8(2), uint8(3), dk, false, []byte{2, 1, 0, 2, 1, 0}, some, some[1:], some[3:])
		f.Add(uint8(17), uint8(40), dk, uint8(3), uint8(2), uint8(3), uint8(9), dk+1, true, diagonal, []byte{}, some, some)
		// Long runs: whole rows of other places' cells poured, which the
		// pour cuts at the senders' box rows (one cell apiece along a dealt
		// column axis) and clips to the slab on every side.
		f.Add(uint8(14), uint8(45), dk, uint8(2), uint8(0), uint8(2), uint8(6), dk+2, false, diagonal, some, all, []byte{})
		f.Add(uint8(19), uint8(70), dk, uint8(3), uint8(0), uint8(3), uint8(11), dk+4, true, []byte{2, 1, 0, 2, 1, 0}, []byte{}, gappy, some)
		f.Add(uint8(22), uint8(90), dk, uint8(1), uint8(0), uint8(1), uint8(20), dk+7, false, diagonal, []byte{}, all, some[4:])
	}
	f.Fuzz(func(t *testing.T, h, w, dk, places, dead, bi, bj, tile uint8, rowDep bool, offs, restored, poured, cached []byte) {
		pl := 1 + int(places)%5
		hh, ww := int32(max(int(h)%24, 2*pl)), int32(max(int(w)%96, 2*pl))
		pat := newOffsetStencil(hh, ww, offs, rowDep)
		d := boxDists[int(dk)%len(boxDists)].make(hh, ww, pl)
		if x := int(dead) % (pl + 1); pl > 1 && x > 0 {
			var err error
			if d, err = d.Restrict(func(p int) bool { return p != x-1 }); err != nil {
				t.Fatal(err)
			}
		}
		bit := func(bs []byte, i, j int32) bool {
			x := int(i)*int(ww) + int(j)
			return x/8 < len(bs) && bs[x/8]>>(x%8)&1 == 1
		}
		for _, p := range d.Places() {
			box := d.LocalBox(p)
			if box.Rows*box.Cols == 0 {
				continue
			}
			g := distarray.NewTileGrid(box.Rows, box.Cols, 1+int(bi)%8, 1+int(bj)%96)
			tl := int(tile) % g.NumTiles()
			isRestored := func(i, j int32) bool { return bit(restored, i, j) }
			byCell, byRun := newFrameCase(pat, d, p, g, tl, isRestored), newFrameCase(pat, d, p, g, tl, isRestored)
			s, b := byRun.st.chunk.Stencil(), g.TileBox(tl)
			top, left := b.Lo/b.Stride, b.Lo%b.Stride
			byPlace := map[int][]int{} // the poured cells' offsets, by owner
			for i := max(s.RowOf[top]-s.ReachI-1, 0); i <= min(s.RowOf[top+b.Rows-1]+1, hh-1); i++ {
				for j := range ww {
					q, qoff := d.PlaceOffset(i, j)
					if q == p {
						continue
					}
					if bit(poured, i, j) {
						byPlace[q] = append(byPlace[q], qoff)
					}
					if j < s.ColOf[left]-s.ReachJ || j > s.ColOf[left+b.W-1]+1 || !bit(cached, i, j) {
						continue
					}
					for _, fc := range []frameCase{byCell, byRun} {
						fc.st.cache.Put(dag.VertexID{I: i, J: j}, cellValue(i, j))
					}
				}
			}
			for _, q := range slices.Sorted(maps.Keys(byPlace)) {
				offs := byPlace[q]
				slices.Sort(offs)
				for k, e := 0, 0; k < len(offs); k = e {
					for e = k + 1; e < len(offs) && offs[e] == offs[e-1]+1; e++ {
					}
					for _, fc := range []frameCase{byCell, byRun} {
						bs := fc.st.boxes.storeOf(tl)
						bs.runs = append(bs.runs, boxRun{from: int32(q), valRun: valRun{off: uint32(offs[k]), n: uint32(e - k)}})
						for _, off := range offs[k:e] {
							bs.vals = append(bs.vals, cellValue(d.CellAt(q, off)))
						}
						fc.st.boxes.pinned += e - k
					}
				}
			}
			name := fmt.Sprintf("%s, %d places, place %d, %v tile %d", d.Name(), pl, p, g, tl)
			if err := byCell.pe.ghostFrameByCell(byCell.st, byCell.sc, byCell.st.chunk.Stencil(), tl); err != nil {
				t.Fatalf("%s: by cell: %v", name, err)
			}
			if err := byRun.pe.ghostFrame(byRun.st, byRun.sc, s, tl); err != nil {
				t.Fatalf("%s: by run: %v", name, err)
			}
			if !slices.Equal(byRun.sc.ghostReads, byCell.sc.ghostReads) {
				t.Fatalf("%s: remote reads per row %v, by cell %v", name, byRun.sc.ghostReads, byCell.sc.ghostReads)
			}
			counts := func(pe *placeEngine[int64]) [5]int64 {
				return [5]int64{pe.cacheHits.Load(), pe.cacheMisses.Load(), pe.pushConsumed.Load(), pe.remoteFetches.Load(), pe.fetchCalls.Load()}
			}
			if got, want := counts(byRun.pe), counts(byCell.pe); got != want {
				t.Fatalf("%s: hits, misses, push hits, fetched, fetch calls %v, by cell %v", name, got, want)
			}
			for _, fc := range []frameCase{byCell, byRun} {
				for q, ids := range fc.rec.asked {
					slices.SortFunc(ids, func(x, y dag.VertexID) int { return int(x.Linear(ww) - y.Linear(ww)) })
					if len(slices.Compact(slices.Clone(ids))) != len(ids) {
						t.Fatalf("%s: fetched an id from place %d twice: %v", name, q, ids)
					}
				}
			}
			if !maps.EqualFunc(byRun.rec.asked, byCell.rec.asked, slices.Equal) {
				t.Fatalf("%s: fetched %v, by cell %v", name, byRun.rec.asked, byCell.rec.asked)
			}
			byRun.reads(func(dep dag.VertexID, outside bool) {
				x := byRun.sc.at(dep.I, dep.J)
				if got, want := byRun.sc.slab[x], byCell.sc.slab[byCell.sc.at(dep.I, dep.J)]; got != want || outside && got != cellValue(dep.I, dep.J) {
					t.Fatalf("%s: slab holds %d for %v, by cell %d", name, got, dep, want)
				}
			})
		}
	})
}

// TestStencilBorderWorkIsPerRun is the work gate of the run-wise border: a
// fresh chunk's activation scan, and the ghost frame of each of its tiles,
// make a bounded number of distribution lookups per tile row and offset on
// every box dist at 1–4 places — plus, along a dealt column axis, where no
// two neighbours of a row share a place, one per read of another place's
// cell — not one per cell and offset.
func TestStencilBorderWorkIsPerRun(t *testing.T) {
	const h, w, perRowOffset = 37, 83, 4
	pat := patterns.NewDiagonal(h, w)
	for _, bd := range boxDists {
		for _, places := range []int{1, 2, 3, 4} {
			d := &countingDist{Dist: bd.make(h, w, places)}
			for _, p := range d.Places() {
				box := d.LocalBox(p)
				g := distarray.NewTileGrid(box.Rows, box.Cols, 5, 24)
				ch := distarray.NewChunk[int64](p, d)
				ch.ConfigureGrid(g)
				d.calls = 0
				ch.InitActivateTiles(pat)
				scan, s := d.calls, ch.Stencil()
				limit := box.Rows + box.Cols // the stencil's maps from local to global rows and columns
				for tl := range g.NumTiles() {
					fc := newFrameCase(pat, d, p, g, tl, func(int32, int32) bool { return false })
					tileLimit, b := 0, g.TileBox(tl)
					for r := b.Lo / b.Stride; r < b.Lo/b.Stride+b.Rows; r++ {
						tileLimit += perRowOffset * len(pat.Offsets(s.RowOf[r]))
					}
					if s.DealtCols() {
						fc.reads(func(dep dag.VertexID, _ bool) {
							if d.Dist.Place(dep.I, dep.J) != p {
								tileLimit++
							}
						})
					}
					limit += tileLimit
					d.calls = 0
					if err := fc.pe.ghostFrame(fc.st, fc.sc, fc.st.chunk.Stencil(), tl); err != nil {
						t.Fatal(err)
					}
					if d.calls > tileLimit {
						t.Errorf("%s/%d places: place %d's ghost frame of tile %d (%v) made %d lookups (limit %d)",
							bd.name, places, p, tl, g, d.calls, tileLimit)
					}
				}
				if scan > limit {
					t.Errorf("%s/%d places: place %d's activation scan of %v made %d lookups (limit %d)", bd.name, places, p, g, scan, limit)
				}
			}
		}
	}
}
