package core

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/distarray"
	"github.com/dpx10/dpx10/internal/transport"
)

// fetchPerSteal watches one place's outbound calls and records, for every
// tile the place stole, how many kindFetch calls it sent to each owner
// before handing the results back.
type fetchPerSteal struct {
	transport.Transport
	onFetch func() // called for every fetch sent on behalf of a stolen tile

	mu     sync.Mutex
	stolen bool        // between a successful steal reply and its steal-done
	calls  map[int]int // owner -> fetch calls for the stolen tile in hand
	worst  int         // most fetch calls any stolen tile sent to one owner
}

func (f *fetchPerSteal) Call(to int, kind uint8, payload []byte) ([]byte, error) {
	reply, err := f.Transport.Call(to, kind, payload)
	f.mu.Lock()
	defer f.mu.Unlock()
	switch kind {
	case kindSteal:
		f.stolen = err == nil && len(reply) > 0 // an empty reply: nothing ready
		if f.stolen {
			clear(f.calls)
		}
	case kindFetch:
		if f.stolen {
			f.calls[to]++
			f.worst = max(f.worst, f.calls[to])
			f.onFetch()
		}
	case kindStealDone:
		f.stolen = false
	}
	return reply, err
}

// TestStolenTileFetchesOncePerOwner: a thief resolves a stolen tile's halo
// in one step — at most one fetch call per owning place per stolen tile,
// never one per stolen cell. One worker per place keeps each place's
// steal → fetch → steal-done sequence on a single goroutine, so the
// attribution is exact. The scenario is forced, not hoped for: under block
// rows places 1 and 2 have nothing of their own until place 0's rows are
// done, and the first cell of place 0's second row waits until a stolen
// tile has fetched. A thief holding that cell has fetched row 0 for it
// already; when the owner holds it, another tile of place 0 is ready beside
// it, and every tile but the grid's first reads cells outside itself that
// place 0 owns.
func TestStolenTileFetchesOncePerOwner(t *testing.T) {
	pat := patterns.NewDiagonal(24, 24)
	cfg := stealConfig(pat, 3)
	cfg.Threads = 1
	cfg.TileSize = 8
	thiefFetched := make(chan struct{})
	var once sync.Once
	cfg.Compute = func(i, j int32, deps []Cell[int64]) int64 {
		if i == 1 && j == 0 {
			<-thiefFetched
		}
		return sumCompute(i, j, deps)
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	watch := make([]*fetchPerSteal, len(cl.engines))
	for p, pe := range cl.engines {
		watch[p] = &fetchPerSteal{Transport: pe.tr, calls: map[int]int{},
			onFetch: func() { once.Do(func() { close(thiefFetched) }) }}
		pe.tr = watch[p]
	}
	if err := cl.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkResult(t, cl, pat)
	for p, w := range watch {
		if w.worst > 1 {
			t.Errorf("place %d sent %d fetch calls to one owner for one stolen tile, want at most 1", p, w.worst)
		}
	}
}

// onFirstFetch runs hook inside one place's first kindFetch call — after
// the tile was claimed, before the halo reply exists — and then lets the
// call proceed. When the hook returns a channel, the reply is withheld
// until it closes.
type onFirstFetch struct {
	transport.Transport
	once sync.Once
	hook func(owner int) (hold <-chan struct{})
}

func (o *onFirstFetch) Call(to int, kind uint8, payload []byte) ([]byte, error) {
	if kind != kindFetch {
		return o.Transport.Call(to, kind, payload)
	}
	var hold <-chan struct{}
	o.once.Do(func() { hold = o.hook(to) })
	reply, err := o.Transport.Call(to, kind, payload)
	if hold != nil {
		<-hold
	}
	return reply, err
}

// TestHaloOwnerKilledBeforeReply kills the place that owns a tile's halo
// between the tile being claimed and the halo reply: the fetch fails with
// the owner's death, the walk abandons the tile without running a cell,
// and the recovery recomputes what the dead place held. Every cell computed
// beyond the grid's own count is recovery work, so the surplus must be zero
// at the kill and positive at the end.
func TestHaloOwnerKilledBeforeReply(t *testing.T) {
	pat := patterns.NewDiagonal(24, 20)
	cells := int64(len(refValues(pat)))
	cl, err := NewCluster(baseConfig(pat, 3))
	if err != nil {
		t.Fatal(err)
	}
	var atKill atomic.Int64
	atKill.Store(-1)
	pe := cl.engines[2]
	pe.tr = &onFirstFetch{Transport: pe.tr, hook: func(owner int) <-chan struct{} {
		if owner != 1 {
			t.Errorf("place 2's halo is owned by place %d, want its block-row neighbour 1", owner)
		}
		var computed int64
		for _, e := range cl.engines {
			computed += e.computed.Load()
		}
		atKill.Store(computed)
		cl.KillUnannounced(owner)
		return nil
	}}
	if err := cl.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := cl.Stats()
	if st.Recoveries < 1 {
		t.Fatal("the halo's owner was never killed: no recovery recorded")
	}
	checkResult(t, cl, pat)
	if before := atKill.Load(); before < 0 || before > cells {
		t.Fatalf("%d cells computed at the kill, want 0..%d: nothing is recomputed before a fault", before, cells)
	}
	if st.ComputedCells <= cells {
		t.Fatalf("ComputedCells = %d for %d cells: the dead place's work was not recomputed", st.ComputedCells, cells)
	}
}

// TestChaosSoakStaleHalo runs a stale-epoch halo reply through the soak's
// drop and partition profiles: place 1's first halo request is served, the
// uninvolved place 2 is killed while the reply is in flight, and the reply
// is handed to the walk only once place 1's epoch has been paused. The walk
// must drop the tile with the values it was just given — the halo buffer
// does not outlive it — and the recovered run must match cell for cell.
func TestChaosSoakStaleHalo(t *testing.T) {
	seeds := soakSeeds(t)
	pat := patterns.NewDiagonal(20, 16)
	for _, prof := range chaosProfiles() {
		if prof.name != "drop" && prof.name != "partition" {
			continue
		}
		for s := 0; s < seeds; s++ {
			seed := int64(1000*s + 83)
			t.Run(fmt.Sprintf("%s/seed%d", prof.name, seed), func(t *testing.T) {
				t.Parallel()
				cfg := baseConfig(pat, 3)
				cfg.Chaos = prof.make(seed)
				cfg.ProbeInterval = 2 * time.Millisecond
				cfg.SuspicionThreshold = 5 // as in soakRun: drops also eat heartbeats
				cl, err := NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				pe := cl.engines[1]
				pe.tr = &onFirstFetch{Transport: pe.tr, hook: func(int) <-chan struct{} {
					cl.Kill(2)
					return pe.current().quit // closed when the recovery pauses this epoch
				}}
				done := make(chan error, 1)
				go func() { done <- cl.Run() }()
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
				case <-time.After(2 * time.Minute):
					t.Fatal("soak run did not terminate")
				}
				if cl.Stats().Recoveries < 1 {
					t.Fatal("no recovery recorded: the halo reply never went stale")
				}
				checkResult(t, cl, pat)
			})
		}
	}
}

// TestStencilBoxRunOutsideSlabDropped pours into a stencil tile's ghost frame
// a box holding runs the decoder and the handler accept — cells of the
// sender — that the tile's slab does not hold: the row below the tile, and
// columns past its right edge, which a missing column bound would wrap onto
// the tile's own row. They are dropped: no slab index of the tile's cells is
// marked, nothing outside the slab is written (that would panic), and the
// tile's values are bit-exact. The box is also cut at a bound below the
// values it is given, so the rest of the row above comes from a fetch into
// the slab.
func TestStencilBoxRunOutsideSlabDropped(t *testing.T) {
	const h, bj, kept = 6, 16, 10 // place 1 walks row 3, columns [bj, 2bj): it reads row 2 of place 0
	pat := patterns.NewDiagonal(h, 3*bj)
	cfg := baseConfig(pat, 2)
	cfg.Threads, cfg.TileShape, cfg.CacheSize = 1, [2]int{1, bj}, bj+5+kept
	cfg.NewDist = func(h, w int32, n int) dist.Dist { return dist.NewCyclicRow(h, w, n) }
	cl, err := NewCluster(cfg) // not run: place 0 answers fetches from the epoch below
	if err != nil {
		t.Fatal(err)
	}
	defer cl.m.Close()
	ref, pe, d := refValues(pat), cl.engines[1], dist.NewCyclicRow(h, 3*bj, 2)
	st0 := cl.engines[0].newEpochState(0, d, distarray.NewChunk[int64](0, d))
	defer st0.closeQuit()
	cl.engines[0].st.Store(st0)
	for id, v := range ref {
		if p, off := d.PlaceOffset(id.I, id.J); p == 0 {
			st0.chunk.SetResult(off, v)
		}
	}

	// An epoch of place 1's in step with place 0's, in which everything
	// before the tile is finished.
	ch := distarray.NewChunk[int64](1, d)
	grids := []distarray.TileGrid{distarray.NewTileGrid(h/2, 3*bj, 1, bj), distarray.NewTileGrid(h/2, 3*bj, 1, bj)}
	ch.ConfigureGrid(grids[1])
	ch.InitFlags(pat)
	for id, v := range ref {
		if p, off := d.PlaceOffset(id.I, id.J); p == 1 && (id.I < 3 || id.I == 3 && id.J < bj) {
			ch.SetResult(off, v)
		}
	}
	ch.ActivateTiles(pat)
	st := &epochState[int64]{epoch: st0.epoch, d: d, chunk: ch, grids: grids, rank: []int{0, 1},
		quit: make(chan struct{}), cache: pe.newCache(), boxes: newPushBoxes[int64](ch.NumTiles(), cfg.CacheSize),
		agg: newAggregator(pe, 0)} // no flusher: what the walk owes place 0 stays buffered
	tile := ch.TileOf(d.LocalOffset(3, bj))

	// One tile entry, as place 0 would send it: two runs the slab does not
	// hold, of a value no cell has, then the row above the tile from column
	// bj-1, which the bound cuts after kept values.
	var tv tileVals[int64]
	vals := func(i, j0, n int32, v func(j int32) int64) {
		for j := j0; j < j0+n; j++ {
			tv.add(uint32(d.LocalOffset(i, j)), v(j))
		}
	}
	bogus := func(int32) int64 { return -1 << 40 }
	vals(4, bj, bj, bogus)  // the row below the tile
	vals(2, 2*bj, 5, bogus) // past its right edge
	vals(2, bj-1, bj+1, func(j int32) int64 { return ref[dag.VertexID{I: 2, J: j}] })
	var got decrBatch[int64]
	payload := encodeDecrBatch(codec.Int64{}, &decrBatch[int64]{epoch: st.epoch, tiles: []tileCount{{tile: uint32(tile), count: 1}}, vals: []tileVals[int64]{tv}, ends: []int{1}})
	if err := decodeDecrBatch(payload, codec.Int64{}, &got); err != nil {
		t.Fatal(err)
	}
	for _, r := range got.vals[0].runs {
		if int(r.off+r.n) > d.LocalCount(0) {
			t.Fatalf("run %+v names no cell of place 0: the handler would refuse it", r)
		}
	}
	if n := st.boxes.deposit(ch, 0, &got); n != cfg.CacheSize {
		t.Fatalf("the box kept %d values, want the bound %d", n, cfg.CacheSize)
	}

	sc := newScratch[int64](2, 0)
	if done := pe.walkStencil(st, sc, tile); done != bj {
		t.Fatalf("walked %d cells, want %d", done, bj)
	}
	for j := int32(bj); j < 2*bj; j++ {
		if v := ch.Value(d.LocalOffset(3, j)); v != ref[dag.VertexID{I: 3, J: j}] {
			t.Errorf("cell (3,%d) = %d, want %d", j, v, ref[dag.VertexID{I: 3, J: j}])
		}
		if m := sc.mark[sc.at(3, j)] - sc.gen; m <= markRemote {
			t.Errorf("the tile's cell (3,%d) is marked %d in the slab", j, m)
		}
	}
	if hits, consumed, fetched := pe.cacheHits.Load(), pe.pushConsumed.Load(), pe.remoteFetches.Load(); consumed != kept || hits != kept || fetched != bj+1-kept {
		t.Fatalf("%d cache hits, %d box reads, %d fetched; want %d, %d, %d", hits, consumed, fetched, kept, kept, bj+1-kept)
	}
	st.closeQuit()
}

// sortedFetches checks every kindFetch request a place sends against the
// encoding of its ids in ascending (I, J) order, the order that makes each
// delta smallest.
type sortedFetches struct {
	transport.Transport
	t        *testing.T
	requests atomic.Int64
}

func (s *sortedFetches) Call(to int, kind uint8, payload []byte) ([]byte, error) {
	if kind == kindFetch {
		s.requests.Add(1)
		epoch, ids, err := decodeFetchReq(payload, nil)
		if err != nil {
			s.t.Errorf("fetch to place %d: %v", to, err)
		}
		slices.SortFunc(ids, cmpID)
		if want := appendFetchReq(nil, epoch, ids); !bytes.Equal(payload, want) {
			s.t.Errorf("fetch to place %d is %d bytes, its sorted encoding %d", to, len(payload), len(want))
		}
	}
	return s.Transport.Call(to, kind, payload)
}

// TestFetchRequestsListIDsAscending runs a Diagonal table on two places of
// block rows, where the stencil frame queues a tile's remote reads offset by
// offset: the row above is queued after the cell above-left, out of order.
// Every fetch request must still list its ids in ascending order.
func TestFetchRequestsListIDsAscending(t *testing.T) {
	pat := patterns.NewDiagonal(1401, 1401)
	cl, err := NewCluster(baseConfig(pat, 2))
	if err != nil {
		t.Fatal(err)
	}
	var watch []*sortedFetches
	for _, pe := range cl.engines {
		w := &sortedFetches{Transport: pe.tr, t: t}
		pe.tr, watch = w, append(watch, w)
	}
	if err := cl.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if watch[1].requests.Load() == 0 {
		t.Fatal("place 1 sent no fetch request")
	}
}
