package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/sched"
	"github.com/dpx10/dpx10/internal/transport"
)

// sumCompute is a deterministic compute(): a cell is a function of its
// coordinates and dependency values, so any correct execution — serial,
// concurrent, or recovered — produces identical results.
func sumCompute(i, j int32, deps []Cell[int64]) int64 {
	v := int64(i)*31 + int64(j)*17
	for _, d := range deps {
		v += d.Value
	}
	return v
}

// refValues computes the expected result with Kahn's algorithm, no engine.
func refValues(pat dag.Pattern) map[dag.VertexID]int64 { return refValuesWith(pat, sumCompute) }

func refValuesWith(pat dag.Pattern, compute ComputeFunc[int64]) map[dag.VertexID]int64 {
	h, w := pat.Bounds()
	vals := make(map[dag.VertexID]int64)
	indeg := make(map[dag.VertexID]int32)
	var queue []dag.VertexID
	var buf []dag.VertexID
	for i := int32(0); i < h; i++ {
		for j := int32(0); j < w; j++ {
			if !dag.IsActive(pat, i, j) {
				continue
			}
			buf = pat.Dependencies(i, j, buf[:0])
			indeg[dag.VertexID{I: i, J: j}] = int32(len(buf))
			if len(buf) == 0 {
				queue = append(queue, dag.VertexID{I: i, J: j})
			}
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		buf = pat.Dependencies(v.I, v.J, buf[:0])
		cells := make([]Cell[int64], len(buf))
		for k, d := range buf {
			cells[k] = Cell[int64]{ID: d, Value: vals[d]}
		}
		vals[v] = compute(v.I, v.J, cells)
		buf = pat.AntiDependencies(v.I, v.J, buf[:0])
		for _, a := range buf {
			indeg[a]--
			if indeg[a] == 0 {
				queue = append(queue, a)
			}
		}
	}
	return vals
}

func baseConfig(pat dag.Pattern, places int) Config[int64] {
	return Config[int64]{
		Common:  Common{Places: places, Threads: 2, Pattern: pat},
		Compute: sumCompute,
		Codec:   codec.Int64{},
	}
}

func runAndCheck(t *testing.T, cfg Config[int64]) *Cluster[int64] {
	t.Helper()
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	if err := cl.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	res, err := cl.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	want := refValues(cfg.Pattern)
	for id, wv := range want {
		if !res.Finished(id.I, id.J) {
			t.Fatalf("cell %v not finished", id)
		}
		if got := res.Value(id.I, id.J); got != wv {
			t.Fatalf("cell %v = %d, want %d", id, got, wv)
		}
	}
	return cl
}

func TestRunAllPatternsMatchReference(t *testing.T) {
	pats := map[string]dag.Pattern{
		"grid":     patterns.NewGrid(15, 12),
		"diagonal": patterns.NewDiagonal(14, 14),
		"rowwave":  patterns.NewRowWave(9, 7),
		"interval": patterns.NewInterval(12),
		"colwave":  patterns.NewColWave(7, 9),
		"chain":    patterns.NewChain(6, 20),
		"triangle": patterns.NewTriangle(10),
		"banded":   patterns.NewBanded(16, 16, 3),
	}
	ks, err := patterns.NewKnapsack([]int32{3, 5, 2, 7, 1, 4}, 20)
	if err != nil {
		t.Fatal(err)
	}
	pats["knapsack"] = ks
	for name, pat := range pats {
		for _, places := range []int{1, 3, 4} {
			name, pat, places := name, pat, places
			t.Run(fmt.Sprintf("%s/p%d", name, places), func(t *testing.T) {
				runAndCheck(t, baseConfig(pat, places))
			})
		}
	}
}

func TestRunAcrossDistributions(t *testing.T) {
	pat := patterns.NewDiagonal(16, 16)
	dists := map[string]func(h, w int32, n int) dist.Dist{
		"blockrow":  func(h, w int32, n int) dist.Dist { return dist.NewBlockRow(h, w, n) },
		"blockcol":  func(h, w int32, n int) dist.Dist { return dist.NewBlockCol(h, w, n) },
		"cyclicrow": func(h, w int32, n int) dist.Dist { return dist.NewCyclicRow(h, w, n) },
		"cycliccol": func(h, w int32, n int) dist.Dist { return dist.NewCyclicCol(h, w, n) },
		"block2d":   func(h, w int32, n int) dist.Dist { return dist.NewBlock2D(h, w, 2, 2) },
	}
	for name, nd := range dists {
		name, nd := name, nd
		t.Run(name, func(t *testing.T) {
			cfg := baseConfig(pat, 4)
			cfg.NewDist = nd
			runAndCheck(t, cfg)
		})
	}
}

// TestRunAcrossStrategies runs each placement strategy, and checks that exec
// placement moves tiles, not vertices: one push Call per migrated tile, each
// run as one tile task at its target.
func TestRunAcrossStrategies(t *testing.T) {
	pat := patterns.NewDiagonal(14, 14)
	for _, s := range []sched.Strategy{sched.Local, sched.Random, sched.MinComm} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			cfg := baseConfig(pat, 3)
			cfg.Strategy = s
			cfg.Metrics = true
			cl := runAndCheck(t, cfg)
			st := cl.Stats()
			pushes := metrics.MergeAll(cl.MetricsSnapshots()).Vecs[metrics.TransportMsgsOut][kindTransfer]
			if pushes > st.TilesExecuted {
				t.Errorf("%d push Calls for %d tile tasks: exec moved something smaller than a tile", pushes, st.TilesExecuted)
			}
			if s == sched.Random && (st.ExecMigrated == 0 || pushes == 0) {
				t.Errorf("random strategy migrated %d cells in %d pushes", st.ExecMigrated, pushes)
			}
			if s == sched.Local && (st.ExecMigrated != 0 || pushes != 0) {
				t.Errorf("local strategy migrated %d cells in %d pushes", st.ExecMigrated, pushes)
			}
		})
	}
}

func TestCacheReducesRemoteFetches(t *testing.T) {
	pat := patterns.NewColWave(8, 12) // every cell needs the whole previous column
	run := func(cacheSize int) Stats {
		cfg := baseConfig(pat, 3)
		cfg.CacheSize = cacheSize
		cl := runAndCheck(t, cfg)
		return cl.Stats()
	}
	noCache := run(0)
	cached := run(64)
	if noCache.CacheHits != 0 {
		t.Fatalf("cache disabled but %d hits", noCache.CacheHits)
	}
	if cached.CacheHits == 0 {
		t.Fatal("cache enabled but no hits on a colwave pattern")
	}
	if cached.RemoteFetches >= noCache.RemoteFetches {
		t.Fatalf("cache did not reduce remote fetches: %d >= %d", cached.RemoteFetches, noCache.RemoteFetches)
	}
}

func TestStatsAccounting(t *testing.T) {
	pat := patterns.NewGrid(12, 12)
	cl := runAndCheck(t, baseConfig(pat, 4))
	st := cl.Stats()
	if st.ComputedCells != 144 {
		t.Fatalf("ComputedCells = %d, want 144", st.ComputedCells)
	}
	if st.RemoteFetches == 0 {
		t.Fatal("no remote fetches across 4 places on a grid")
	}
	if st.Epochs != 1 || st.Recoveries != 0 {
		t.Fatalf("epochs/recoveries = %d/%d on a fault-free run", st.Epochs, st.Recoveries)
	}
	if st.MsgsSent == 0 || st.BytesSent == 0 {
		t.Fatal("transport counters empty")
	}
}

func TestSinglePlaceNoMessagesForData(t *testing.T) {
	pat := patterns.NewDiagonal(10, 10)
	cl := runAndCheck(t, baseConfig(pat, 1))
	st := cl.Stats()
	if st.RemoteFetches != 0 {
		t.Fatalf("single place made %d remote fetches", st.RemoteFetches)
	}
	if st.LocalReads == 0 {
		t.Fatal("no local reads recorded")
	}
}

func TestOneCellMatrix(t *testing.T) {
	runAndCheck(t, baseConfig(patterns.NewGrid(1, 1), 1))
}

func TestMorePlacesThanRows(t *testing.T) {
	// 6 places, 3 rows: some places own nothing and must still report done.
	cfg := baseConfig(patterns.NewGrid(3, 8), 6)
	runAndCheck(t, cfg)
}

func TestConfigValidation(t *testing.T) {
	pat := patterns.NewGrid(4, 4)
	cases := []Config[int64]{
		{Common: Common{Places: 0, Pattern: pat}, Compute: sumCompute},
		{Common: Common{Places: 2}, Compute: sumCompute},
		{Common: Common{Places: 2, Pattern: pat}},
		{Common: Common{Places: 2, Pattern: pat, Threads: -1}, Compute: sumCompute},
		{Common: Common{Places: 2, Pattern: pat, Recovery: RecoverSnapshot}, Compute: sumCompute},
	}
	for n, cfg := range cases {
		if _, err := NewCluster(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", n)
		}
	}
}

func TestRunTwiceFails(t *testing.T) {
	cl, err := NewCluster(baseConfig(patterns.NewGrid(4, 4), 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err == nil {
		t.Fatal("second Run did not fail")
	}
}

func TestComputeSeesDepsInPatternOrder(t *testing.T) {
	pat := patterns.NewDiagonal(6, 6)
	var bad atomic.Int32
	cfg := Config[int64]{
		Common: Common{Places: 2, Pattern: pat},
		Codec:  codec.Int64{},
		Compute: func(i, j int32, deps []Cell[int64]) int64 {
			var want []dag.VertexID
			want = pat.Dependencies(i, j, want)
			if len(want) != len(deps) {
				bad.Add(1)
				return 0
			}
			for k := range want {
				if deps[k].ID != want[k] {
					bad.Add(1)
				}
			}
			return sumCompute(i, j, deps)
		},
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d compute calls saw out-of-order or missing deps", bad.Load())
	}
	if lay := cl.Stats().TileLayout; !strings.HasSuffix(lay, "stencil") {
		t.Fatalf("layout %q: the stencil walk did not run", lay)
	}
}

// stealReply answers every kindSteal probe with a canned tile.
type stealReply struct {
	transport.Transport
	reply []byte
}

func (s *stealReply) Call(to int, kind uint8, payload []byte) ([]byte, error) {
	if kind == kindSteal {
		return s.reply, nil
	}
	return s.Transport.Call(to, kind, payload)
}

// TestWireIDsVetted hands every handler that resolves vertex ids from a
// payload an id outside the grid, a negative one and one another place owns.
// The dist tables index unchecked, so each of these panicked (or touched a
// neighbour's offset) before ownedOffset: a Call must answer with an error,
// a steal reply must read as no work. A decrement record, runtime or
// replayed, names tiles and the sender's offsets instead: a tile past this
// place's grid, a zero count, a count past int32 and a run of values past the
// sender's cells must each be refused before any counter moves. A tile
// in flight, pushed here or handed back as a steal reply, must also be
// refused when its cells have mixed owners, when it is empty and when its
// reason is unknown or belongs to the other direction.
func TestWireIDsVetted(t *testing.T) {
	cfg := stealConfig(patterns.NewDiagonal(9, 9), 3)
	cl := runAndCheck(t, cfg)
	pe := cl.engines[1]                                    // block rows: owns rows 3..5
	st, cd, mine := pe.current(), codec.Int64{}, uint32(0) // (3,0), place 1's first cell
	sc, steal := pe.getScratch(), &stealReply{Transport: pe.tr}
	pe.tr = steal
	idVal := func(id dag.VertexID) []byte { return cd.Encode(putID(putU32(putU64(nil, st.epoch), 1), id), 7) }
	calls := map[string]struct {
		handle  func(int, []byte) ([]byte, error)
		payload func(dag.VertexID) []byte
	}{
		"fetch":     {pe.handleFetch, func(id dag.VertexID) []byte { return appendFetchReq(nil, st.epoch, []dag.VertexID{id}) }},
		"stealDone": {pe.handleStealDone, idVal},
		"handover": {pe.handleHandover, func(id dag.VertexID) []byte {
			return encodeHandover(cd, &decrBatch[int64]{epoch: st.epoch}, 1, func(int) (dag.VertexID, int64) { return id, 7 })
		}},
		"readVal": {pe.handleReadVal, func(id dag.VertexID) []byte { return putID(nil, id) }},
	}
	bad := map[string]dag.VertexID{"out of range": {I: 1000, J: 1000}, "negative": {I: -5, J: -7}, "wrong owner": {I: 8, J: 8}}
	for what, id := range bad {
		for kind, c := range calls {
			if _, err := c.handle(1, c.payload(id)); err == nil {
				t.Errorf("%s with an id that is %s: no error", kind, what)
			}
		}
	}
	// Each bad entry follows a good one for tile 0, whose counter the
	// finished run left at zero: applying it would take the counter below
	// zero, which panics. The sender, place 1, owns 27 cells.
	one := func(off, n uint32) tileVals[int64] {
		return tileVals[int64]{runs: []valRun{{off: off, n: n}}, vals: make([]int64, n)}
	}
	badTiles := map[string]struct {
		tc tileCount
		tv tileVals[int64]
	}{
		"a tile past the grid":          {tileCount{tile: uint32(st.chunk.NumTiles()), count: 1}, one(0, 1)},
		"a zero count":                  {tileCount{count: 0}, one(0, 1)},
		"a count past int32":            {tileCount{count: 1 << 31}, one(0, 1)},
		"a run past the sender's cells": {tileCount{count: 1}, one(26, 2)},
	}
	for what, bad := range badTiles {
		b := decrBatch[int64]{epoch: st.epoch, tiles: []tileCount{{tile: 0, count: 1}, bad.tc},
			vals: []tileVals[int64]{one(mine, 1), bad.tv}, ends: []int{2}}
		payload := encodeDecrBatch(cd, &b)
		if _, err := pe.handleHandover(1, encodeHandover(cd, &b, 0, nil)); err == nil {
			t.Errorf("handover with %s: no error", what)
		}
		_, _ = pe.handleDecrBatch(1, payload) // dropped whole: no panic is the check
	}

	// Tiles in flight from place 0, which owns rows 0..2: pushed here as
	// exec and lifeline tiles, and handed back as steal replies.
	zero, theirs := dag.VertexID{}, dag.VertexID{I: 8, J: 8} // owned by places 0 and 2
	tiles := []struct {
		what    string
		ids     []dag.VertexID
		unknown bool // the reason byte names no reason
	}{
		{"an out-of-range id", []dag.VertexID{{I: 1000, J: 1000}}, false},
		{"a negative id", []dag.VertexID{{I: -5, J: -7}}, false},
		{"a wrong owner", []dag.VertexID{theirs}, false},
		{"mixed owners", []dag.VertexID{zero, theirs}, false},
		{"an empty list", nil, false},
		{"an unknown reason", []dag.VertexID{zero}, true},
	}
	body := func(reason uint8, unknown bool, ids []dag.VertexID) []byte {
		if unknown {
			reason = transferExec + 1
		}
		return encodeTransfer(nil, st.epoch, reason, ids)
	}
	for _, tc := range tiles {
		for _, reason := range []uint8{transferExec, transferLifeline} {
			if tc.what == "a wrong owner" && reason == transferLifeline {
				continue // a lifeline tile may have diffused from any owner
			}
			if _, err := pe.handleTransfer(0, body(reason, tc.unknown, tc.ids)); err == nil {
				t.Errorf("a push with reason %d and %s: no error", reason, tc.what)
			}
		}
		steal.reply = body(transferSteal, tc.unknown, tc.ids)
		if pe.stealFrom(st, sc, 0, false) {
			t.Errorf("a steal reply with %s was run", tc.what)
		}
	}
	if _, err := pe.handleTransfer(0, body(transferSteal, false, []dag.VertexID{zero})); err == nil {
		t.Error("a steal reply pushed as a transfer: no error")
	}
	steal.reply = body(transferExec, false, []dag.VertexID{zero})
	if pe.stealFrom(st, sc, 0, false) {
		t.Error("an exec push in a steal reply was run")
	}
	if n := st.inbox.len(); n != 0 {
		t.Errorf("%d refused tiles reached the inbox", n)
	}
	// A place event names a place the coordinator keeps state for.
	for _, fault := range []bool{false, true} {
		for _, p := range []int{3, 1<<32 - 1} {
			if _, err := cl.engines[0].handleCoordinatorEvent(fault)(1, encodePlaceEvent(nil, st.epoch, p)); err == nil {
				t.Errorf("a place event (fault %v) naming place %d of 3: no error", fault, p)
			}
		}
	}
}
