package core

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/distarray"
	"github.com/dpx10/dpx10/internal/sched"
)

// aggOff is the ablation's baseline arm: tile size 1 and a batch cap of one
// record, so every finished vertex settles alone and costs one message per
// destination, and no value push — the paper's §VI-C behaviour.
func aggOff(cfg *Config[int64]) { cfg.TileSize, cfg.AggMaxBatch, cfg.PushDisabled = 1, 1, true }

// TestAggregationMatchesReference runs the same patterns with aggregation
// off, on, and on-without-push: every arm must produce the reference
// values. The arms share cache capacity so only delivery differs.
func TestAggregationMatchesReference(t *testing.T) {
	pats := map[string]dag.Pattern{
		"diagonal": patterns.NewDiagonal(16, 14),
		"colwave":  patterns.NewColWave(7, 11),
		"grid":     patterns.NewGrid(13, 13),
	}
	arms := map[string]func(cfg *Config[int64]){
		"off":      aggOff,
		"agg":      func(cfg *Config[int64]) { cfg.PushDisabled = true },
		"agg+push": func(cfg *Config[int64]) {},
	}
	for pname, pat := range pats {
		for aname, arm := range arms {
			pat, arm := pat, arm
			t.Run(pname+"/"+aname, func(t *testing.T) {
				cfg := baseConfig(pat, 3)
				cfg.CacheSize = 64
				arm(&cfg)
				runAndCheck(t, cfg)
			})
		}
	}
}

// TestAggregatorFreeListBounded pins the free-list policy: the list may
// retain at most one buffer per destination and aggFreeTotalMax bytes in
// total, and buffers over aggFreeBufMax never come back at all — a run
// with huge pushed values must not leave every retired buffer pinned at
// its high-water capacity.
func TestAggregatorFreeListBounded(t *testing.T) {
	ag := &aggregator[int64]{bufs: make([]aggBuf, 4)}

	ag.recycle(make([]byte, 0, aggFreeBufMax+1))
	if len(ag.free) != 0 {
		t.Fatalf("oversized buffer (%d bytes) was retained", aggFreeBufMax+1)
	}

	// Entry cap: one buffer per destination.
	for i := 0; i < 10; i++ {
		ag.recycle(make([]byte, 0, 64))
	}
	if len(ag.free) != len(ag.bufs) {
		t.Fatalf("free list holds %d buffers, cap is %d", len(ag.free), len(ag.bufs))
	}
	if ag.freeBytes != len(ag.bufs)*64 {
		t.Fatalf("freeBytes = %d, want %d", ag.freeBytes, len(ag.bufs)*64)
	}

	// Byte cap: near-max buffers stop being retained once the total would
	// exceed aggFreeTotalMax, even with entry slots to spare.
	ag.free, ag.freeBytes = nil, 0
	big := aggFreeBufMax // 4 of these hit aggFreeTotalMax exactly
	for i := 0; i < 4; i++ {
		ag.recycle(make([]byte, 0, big))
	}
	if ag.freeBytes > aggFreeTotalMax {
		t.Fatalf("freeBytes = %d exceeds cap %d", ag.freeBytes, aggFreeTotalMax)
	}
	kept := len(ag.free)
	ag.recycle(make([]byte, 0, big))
	if len(ag.free) != kept {
		t.Fatalf("free list grew past the byte cap: %d -> %d buffers, %d bytes",
			kept, len(ag.free), ag.freeBytes)
	}

	// Reuse must give the bytes back: after taking a buffer out, there is
	// room again.
	n := len(ag.free)
	msg := ag.free[n-1][:0]
	ag.free[n-1] = nil
	ag.free = ag.free[:n-1]
	ag.freeBytes -= cap(msg)
	ag.recycle(msg)
	if len(ag.free) != n {
		t.Fatalf("recycling a borrowed buffer was refused: %d buffers, %d bytes", len(ag.free), ag.freeBytes)
	}
}

// TestAggregationReducesTraffic is the engine-level version of the agg
// ablation's acceptance numbers: coalescing must cut outbound one-way
// messages and value push must cut fetch round-trips, on a pattern with
// heavy cross-place dependencies.
func TestAggregationReducesTraffic(t *testing.T) {
	pat := patterns.NewColWave(8, 24) // every cell needs the whole previous column
	run := func(mutate func(cfg *Config[int64])) Stats {
		cfg := baseConfig(pat, 3)
		cfg.CacheSize = 256
		mutate(&cfg)
		cl := runAndCheck(t, cfg)
		return cl.Stats()
	}
	off := run(aggOff)
	on := run(func(cfg *Config[int64]) {})
	// The flusher alone: the baseline's tile size, so one settlement per
	// vertex as there, but the default batch cap.
	flushed := run(func(cfg *Config[int64]) { cfg.TileSize, cfg.PushDisabled = 1, true })

	if off.AggBatches == 0 || off.DecrsCoalesced != off.AggBatches || off.ValuesPushed != 0 {
		t.Fatalf("batch cap 1 must send one record per message and push nothing: %+v", off)
	}
	if on.AggBatches == 0 || on.DecrsCoalesced == 0 {
		t.Fatalf("aggregation enabled but no batches flushed: %+v", on)
	}
	// Coalescing by the flusher: at the same tile size as the baseline,
	// batches must carry more than one settlement on average and halve the
	// one-way sends.
	if flushed.DecrsCoalesced < 2*flushed.AggBatches {
		t.Fatalf("batches carry %d settlements in %d messages, want >= 2 per message",
			flushed.DecrsCoalesced, flushed.AggBatches)
	}
	if flushed.SendsOut*2 > off.SendsOut {
		t.Fatalf("coalescing did not halve one-way sends: %d vs %d", flushed.SendsOut, off.SendsOut)
	}
	// Coalescing by the tile: a tile settles what all its vertices owe a
	// destination in one record, where the baseline sends one per vertex.
	if on.SendsOut*2 > off.SendsOut {
		t.Fatalf("aggregation did not halve one-way sends: %d vs %d", on.SendsOut, off.SendsOut)
	}
	if on.DecrsCoalesced*2 > off.DecrsCoalesced {
		t.Fatalf("settling per tile did not halve the records: %d vs %d", on.DecrsCoalesced, off.DecrsCoalesced)
	}
	// Value push: at least half the fetch round-trips must disappear.
	if off.FetchCalls == 0 {
		t.Fatal("baseline made no fetch calls on a colwave pattern")
	}
	if on.FetchCalls*2 > off.FetchCalls {
		t.Fatalf("push did not halve fetch calls: %d vs %d", on.FetchCalls, off.FetchCalls)
	}
	if on.PushConsumed == 0 || on.PushDeposits == 0 || on.ValuesPushed == 0 {
		t.Fatalf("push enabled but unused: %+v", on)
	}
	// A box read is of a kept value, and a kept value was pushed.
	if on.PushConsumed > on.PushDeposits || on.PushDeposits > on.ValuesPushed {
		t.Fatalf("%d box reads, %d values kept, %d pushed; want each at most the next", on.PushConsumed, on.PushDeposits, on.ValuesPushed)
	}
}

// TestAggregationWithoutCacheStaysPlain verifies push degrades safely when
// CacheSize is 0 and no value may be pinned: records carry counts and no
// values, nothing is deposited, and the run still matches the reference.
func TestAggregationWithoutCacheStaysPlain(t *testing.T) {
	cfg := baseConfig(patterns.NewDiagonal(12, 12), 3)
	cfg.CacheSize = 0
	cl := runAndCheck(t, cfg)
	st := cl.Stats()
	if st.ValuesPushed != 0 || st.PushDeposits != 0 || st.PushConsumed != 0 {
		t.Fatalf("no cache configured but push stats nonzero: %+v", st)
	}
	if st.AggBatches == 0 {
		t.Fatal("aggregation should still batch decrements without a cache")
	}
}

// TestAggregationSurvivesFault kills a place mid-run with aggregation and
// value push enabled: buffered and in-flight batches from the old epoch
// must be flushed or dropped without corrupting the recovered run.
func TestAggregationSurvivesFault(t *testing.T) {
	pat := patterns.NewDiagonal(24, 18)
	cfg, gate, release := gatedConfig(pat, 4, 150)
	cfg.CacheSize = 128
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
	st := cl.Stats()
	if st.Recoveries < 1 {
		t.Fatal("no recovery recorded")
	}
	if st.AggBatches == 0 {
		t.Fatal("aggregation never flushed a batch")
	}
	checkResult(t, cl, pat)
}

// TestSettlementPerUnit runs a 300x300 grid dealt by rows over two places,
// where every cell has a dependent at the other place. Each unit settles
// what it owes there as one record, so the records (Stats.DecrsCoalesced)
// are a small fraction of the cells; at one record per finished cell with a
// remote dependent there would be about one per cell. The result must be
// bit-exact, as it must be when stolen tiles come home and settle through the
// same path, and across a kill.
func TestSettlementPerUnit(t *testing.T) {
	pat := patterns.NewGrid(300, 300)
	dealt := func(cfg *Config[int64]) {
		cfg.NewDist = func(h, w int32, n int) dist.Dist { return dist.NewCyclicRow(h, w, n) }
		cfg.CacheSize = 1024
	}
	cfg := baseConfig(pat, 2)
	dealt(&cfg)
	s := runAndCheck(t, cfg).Stats()
	if per := float64(s.DecrsCoalesced) / float64(s.ComputedCells); per > 0.2 {
		t.Fatalf("%d records for %d cells, %.3f per cell; want <= 0.2", s.DecrsCoalesced, s.ComputedCells, per)
	}

	steal := stealConfig(pat, 2)
	dealt(&steal)
	runAndCheck(t, steal)

	kill, gate, release := gatedConfig(pat, 2, 45000)
	dealt(&kill)
	cl, err := NewCluster(kill)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cl.Run() }()
	<-gate
	cl.Kill(1)
	release()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if cl.Stats().Recoveries < 1 {
		t.Fatal("no recovery recorded")
	}
	checkResult(t, cl, pat)
}

// boxState reads a place's live boxes under their lock: the most values
// they ever pinned at once, those pinned now, and whether every storage made
// is back on the free list.
func boxState(pe *placeEngine[int64]) (peak, pinned int, allFree bool) {
	bx := pe.current().boxes
	bx.mu.Lock()
	defer bx.mu.Unlock()
	allFree = len(bx.free) == bx.made
	for _, s := range bx.box {
		allFree = allFree && (s == nil || s == &bx.closed)
	}
	return bx.peak, bx.pinned, allFree
}

// TestPushedBoxesBounded pins the push boxes' promises. A place pins at most
// as many pushed values as it owns cells, whatever the vertex cache's size,
// drops the rest and fetches them, and the result is bit-exact; every box is
// empty after the run and its storage is back on the free list, also when
// tiles leave by exec (Random) or steal; after a kill the live epoch's boxes
// are its own and drain too; and a deposit for a tile the activation scan
// retired is dropped, or freed by the scan if it landed first.
func TestPushedBoxesBounded(t *testing.T) {
	const cache = 16
	pat := patterns.NewDiagonal(40, 60) // block rows over two places: rows 0..19 and 20..39
	drained := func(cl *Cluster[int64], skip int) {
		t.Helper()
		for p, pe := range cl.engines {
			if p == skip {
				continue
			}
			peak, pinned, free := boxState(pe)
			if bound := pe.current().chunk.Len(); peak > bound || pinned != 0 || !free {
				t.Fatalf("place %d: peak %d pinned values (bound %d), %d pinned after the run, all storage free: %v", p, peak, bound, pinned, free)
			}
		}
	}

	// Fan-in: place 1's first row, 15 tiles of 1x4, reads all of place 0's
	// last row, so 15 x 60 values are pushed to a place of 120 cells. No such
	// tile is ready before every tile of that row settled, and two of the
	// fifteen settlements reach the bound, so the boxes fill to exactly it
	// and the rest is dropped and fetched.
	fanIn := baseConfig(patterns.NewRowWave(4, 60), 2)
	fanIn.CacheSize, fanIn.TileShape = cache, [2]int{1, 4}
	cl := runAndCheck(t, fanIn)
	s := cl.Stats()
	if peak, _, _ := boxState(cl.engines[1]); peak != 120 || s.PushDeposits >= s.ValuesPushed || s.CacheMisses == 0 {
		t.Fatalf("peak %d pinned, %d of %d pushed values kept, %d fetched; want the bound 120 reached, some dropped and fetched",
			peak, s.PushDeposits, s.ValuesPushed, s.CacheMisses)
	}
	// Every value pushed to a tile is a remote dependency it reads: kept
	// ones from its box, dropped ones from the cache or a fetch.
	if s.PushConsumed != s.PushDeposits || s.CacheHits+s.CacheMisses != s.ValuesPushed {
		t.Fatalf("%d box reads of %d kept; %d hits + %d misses for %d pushed", s.PushConsumed, s.PushDeposits, s.CacheHits, s.CacheMisses, s.ValuesPushed)
	}
	drained(cl, -1)

	// Without fan-in every pushed value fits: place 1 keeps all of place 0's
	// bottom row, far more than the vertex cache holds, and fetches nothing.
	cfg := baseConfig(pat, 2)
	cfg.CacheSize = cache
	cl = runAndCheck(t, cfg)
	if s := cl.Stats(); s.PushDeposits != s.ValuesPushed || s.PushDeposits <= cache || s.FetchCalls != 0 {
		t.Fatalf("%d of %d pushed values kept, %d fetch calls; want all kept, more than %d, and none", s.PushDeposits, s.ValuesPushed, s.FetchCalls, cache)
	}
	drained(cl, -1)

	for _, strat := range []sched.Strategy{sched.Random, sched.Steal} {
		cfg := baseConfig(pat, 3)
		cfg.CacheSize, cfg.Strategy = cache, strat
		cl := runAndCheck(t, cfg)
		if strat == sched.Random && cl.Stats().ExecMigrated == 0 {
			t.Fatal("random placement handed no tile away")
		}
		drained(cl, -1)
	}
	// The wave of 32 two-cell tiles reads place 0's last chain cell; its
	// place pushes most of them down its lifelines.
	life := lifelineConfig(lastWave{h: 16, w: 32, hot: 14}, 4)
	life.CacheSize = cache
	life.Compute = skewCompute(func(i, j int32) bool { return i == 0 }, 300*time.Microsecond, 100*time.Microsecond)
	if cl := runAndCheck(t, life); cl.Stats().TilesMigrated == 0 {
		t.Fatal("no tile went down a lifeline")
	} else {
		drained(cl, -1)
	}

	kill, gate, release := gatedConfig(pat, 3, 900)
	kill.CacheSize = cache
	cl, err := NewCluster(kill)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cl.Run() }()
	<-gate
	old := cl.engines[1].current()
	cl.Kill(2)
	release()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkResult(t, cl, pat)
	if cl.Stats().Recoveries < 1 || cl.engines[1].current() == old {
		t.Fatal("no recovery replaced the epoch")
	}
	drained(cl, 2)

	// A one-place chunk of four one-row tiles, the first two restored whole:
	// the scan retires them. Each deposit gives two tiles two values each.
	small := patterns.NewDiagonal(4, 8)
	ch := distarray.NewChunk[int64](0, dist.NewBlockRow(4, 8, 1))
	ch.ConfigureGrid(distarray.NewTileGrid(4, 8, 1, 8))
	ch.InitFlags(small)
	for off := 0; off < 16; off++ {
		ch.SetResult(off, 1)
	}
	bx := newPushBoxes[int64](ch.NumTiles(), ch.Len())
	deposit := func(t1, t2 uint32) int {
		two := tileVals[int64]{runs: []valRun{{off: 0, n: 2}}, vals: []int64{1, 2}}
		return bx.deposit(ch, 1, &decrBatch[int64]{tiles: []tileCount{{tile: t1, count: 1}, {tile: t2, count: 1}}, vals: []tileVals[int64]{two, two}})
	}
	if kept := deposit(0, 2); kept != 4 {
		t.Fatalf("before the scan %d values kept, want 4", kept)
	}
	ch.ActivateTiles(small)
	bx.dropRetired(ch)
	if !ch.TileRetired(0) || !ch.TileRetired(1) || ch.TileRetired(2) || bx.pinned != 2 {
		t.Fatalf("%d values pinned after the scan; want tiles 0 and 1 retired, tile 0's box freed and tile 2's kept", bx.pinned)
	}
	if kept := deposit(1, 3); kept != 2 || bx.pinned != 4 {
		t.Fatalf("%d values kept, %d pinned; want the retired tile's dropped", kept, bx.pinned)
	}
	// Tile 2 runs, tile 3 leaves: neither takes a deposit after.
	bx.release(bx.take(2))
	bx.drop(3)
	if kept := deposit(2, 3); kept != 0 || bx.pinned != 0 || len(bx.free) != bx.made {
		t.Fatalf("%d values kept, %d pinned, %d of %d storages free; want none kept or pinned, all free", kept, bx.pinned, len(bx.free), bx.made)
	}
}

// decrBatchFixture is a 64-record batch in scan order: each record two
// tile entries, the first carrying a run of four pushed values, the second
// the run's last cell again, which that tile reads too.
func decrBatchFixture() *decrBatch[int64] {
	b := &decrBatch[int64]{epoch: 1}
	for k := 0; k < 64; k++ {
		off := uint32(4 * k)
		b.tiles = append(b.tiles, tileCount{tile: uint32(k), count: 3}, tileCount{tile: uint32(k + 1), count: 1})
		b.vals = append(b.vals,
			tileVals[int64]{runs: []valRun{{off: off, n: 4}}, vals: []int64{int64(k), int64(k), int64(k), int64(k)}},
			tileVals[int64]{runs: []valRun{{off: off + 3, n: 1}}, vals: []int64{int64(k)}})
		b.ends = append(b.ends, len(b.tiles))
	}
	return b
}

// sameBatch reports whether two decoded batches hold the same records: an
// entry with no values equals one whose values are empty.
func sameBatch(a, b *decrBatch[int64]) bool {
	if a.epoch != b.epoch || !slices.Equal(a.tiles, b.tiles) || !slices.Equal(a.ends, b.ends) {
		return false
	}
	for k := range a.tiles {
		var va, vb tileVals[int64]
		if k < len(a.vals) {
			va = a.vals[k]
		}
		if k < len(b.vals) {
			vb = b.vals[k]
		}
		if !slices.Equal(va.runs, vb.runs) || !slices.Equal(va.vals, vb.vals) {
			return false
		}
	}
	return true
}

// TestDecrRecordCompact pins the record's promises: a tile entry costs at
// most 3 bytes for a tile below 16 384, a record without values costs its
// two counts and its entries and nothing more, a pushed value costs the
// codec's bytes when it extends a run and at most 2 more when it starts one,
// steady-state decode does not allocate, and a batch cut off inside a varint
// is rejected without allocating either. So are a count of zero or past
// int32, a tile past int32, a push flag past 1, a run of zero, a run longer
// than the bytes left, a run that leaves the int32 offsets, and more runs
// than the bytes left could hold.
func TestDecrRecordCompact(t *testing.T) {
	cd := codec.Int64{}
	size := func(tiles []tileCount, vals []tileVals[int64]) int {
		rec, _ := appendDecrRecord(nil, cd, 0, tiles, vals)
		return len(rec)
	}
	head := size(nil, nil)
	entry := []tileCount{{tile: 16383, count: 127}}
	if n := size(entry, nil) - head; n > 3 {
		t.Fatalf("a tile entry is %d bytes, want <= 3", n)
	}
	replay := []tileCount{{tile: 1, count: 300}, {tile: 200, count: 1}, {tile: 70000, count: 5}}
	if n, want := size(replay, nil), 2+2+1+2+1+3+1; n != want {
		t.Fatalf("a record of three entries and no values is %d bytes, want %d", n, want)
	}
	one := size(entry, []tileVals[int64]{{runs: []valRun{{off: 130, n: 1}}, vals: []int64{1}}})
	if n := size(entry, []tileVals[int64]{{runs: []valRun{{off: 130, n: 2}}, vals: []int64{1, 2}}}) - one; n != 8 {
		t.Fatalf("a value extending a run is %d bytes, want the codec's 8", n)
	}
	if n := size(entry, []tileVals[int64]{{runs: []valRun{{off: 130, n: 1}, {off: 140, n: 1}}, vals: []int64{1, 2}}}) - one; n > 2+8 {
		t.Fatalf("a value starting a run is %d bytes, want <= 2 + the codec's 8", n)
	}

	payload := encodeDecrBatch(cd, decrBatchFixture())
	var b decrBatch[int64]
	if err := decodeDecrBatch(payload, cd, &b); err != nil || !sameBatch(&b, decrBatchFixture()) {
		t.Fatalf("fixture decodes to %+v, err %v", b, err)
	}
	var err error
	if allocs := testing.AllocsPerRun(100, func() {
		err = decodeDecrBatch(payload, cd, &b)
	}); allocs != 0 || err != nil {
		t.Fatalf("steady-state decode: %v allocs/op, err %v; want 0, nil", allocs, err)
	}
	// One-record batches built by hand: the record's two counts, then its
	// entries. The fixture's last run header is cut inside its Δoff.
	rec := func(body ...byte) []byte { return append(putU32(putU64(nil, 1), 1), body...) }
	cut := append([]byte(nil), payload[:len(payload)-8-1]...)
	cut[len(cut)-1] |= 0x80
	for name, bad := range map[string][]byte{
		"run Δoff cut":          cut,
		"zero count":            rec(1, 0, 5, 0),
		"count past int32":      rec(binary.AppendUvarint([]byte{1, 0, 1}, 1<<31)...),
		"tile past int32":       rec(append(binary.AppendUvarint([]byte{1, 0}, 1<<31), 1)...),
		"push flag 2":           rec(1, 2, 5, 1, 0),
		"zero run":              rec(1, 1, 5, 1, 1, 0, 0, 0, 0),
		"run past the payload":  rec(1, 1, 5, 1, 1, 0, 9, 1, 2, 3, 4, 5, 6, 7, 8),
		"Δoff past int32":       rec(append(append([]byte{1, 1, 5, 1, 1}, binary.AppendVarint(nil, 1<<31-1)...), 1, 1, 2, 3, 4, 5, 6, 7, 8)...),
		"negative Δoff":         rec(1, 1, 5, 1, 1, 1, 1, 1, 2, 3, 4, 5, 6, 7, 8),
		"runs past the payload": rec(1, 1, 5, 1, 9, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8),
	} {
		if allocs := testing.AllocsPerRun(100, func() {
			err = decodeDecrBatch(bad, cd, &b)
		}); allocs != 0 || err == nil {
			t.Fatalf("%s: %v allocs/op, err %v; want 0 and an error", name, allocs, err)
		}
	}
}

// TestDecrBatchRoundTrip is decode∘encode over random batches: records with
// and without values, entries with several runs, none or one, offsets
// jumping both ways and as far as int32 allows. Every batch decodes to
// itself.
func TestDecrBatchRoundTrip(t *testing.T) {
	cd := codec.Int64{}
	rng := rand.New(rand.NewSource(37))
	var got decrBatch[int64]
	for trial := 0; trial < 500; trial++ {
		b := &decrBatch[int64]{epoch: rng.Uint64()}
		for r := rng.Intn(4); r >= 0; r-- {
			push := rng.Intn(2) == 0
			for e := rng.Intn(4); e >= 0; e-- {
				b.tiles = append(b.tiles, tileCount{tile: uint32(rng.Int31()), count: uint32(rng.Int31n(1<<31-1)) + 1})
				var tv tileVals[int64]
				for n := rng.Intn(3); push && n > 0; n-- {
					run := valRun{n: uint32(rng.Intn(5)) + 1}
					run.off = uint32(rng.Int31n(int32(1<<31 - 1 - run.n)))
					tv.runs = append(tv.runs, run)
					for k := uint32(0); k < run.n; k++ {
						tv.vals = append(tv.vals, rng.Int63()-rng.Int63())
					}
				}
				b.vals = append(b.vals, tv)
			}
			b.ends = append(b.ends, len(b.tiles))
		}
		if err := decodeDecrBatch(encodeDecrBatch(cd, b), cd, &got); err != nil || !sameBatch(&got, b) {
			t.Fatalf("trial %d: %+v decodes to %+v, err %v", trial, b, got, err)
		}
	}
}

// BenchmarkDecrBatchDecode guards the zero-allocation decode path the
// receiver relies on: with reused scratch buffers, steady-state decoding
// must not allocate.
func BenchmarkDecrBatchDecode(b *testing.B) {
	cd := codec.Int64{}
	payload := encodeDecrBatch(cd, decrBatchFixture())
	var batch decrBatch[int64]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodeDecrBatch(payload, cd, &batch); err != nil {
			b.Fatal(err)
		}
	}
}
