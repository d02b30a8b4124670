package core

import (
	"encoding/binary"
	"testing"

	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/dist"
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
}

// TestAggregationWithoutCacheStaysPlain verifies push degrades safely when
// there is no cache to deposit into: flags stay clear on the wire and the
// run still matches the reference.
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

// decrBatchFixture is a 64-record batch in scan order: each record two
// tile counts and four pushed grid-neighbour values.
func decrBatchFixture() *decrBatch[int64] {
	b := &decrBatch[int64]{epoch: 1}
	for k := 0; k < 64; k++ {
		b.tiles = append(b.tiles, tileCount{tile: uint32(k), count: 3}, tileCount{tile: uint32(k + 1), count: 1})
		for m := 0; m < 4; m++ {
			b.ids = append(b.ids, dag.VertexID{I: int32(k), J: int32(4*k + m)})
			b.vals = append(b.vals, int64(k))
		}
		b.ends = append(b.ends, decrEnd{tiles: len(b.tiles), vals: len(b.ids)})
	}
	return b
}

// TestDecrRecordCompact pins the record's promises: a tile record costs at
// most 3 bytes for a tile below 16 384, a pushed grid-neighbour value at most
// 2 bytes beside the codec's, steady-state decode does not allocate, and a
// batch cut off inside a varint is rejected without allocating either. So
// does a count of zero or past int32, and a tile past int32.
func TestDecrRecordCompact(t *testing.T) {
	cd := codec.Int64{}
	head := len(appendDecrRecord[int64](nil, cd, dag.VertexID{}, nil, nil, nil))
	if rec := appendDecrRecord[int64](nil, cd, dag.VertexID{}, []tileCount{{tile: 16383, count: 127}}, nil, nil); len(rec)-head > 3 {
		t.Fatalf("a tile record is %d bytes, want <= 3", len(rec)-head)
	}
	src, next := dag.VertexID{I: 7, J: 130}, dag.VertexID{I: 7, J: 131}
	if rec := appendDecrRecord(nil, cd, src, nil, []dag.VertexID{next}, []int64{1}); len(rec)-head > 2+8 {
		t.Fatalf("a pushed grid-neighbour value is %d bytes, want <= 2 + the codec's 8", len(rec)-head)
	}

	payload := encodeDecrBatch(cd, decrBatchFixture())
	var b decrBatch[int64]
	if err := decodeDecrBatch(payload, cd, &b); err != nil {
		t.Fatal(err)
	}
	var err error
	if allocs := testing.AllocsPerRun(100, func() {
		err = decodeDecrBatch(payload, cd, &b)
	}); allocs != 0 || err != nil {
		t.Fatalf("steady-state decode: %v allocs/op, err %v; want 0, nil", allocs, err)
	}
	// The payload ends in a value; cut the codec's 8 bytes and give the source
	// ΔJ before them a continuation bit. Then cut a multi-byte source delta in
	// half, and write the malformed tile counts.
	cut := append([]byte(nil), payload[:len(payload)-8]...)
	cut[len(cut)-1] |= 0x80
	wide := encodeDecrBatch(cd, &decrBatch[int64]{ids: []dag.VertexID{{I: 1 << 20}}, vals: []int64{0}, ends: []decrEnd{{vals: 1}}})
	one := func(tile, count uint64) []byte {
		return binary.AppendUvarint(binary.AppendUvarint(append(putU32(putU64(nil, 1), 1), 1, 0), tile), count)
	}
	for name, bad := range map[string][]byte{"source ΔJ": cut, "source ΔI": wide[:len(wide)-10],
		"zero count": one(1, 0), "count past int32": one(1, 1<<31), "tile past int32": one(1<<31, 1)} {
		if allocs := testing.AllocsPerRun(100, func() {
			err = decodeDecrBatch(bad, cd, &b)
		}); allocs != 0 || err == nil {
			t.Fatalf("%s: %v allocs/op, err %v; want 0 and an error", name, allocs, err)
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
