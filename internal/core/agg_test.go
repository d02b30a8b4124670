package core

import (
	"testing"

	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
)

// aggOff is the ablation's baseline arm: a batch cap of one record, so
// every finished vertex costs one message per destination, and no value
// push — the paper's §VI-C behaviour.
func aggOff(cfg *Config[int64]) { cfg.AggMaxBatch, cfg.PushDisabled = 1, true }

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

	if off.AggBatches == 0 || off.DecrsCoalesced != off.AggBatches || off.ValuesPushed != 0 {
		t.Fatalf("batch cap 1 must send one record per message and push nothing: %+v", off)
	}
	if on.AggBatches == 0 || on.DecrsCoalesced == 0 {
		t.Fatalf("aggregation enabled but no batches flushed: %+v", on)
	}
	// Coalescing: strictly fewer one-way sends, and batches must actually
	// carry more than one record on average.
	if on.SendsOut*2 > off.SendsOut {
		t.Fatalf("aggregation did not halve one-way sends: %d vs %d", on.SendsOut, off.SendsOut)
	}
	if on.DecrsCoalesced < 2*on.AggBatches {
		t.Fatalf("batches barely coalesce: %d records in %d batches", on.DecrsCoalesced, on.AggBatches)
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

// decrBatchFixture is a 64-record batch in scan order, four grid-neighbour
// targets and a pushed value per record.
func decrBatchFixture() (recs []decrRecord[int64], targets []dag.VertexID) {
	for k := 0; k < 64; k++ {
		t0 := len(targets)
		for m := 0; m < 4; m++ {
			targets = append(targets, dag.VertexID{I: int32(k), J: int32(m)})
		}
		recs = append(recs, decrRecord[int64]{
			src: dag.VertexID{I: int32(k), J: 0}, hasValue: true, value: int64(k),
			t0: t0, t1: len(targets),
		})
	}
	return recs, targets
}

// TestDecrRecordCompact pins the compact record's three promises: a
// scan-order record with grid-neighbour targets costs one byte per delta
// (the SWLAG shape — 12-byte value, two targets in the next row — fits in
// 19 bytes against 41 for fixed-width ids), steady-state decode does not
// allocate, and a batch cut off inside a varint is rejected without
// allocating either.
func TestDecrRecordCompact(t *testing.T) {
	src := dag.VertexID{I: 7, J: 130}
	next := dag.VertexID{I: 7, J: 131}
	rec := appendDecrRecord(nil, codec.Int64{}, src, next, int64(1), true,
		[]dag.VertexID{{I: 8, J: 131}, {I: 8, J: 132}})
	if got, want := len(rec), 1+2+8+4; got != want {
		t.Fatalf("scan-order record is %d bytes, want %d (head + src + value + 2 targets)", got, want)
	}
	if swlag := len(rec) - 8 + 12; swlag > 19 {
		t.Fatalf("SWLAG-shaped record would be %d bytes, want <= 19", swlag)
	}

	cd := codec.Int64{}
	recs, targets := decrBatchFixture()
	payload := encodeDecrBatch(1, cd, recs, targets)
	_, sr, st, err := decodeDecrBatch(payload, cd, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_, sr, st, err = decodeDecrBatch(payload, cd, sr[:0], st[:0])
	}); allocs != 0 || err != nil {
		t.Fatalf("steady-state decode: %v allocs/op, err %v; want 0, nil", allocs, err)
	}
	// The payload ends in a target's ΔJ varint; give it a continuation bit
	// and nothing after, then cut a multi-byte source delta in half.
	cut := append([]byte(nil), payload...)
	cut[len(cut)-1] |= 0x80
	wide := encodeDecrBatch(1, cd, []decrRecord[int64]{{src: dag.VertexID{I: 1 << 20, J: 0}}}, nil)
	for name, bad := range map[string][]byte{"target": cut, "source": wide[:len(wide)-2]} {
		if allocs := testing.AllocsPerRun(100, func() {
			_, sr, st, err = decodeDecrBatch(bad, cd, sr[:0], st[:0])
		}); allocs != 0 || err == nil {
			t.Fatalf("truncated %s varint: %v allocs/op, err %v; want 0 and an error", name, allocs, err)
		}
	}
}

// BenchmarkDecrBatchDecode guards the zero-allocation decode path the
// receiver relies on: with reused scratch buffers, steady-state decoding
// must not allocate.
func BenchmarkDecrBatchDecode(b *testing.B) {
	cd := codec.Int64{}
	recs, targets := decrBatchFixture()
	payload := encodeDecrBatch(1, cd, recs, targets)
	var sr []decrRecord[int64]
	var st []dag.VertexID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		_, sr, st, err = decodeDecrBatch(payload, cd, sr[:0], st[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}
