package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/dag"
)

// fuzzedWireKinds lists every wire-protocol kind whose payload grammar is
// exercised by the decoder probes and fuzz targets in this file. The
// protokind analyzer in dpx10-vet cross-checks it against the kind*
// constant block in proto.go: declaring a new kind without extending this
// table (and wireProbes below) fails `make vet`.
var fuzzedWireKinds = []uint8{
	kindFetch, kindPlaceDone, kindFault,
	kindRebuild, kindExchange, kindRestoreTx,
	kindReplayTx, kindResume, kindStop, kindReadVal, kindPing,
	kindHello, kindBegin, kindSteal, kindStealDone, kindDecrBatch,
	kindStats, kindTransfer,
}

// wireProbes maps each kind to a decode of its payload grammar, mirroring
// what the kind's handler does with an incoming payload. A probe must be
// total: any input returns normally (possibly with an error) — no panics.
var wireProbes = map[uint8]func(data []byte){
	kindFetch:     func(b []byte) { _, _, _ = decodeFetchReq(b, nil) },
	kindPlaceDone: func(b []byte) { r := reader{b: b}; _ = r.u64(); _ = r.u32() },
	kindFault:     func(b []byte) { r := reader{b: b}; _ = r.u64(); _ = r.u32() },
	kindRebuild: func(b []byte) {
		r := reader{b: b}
		_ = r.u64()
		n := r.u32()
		for k := uint32(0); k < n && r.err == nil; k++ {
			_ = r.u32()
		}
	},
	kindExchange: func(b []byte) { r := reader{b: b}; _ = r.u64() },
	kindRestoreTx: func(b []byte) {
		r := reader{b: b}
		_ = r.u64()
		n := r.u32()
		for k := uint32(0); k < n && r.err == nil; k++ {
			_ = r.id()
			_, used, err := codec.Int64{}.Decode(r.rest())
			if err != nil {
				return
			}
			r.off += used
		}
	},
	kindReplayTx: func(b []byte) { _ = decodeDecrBatch(b, codec.Int64{}, &decrBatch[int64]{}) },
	kindResume:   func(b []byte) { r := reader{b: b}; _ = r.u64() },
	kindStop:     func(b []byte) {}, // epoch payload unread; the empty reply is the ack
	kindReadVal:  func(b []byte) { r := reader{b: b}; _ = r.id() },
	kindPing:     func(b []byte) { _, _ = handlePing(0, b) }, // heartbeat echo, total for any input
	kindHello:    func(b []byte) {},                          // no payload
	kindBegin:    func(b []byte) {},                          // no payload
	kindSteal:    func(b []byte) { r := reader{b: b}; _ = r.u64(); _ = r.u8() },
	kindStealDone: func(b []byte) {
		r := reader{b: b}
		_ = r.u64()
		n := r.u32()
		for k := uint32(0); k < n && r.err == nil; k++ {
			_ = r.id()
			_, used, err := codec.Int64{}.Decode(r.rest())
			if err != nil {
				return
			}
			r.off += used
		}
	},
	kindDecrBatch: func(b []byte) { _ = decodeDecrBatch(b, codec.Int64{}, &decrBatch[int64]{}) },
	kindStats:     func(b []byte) {}, // request has no payload; the reply decoder is FuzzSnapshotWire's target
	kindTransfer:  func(b []byte) { _, _, _, _ = decodeTransfer(b, nil) },
}

// TestWireKindsCovered pins the coverage table's shape: every listed kind
// is distinct and has a probe, and every probe survives adversarial
// payloads (empty, truncated, absurd counts).
func TestWireKindsCovered(t *testing.T) {
	junk := [][]byte{
		nil,
		{},
		{1},
		{1, 2, 3},
		putU32(putU64(nil, 1), 0xFFFFFFFF),
		putU64(putU64(nil, 0), 0xFFFFFFFFFFFFFFFF),
		make([]byte, 64),
	}
	seen := map[uint8]bool{}
	for _, k := range fuzzedWireKinds {
		if seen[k] {
			t.Errorf("fuzzedWireKinds lists kind %d twice", k)
		}
		seen[k] = true
		probe, ok := wireProbes[k]
		if !ok {
			t.Errorf("kind %d has no wire probe", k)
			continue
		}
		for _, b := range junk {
			probe(b)
		}
	}
	for k := range wireProbes {
		if !seen[k] {
			t.Errorf("wireProbes has entry for kind %d, which is not in fuzzedWireKinds", k)
		}
	}
}

// fetchReqSeeds are the delta-coded kindFetch request's edge cases: a halo
// in walk order, deltas that are negative or span the whole int32 range, a
// full chunk, and the malformed inputs the handler must reject — a varint cut
// short, an overlong one, a delta that leaves int32, a count above the chunk
// bound and one above what the payload could hold.
func fetchReqSeeds() [][]byte {
	const lo, hi = -1 << 31, 1<<31 - 1
	req := func(n uint32, body ...byte) []byte { return append(putU32(putU64(nil, 1), n), body...) }
	full := make([]dag.VertexID, fetchMaxIDs)
	for k := range full {
		full[k] = dag.VertexID{I: int32(k / 64), J: int32(k % 64)}
	}
	wide := appendFetchReq(nil, 7, []dag.VertexID{{I: 1, J: 2}, {I: -3, J: 1 << 30}, {I: lo, J: hi}, {I: hi, J: lo}})
	overlong := bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64+1)
	return [][]byte{
		appendFetchReq(nil, 0, nil),
		appendFetchReq(nil, 3, []dag.VertexID{{I: 4, J: 500}, {I: 4, J: 499}, {I: 4, J: 498}, {I: 5, J: 500}}),
		wide,
		appendFetchReq(nil, 9, full),
		wide[:len(wide)-1],             // last id's ΔJ cut off
		req(1, 0x80),                   // ΔI: continuation bit, then nothing
		req(1, append(overlong, 0)...), // ΔI: more continuation bytes than a varint has
		req(1, binary.AppendVarint(nil, 1<<32)...),                               // I leaves int32
		req(2, append([]byte{0, 0}, binary.AppendVarint([]byte{0}, hi+1)...)...), // second J leaves int32
		req(fetchMaxIDs+1, make([]byte, 2*(fetchMaxIDs+1))...),                   // above the chunk bound
		req(0xFFFFFFFF), // huge claimed count
		{},
		{1, 2, 3},
	}
}

// FuzzDecodeFetchReq hardens the fetch request decoder: arbitrary bytes
// must never panic, a decoded request never exceeds the chunk bound, and
// every payload that decodes round-trips through appendFetchReq unchanged.
func FuzzDecodeFetchReq(f *testing.F) {
	for _, seed := range fetchReqSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, ids, err := decodeFetchReq(data, nil)
		if err != nil {
			return
		}
		if len(ids) > fetchMaxIDs {
			t.Fatalf("decoded %d ids, above the %d bound", len(ids), fetchMaxIDs)
		}
		epoch2, ids2, err2 := decodeFetchReq(appendFetchReq(nil, epoch, ids), nil)
		if err2 != nil || epoch2 != epoch || len(ids2) != len(ids) {
			t.Fatalf("round trip failed: %v / %d->%d ids", err2, len(ids), len(ids2))
		}
		for k := range ids {
			if ids[k] != ids2[k] {
				t.Fatalf("id %d changed: %v -> %v", k, ids[k], ids2[k])
			}
		}
	})
}

// TestFetchReqCompact pins the request's promises: a halo in walk order
// costs about two bytes an id against eight fixed-width, steady-state decode
// does not allocate, and every malformed seed — truncated or overlong varint,
// a delta leaving int32, a count above the bound — is rejected without
// allocating either.
func TestFetchReqCompact(t *testing.T) {
	halo := make([]dag.VertexID, 300)
	for k := range halo {
		halo[k] = dag.VertexID{I: int32(40 + k/100), J: int32(400 + k%100)}
	}
	payload := appendFetchReq(nil, 1, halo)
	if perID := float64(len(payload)-12) / float64(len(halo)); perID > 2.1 {
		t.Fatalf("walk-order halo costs %.2f bytes an id, want about 2", perID)
	}
	_, buf, err := decodeFetchReq(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_, buf, err = decodeFetchReq(payload, buf[:0])
	}); allocs != 0 || err != nil {
		t.Fatalf("steady-state decode: %v allocs/op, err %v; want 0, nil", allocs, err)
	}
	rejected := 0
	for k, seed := range fetchReqSeeds() {
		if _, _, err := decodeFetchReq(seed, nil); err == nil {
			continue // the well-formed seeds
		}
		rejected++
		if allocs := testing.AllocsPerRun(100, func() {
			_, buf, err = decodeFetchReq(seed, buf[:0])
		}); allocs != 0 || err == nil {
			t.Fatalf("malformed seed %d: %v allocs/op, err %v; want 0 and an error", k, allocs, err)
		}
	}
	if rejected != 9 {
		t.Fatalf("%d seeds rejected, want the 9 malformed ones", rejected)
	}
}

// decrBatchSeeds are the record's edge cases shared by the two decrBatch
// fuzz corpora: Δoffs that are negative or as wide as int32, runs out of
// order, records with no entries, with no values, and with an entry that
// has values beside one that has none, a replay's one record of counts, and
// malformed inputs — varints cut short, a push flag past 1, a zero count, a
// count or a tile past int32, absurd counts, a run of zero, a run past the
// payload, a Δoff that leaves int32 and a run past the sender's cells, which
// only the handler can see.
func decrBatchSeeds() [][]byte {
	cd := codec.Int64{}
	const hi = 1<<31 - 1
	run := func(off, n uint32, v int64) tileVals[int64] {
		tv := tileVals[int64]{runs: []valRun{{off: off, n: n}}}
		for k := uint32(0); k < n; k++ {
			tv.vals = append(tv.vals, v+int64(k))
		}
		return tv
	}
	wide := encodeDecrBatch(cd, &decrBatch[int64]{epoch: 3,
		tiles: []tileCount{{tile: 0, count: 2}, {tile: 16383, count: 1}, {tile: hi, count: hi}, {tile: 7, count: 1}},
		vals: []tileVals[int64]{
			{runs: []valRun{{off: 9, n: 1}, {off: 0, n: 2}}, vals: []int64{-42, 7, 0}}, // a negative Δoff
			run(hi-1, 1, 1), // as far as int32 goes
			{},              // an entry with no values beside ones with
			run(5, 3, 2),    // back from the top
		},
		ends: []int{0, 2, 4}, // the first record has no entries
	})
	replay := encodeDecrBatch(cd, &decrBatch[int64]{epoch: 4,
		tiles: []tileCount{{tile: 1, count: 300}, {tile: 2, count: 1}}, ends: []int{2}})
	// One-record batches built by hand, the two counts first.
	rec := func(body ...byte) []byte { return append(putU32(putU64(nil, 1), 1), body...) }
	value := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	return [][]byte{
		encodeDecrBatch(cd, &decrBatch[int64]{}),
		wide,
		replay,
		wide[:len(wide)-1],                       // last value cut short
		rec(1, 1, 5, 1, 1, 0x80),                 // Δoff: continuation bit, then nothing
		rec(1, 2, 5, 1, 0),                       // a push flag of 2
		rec(binary.AppendUvarint(nil, 1<<40)...), // huge entry count
		rec(1, 0, 5, 0),                          // a zero count
		rec(1, 0, 5, 0x80, 0x80, 0x80, 0x80, 0x08),                                                                        // a count of 2³¹
		rec(append([]byte{1, 1, 5, 1, 1, 0, 0}, value...)...),                                                             // a run of zero
		rec(append([]byte{1, 1, 5, 1, 1, 0, 9}, value...)...),                                                             // a run past the payload
		rec(append(append([]byte{1, 1, 5, 1, 1}, binary.AppendVarint(nil, hi)...), append([]byte{1}, value...)...)...),    // off + n past int32
		rec(append([]byte{1, 1, 5, 1, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 1}, value...)...),    // a Δoff of 2⁶²
		rec(append([]byte{1, 1, 5, 1, 1, 1, 1}, value...)...),                                                             // a negative offset
		rec(append([]byte{1, 1, 5, 1, 9, 0, 1}, value...)...),                                                             // more runs than the bytes left
		rec(append(append([]byte{1, 1, 5, 1, 1}, binary.AppendVarint(nil, 1<<20)...), append([]byte{1}, value...)...)...), // past most senders' cells
		putU32(putU64(nil, 1), 0xFFFFFFFF),                                                                                // huge claimed record count
		{},
		{1, 2, 3},
	}
}

// FuzzDecodeDecrBatch hardens the decrement-record decoder: arbitrary bytes
// — truncations, absurd counts, deltas that overflow — must never panic, a
// decoded count is never zero, no count or tile leaves int32, no run is
// empty or leaves the int32 offsets and its values match its length, and
// every payload that decodes must round-trip through encodeDecrBatch
// unchanged.
func FuzzDecodeDecrBatch(f *testing.F) {
	cd := codec.Int64{}
	for _, seed := range decrBatchSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b, b2 decrBatch[int64]
		if decodeDecrBatch(data, cd, &b) != nil {
			return
		}
		for k, tc := range b.tiles {
			if tc.count == 0 || tc.count > 1<<31-1 || tc.tile > 1<<31-1 {
				t.Fatalf("decoded %+v", tc)
			}
			n := 0
			for _, r := range b.vals[k].runs {
				if r.n == 0 || uint64(r.off)+uint64(r.n) > 1<<31-1 {
					t.Fatalf("decoded run %+v", r)
				}
				n += int(r.n)
			}
			if n != len(b.vals[k].vals) {
				t.Fatalf("entry %d: runs of %d values, %d decoded", k, n, len(b.vals[k].vals))
			}
		}
		if err := decodeDecrBatch(encodeDecrBatch(cd, &b), cd, &b2); err != nil || !sameBatch(&b, &b2) {
			t.Fatalf("round trip failed: %v / %+v -> %+v", err, b, b2)
		}
	})
}

// TestReliableKindTable pins the reliable-delivery envelope policy to the
// wire kinds: every protocol kind is tracked (sequence-numbered, retried,
// deduplicated) except the five whose loss is harmless by construction —
// heartbeats, the startup barrier pair, and the post-run reads (values
// and metrics snapshots).
func TestReliableKindTable(t *testing.T) {
	exempt := map[uint8]bool{kindPing: true, kindHello: true, kindBegin: true, kindReadVal: true, kindStats: true}
	for _, k := range fuzzedWireKinds {
		if reliableKind[k] == exempt[k] {
			t.Errorf("kind %d: reliable=%v, exempt=%v", k, reliableKind[k], exempt[k])
		}
	}
	for k := 0; k < len(reliableKind); k++ {
		if !reliableKind[k] {
			continue
		}
		found := false
		for _, fk := range fuzzedWireKinds {
			if fk == uint8(k) {
				found = true
			}
		}
		if !found {
			t.Errorf("reliableKind tracks %d, which is not a protocol kind", k)
		}
	}
}

// FuzzSplitEnvelope hardens the sequence-envelope decoder: arbitrary bytes
// must never panic, and every appendEnvelope output must round-trip to the
// same sequence number and body.
func FuzzSplitEnvelope(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(appendEnvelope(nil, 0, nil))
	f.Add(appendEnvelope(nil, 1<<63, []byte("body")))
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, body, err := splitEnvelope(data)
		if err != nil {
			if len(data) >= 8 {
				t.Fatalf("envelope of %d bytes rejected: %v", len(data), err)
			}
			return
		}
		re := appendEnvelope(nil, seq, body)
		seq2, body2, err2 := splitEnvelope(re)
		if err2 != nil || seq2 != seq || string(body2) != string(body) {
			t.Fatalf("round trip failed: %v seq %d->%d body %d->%d bytes",
				err2, seq, seq2, len(body), len(body2))
		}
	})
}

// FuzzSplitJobEnvelope hardens the jobID-envelope decoder that fronts
// every job-scoped payload on a multi-job cluster: arbitrary bytes must
// never panic, and every appendJobEnvelope output must round-trip to the
// same job id and body.
func FuzzSplitJobEnvelope(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(appendJobEnvelope(nil, 0, nil))
	f.Add(appendJobEnvelope(nil, 0xFFFFFFFF, []byte("body")))
	f.Add(appendJobEnvelope(appendEnvelope(nil, 7, nil), 3, []byte("nested")))
	f.Fuzz(func(t *testing.T, data []byte) {
		job, body, err := splitJobEnvelope(data)
		if err != nil {
			if len(data) >= 4 {
				t.Fatalf("job envelope of %d bytes rejected: %v", len(data), err)
			}
			return
		}
		re := appendJobEnvelope(nil, job, body)
		job2, body2, err2 := splitJobEnvelope(re)
		if err2 != nil || job2 != job || string(body2) != string(body) {
			t.Fatalf("round trip failed: %v job %d->%d body %d->%d bytes",
				err2, job, job2, len(body), len(body2))
		}
	})
}

// TestJobScopedKindTable pins the job-router split: every protocol kind is
// either job-scoped (multiplexed behind the jobID envelope) or
// place-scoped (cluster infrastructure: heartbeats, the startup barrier,
// metrics reads), and the table tracks no unknown kinds.
func TestJobScopedKindTable(t *testing.T) {
	placeScoped := map[uint8]bool{kindPing: true, kindHello: true, kindBegin: true, kindStats: true}
	for _, k := range fuzzedWireKinds {
		if jobScopedKind[k] == placeScoped[k] {
			t.Errorf("kind %d: jobScoped=%v, placeScoped=%v", k, jobScopedKind[k], placeScoped[k])
		}
	}
	for k := 0; k < len(jobScopedKind); k++ {
		if !jobScopedKind[k] {
			continue
		}
		found := false
		for _, fk := range fuzzedWireKinds {
			if fk == uint8(k) {
				found = true
			}
		}
		if !found {
			t.Errorf("jobScopedKind tracks %d, which is not a protocol kind", k)
		}
	}
}

// FuzzReader hardens the little-endian field reader against truncation.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add(putU64(putU32(nil, 5), 9))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := reader{b: data}
		_ = r.u64()
		_ = r.u32()
		_ = r.id()
		_ = r.rest()
		if r.err == nil && r.off > len(data) {
			t.Fatalf("reader consumed %d of %d bytes without error", r.off, len(data))
		}
	})
}

// --- encode→decode→encode byte-identity ------------------------------

// wireRoundTrips maps each protocol kind to a canonicalizing round-trip:
// parse data as the kind's payload grammar and, when it parses, re-encode
// it with the same helpers the runtime uses. FuzzWireKindRoundTrip then
// asserts the canonical form is a fixed point — decoding an encoder's
// output and re-encoding it reproduces the bytes exactly, for every kind
// in fuzzedWireKinds. A kind whose encoder and decoder drift (a field
// added on one side only, a count written but not read back) breaks
// byte-identity before it breaks a cluster.
var wireRoundTrips = map[uint8]func(data []byte) ([]byte, bool){
	kindFetch:     rtFetchReq,
	kindReplayTx:  rtDecrBatch,
	kindDecrBatch: rtDecrBatch,
	kindTransfer:  rtTransfer,
	kindPlaceDone: rtU64U32,
	kindFault:     rtU64U32,
	kindRebuild:   rtRebuild,
	kindExchange:  rtU64,
	kindResume:    rtU64,
	kindSteal:     rtSteal,
	kindStop:      rtU64, // the stop Call stamps the epoch even though handleStop ignores it
	kindRestoreTx: rtIDVals,
	kindStealDone: rtIDVals,
	kindReadVal:   rtID,
	kindPing:      rtPing, // [seq u64][sendNanos u64] echoed verbatim
	kindHello:     rtEmpty,
	kindBegin:     rtEmpty,
	kindStats:     rtEmpty,
}

func rtFetchReq(data []byte) ([]byte, bool) {
	epoch, ids, err := decodeFetchReq(data, nil)
	if err != nil {
		return nil, false
	}
	return appendFetchReq(nil, epoch, ids), true
}

func rtDecrBatch(data []byte) ([]byte, bool) {
	cd := codec.Int64{}
	var b decrBatch[int64]
	if decodeDecrBatch(data, cd, &b) != nil {
		return nil, false
	}
	return encodeDecrBatch(cd, &b), true
}

func rtTransfer(data []byte) ([]byte, bool) {
	epoch, reason, ids, err := decodeTransfer(data, nil)
	if err != nil {
		return nil, false
	}
	return encodeTransfer(nil, epoch, reason, ids), true
}

func rtU64(data []byte) ([]byte, bool) {
	r := reader{b: data}
	v := r.u64()
	if r.err != nil {
		return nil, false
	}
	return putU64(nil, v), true
}

func rtU64U32(data []byte) ([]byte, bool) {
	r := reader{b: data}
	a := r.u64()
	b := r.u32()
	if r.err != nil {
		return nil, false
	}
	return putU32(putU64(nil, a), b), true
}

func rtRebuild(data []byte) ([]byte, bool) {
	r := reader{b: data}
	epoch := r.u64()
	n := r.u32()
	var dead []uint32
	for k := uint32(0); k < n && r.err == nil; k++ {
		dead = append(dead, r.u32())
	}
	if r.err != nil {
		return nil, false
	}
	out := putU32(putU64(nil, epoch), uint32(len(dead)))
	for _, p := range dead {
		out = putU32(out, p)
	}
	return out, true
}

func rtIDVals(data []byte) ([]byte, bool) {
	cd := codec.Int64{}
	r := reader{b: data}
	epoch := r.u64()
	n := r.u32()
	type entry struct {
		id dag.VertexID
		v  int64
	}
	var entries []entry
	for k := uint32(0); k < n && r.err == nil; k++ {
		id := r.id()
		v, used, err := cd.Decode(r.rest())
		if err != nil {
			return nil, false
		}
		r.off += used
		entries = append(entries, entry{id, v})
	}
	if r.err != nil {
		return nil, false
	}
	out := putU32(putU64(nil, epoch), uint32(len(entries)))
	for _, e := range entries {
		out = putID(out, e.id)
		out = cd.Encode(out, e.v)
	}
	return out, true
}

// rtSteal is the steal probe's [epoch u64][lifeline u8] payload; the flag
// must be 0 or 1 on the wire.
func rtSteal(data []byte) ([]byte, bool) {
	r := reader{b: data}
	epoch := r.u64()
	flag := r.u8()
	if r.err != nil || flag > 1 {
		return nil, false
	}
	return append(putU64(nil, epoch), flag), true
}

func rtID(data []byte) ([]byte, bool) {
	r := reader{b: data}
	id := r.id()
	if r.err != nil {
		return nil, false
	}
	return putID(nil, id), true
}

func rtPing(data []byte) ([]byte, bool) {
	r := reader{b: data}
	seq := r.u64()
	ns := r.u64()
	if r.err != nil {
		return nil, false
	}
	return putU64(putU64(nil, seq), ns), true
}

func rtEmpty(data []byte) ([]byte, bool) {
	if len(data) != 0 {
		return nil, false
	}
	return []byte{}, true
}

// wireSeeds provides one valid payload per kind for the round-trip fuzz
// corpus and the coverage test.
func wireSeeds() map[uint8][]byte {
	cd := codec.Int64{}
	ids := []dag.VertexID{{I: 1, J: 2}, {I: -3, J: 1 << 30}}
	idVals := putU32(putU64(nil, 7), 2)
	for k, id := range ids {
		idVals = putID(idVals, id)
		idVals = cd.Encode(idVals, int64(100+k))
	}
	return map[uint8][]byte{
		kindFetch:    appendFetchReq(nil, 3, ids),
		kindReplayTx: encodeDecrBatch(cd, &decrBatch[int64]{epoch: 5, tiles: []tileCount{{tile: 3, count: 2}}, ends: []int{1}}),
		kindDecrBatch: encodeDecrBatch(cd, &decrBatch[int64]{epoch: 6,
			tiles: []tileCount{{tile: 0, count: 1}, {tile: 9, count: 4}},
			vals:  []tileVals[int64]{{runs: []valRun{{off: 4, n: 2}}, vals: []int64{-42, 5}}, {runs: []valRun{{off: 5, n: 1}}, vals: []int64{5}}},
			ends:  []int{2}}),
		kindPlaceDone: putU32(putU64(nil, 1), 2),
		kindFault:     putU32(putU64(nil, 1), 3),
		kindRebuild:   putU32(putU32(putU32(putU64(nil, 1), 2), 8), 9),
		kindExchange:  putU64(nil, 2),
		kindResume:    putU64(nil, 4),
		kindSteal:     append(putU64(nil, 5), 1),
		kindStop:      putU64(nil, 6),
		kindRestoreTx: idVals,
		kindStealDone: idVals,
		kindTransfer:  encodeTransfer(nil, 8, transferLifeline, []dag.VertexID{{I: 4, J: 5}, {I: 4, J: 6}}),
		kindReadVal:   putID(nil, ids[1]),
		kindPing:      putU64(putU64(nil, 11), 12),
		kindHello:     {},
		kindBegin:     {},
		kindStats:     {},
	}
}

// transferSeeds are the transfer body's edge cases: a tile for each reason,
// one of a single cell (an exec at TileSize 1, the paper's per-vertex
// migration), and the malformed bodies every receiver must refuse — an empty
// list, an unknown reason, a count the payload does not hold, trailing bytes,
// and the retired layouts (exec's [epoch][id], the lifeline push's
// [epoch][n][ids], once followed by [nDeps][(id, value)...]).
func transferSeeds() [][]byte {
	ids := []dag.VertexID{{I: 4, J: 5}, {I: 4, J: 6}, {I: -3, J: 1 << 30}}
	retired := putID(putID(putU32(putU64(nil, 8), 2), ids[0]), ids[1]) // [epoch][n][ids]
	return [][]byte{
		encodeTransfer(nil, 1, transferSteal, ids),
		encodeTransfer(nil, 2, transferLifeline, ids[:2]),
		encodeTransfer(nil, 3, transferExec, ids[:1]),
		encodeTransfer(nil, 4, transferExec, nil),
		encodeTransfer(nil, 5, transferExec+1, ids[:1]),
		append(putU32(append(putU64(nil, 6), transferSteal), 0xFFFFFFFF), 0),
		append(encodeTransfer(nil, 7, transferLifeline, ids[:1]), 0),
		putID(putU64(nil, 9), ids[0]),
		retired,
		codec.Int64{}.Encode(putID(putU32(retired, 1), dag.VertexID{I: 3, J: 5}), -7),
		{},
	}
}

// FuzzDecodeTransfer hardens the one decoder of a tile in flight: arbitrary
// bytes must never panic, a decoded body is never empty and has a known
// reason, and every body that decodes round-trips through encodeTransfer.
func FuzzDecodeTransfer(f *testing.F) {
	for _, seed := range transferSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, reason, ids, err := decodeTransfer(data, nil)
		if err != nil {
			return
		}
		if len(ids) == 0 || reason > transferExec {
			t.Fatalf("decoded %d ids with reason %d", len(ids), reason)
		}
		if re := encodeTransfer(nil, epoch, reason, ids); !bytes.Equal(re, data) {
			t.Fatalf("round trip changed the body: % x -> % x", data, re)
		}
	})
}

// TestWireRoundTripsCovered pins the round-trip table to the coverage
// list and checks every seed payload is a canonical fixed point.
func TestWireRoundTripsCovered(t *testing.T) {
	for k, seed := range transferSeeds() {
		if _, _, _, err := decodeTransfer(seed, nil); (err == nil) != (k < 3) {
			t.Errorf("transfer seed %d: err %v; want the three well-formed seeds to decode and the rest rejected", k, err)
		}
	}
	seeds := wireSeeds()
	seen := map[uint8]bool{}
	for _, k := range fuzzedWireKinds {
		seen[k] = true
		rt, ok := wireRoundTrips[k]
		if !ok {
			t.Errorf("kind %d has no round-trip entry", k)
			continue
		}
		seed, ok := seeds[k]
		if !ok {
			t.Errorf("kind %d has no seed payload", k)
			continue
		}
		enc, ok := rt(seed)
		if !ok {
			t.Errorf("kind %d: seed payload does not parse", k)
			continue
		}
		if !bytes.Equal(enc, seed) {
			t.Errorf("kind %d: seed is not canonical: % x -> % x", k, seed, enc)
		}
	}
	for k := range wireRoundTrips {
		if !seen[k] {
			t.Errorf("wireRoundTrips has entry for kind %d, which is not in fuzzedWireKinds", k)
		}
	}
	for k := range seeds {
		if !seen[k] {
			t.Errorf("wireSeeds has entry for kind %d, which is not in fuzzedWireKinds", k)
		}
	}
}

// FuzzWireKindRoundTrip asserts encode→decode→encode byte-identity for
// every wire kind: any payload that parses re-encodes to a canonical
// form, and that form is a fixed point of decode∘encode.
func FuzzWireKindRoundTrip(f *testing.F) {
	for k, seed := range wireSeeds() {
		f.Add(k, seed)
	}
	for _, seed := range decrBatchSeeds() {
		f.Add(kindDecrBatch, seed)
	}
	for _, seed := range fetchReqSeeds() {
		f.Add(kindFetch, seed)
	}
	f.Add(uint8(0), []byte{})                              // not a protocol kind
	f.Add(uint8(2), putU32(putU64(nil, 4), 0))             // the retired per-vertex decrement: not one either
	f.Add(uint8(6), putU32(putU32(putU64(nil, 1), 1), 8))  // the retired pause round, absorbed by kindRebuild
	f.Add(uint8(10), putU64(nil, 3))                       // the retired replay round, absorbed by kindExchange
	f.Add(kindRebuild, putU32(putU64(nil, 1), 0xFFFFFFFF)) // absurd count
	for _, seed := range transferSeeds() {
		f.Add(kindTransfer, seed)
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		rt, ok := wireRoundTrips[kind]
		if !ok {
			return // byte values that are not protocol kinds
		}
		enc, ok := rt(data)
		if !ok {
			return
		}
		enc2, ok := rt(enc)
		if !ok {
			t.Fatalf("kind %d: canonical encoding of % x does not re-decode", kind, data)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("kind %d: encode→decode→encode not byte-identical:\n  first  % x\n  second % x", kind, enc, enc2)
		}
	})
}
