package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/dag"
)

// wireGolden freezes the wire format. For every live kind of wireKinds it
// holds a request payload, in hex, as the hand-built encoders that the
// codecs in proto.go replaced wrote it, and the kind's round trip through
// the runtime's own decoder and encoder: decode, and when that succeeds,
// encode what was decoded. hello, begin and stats carry no request payload,
// and have no round trip.
var wireGolden = map[uint8]struct {
	seed string
	rt   func([]byte) ([]byte, bool)
}{
	kindFetch:     {"030000000000000002000000020407fcffffff07", rtFetchReq},
	kindPlaceDone: {"010000000000000002000000", rtPlaceEvent},
	kindFault:     {"010000000000000003000000", rtPlaceEvent},
	kindRebuild:   {"0100000000000000020000000800000009000000", rtRebuild},
	kindExchange:  {"0200000000000000", rtEpoch},
	kindHandover:  {"07000000000000000200000001000000020000006400000000000000fdffffff00000040650000000000000001000000020003020501", rtHandover},
	kindResume:    {"0400000000000000", rtEpoch},
	kindStop:      {"0600000000000000", rtEpoch}, // the stop Call stamps the epoch even though handleStop ignores it
	kindReadVal:   {"fdffffff00000040", rtReadVal},
	kindPing:      {"0b000000000000000c00000000000000", rtPing},
	kindHello:     {"", nil},
	kindBegin:     {"", nil},
	kindSteal:     {"050000000000000001", rtSteal},
	kindStealDone: {"07000000000000000200000001000000020000006400000000000000fdffffff000000406500000000000000", rtIDVals},
	kindDecrBatch: {"06000000000000000100000002010001010802d6ffffffffffffff050000000000000009040101010500000000000000", rtDecrBatch},
	kindStats:     {"", nil},
	kindTransfer:  {"0800000000000000010200000004000000050000000400000006000000", rtTransfer},
}

// roundTrip re-encodes data as kind's request payload; false when kind is
// not live or data does not decode. A kind without a request payload takes
// only the empty one.
func roundTrip(kind uint8, data []byte) ([]byte, bool) {
	g, ok := wireGolden[kind]
	switch {
	case !ok:
		return nil, false
	case g.rt == nil:
		return []byte{}, len(data) == 0
	}
	return g.rt(data)
}

// goldenSeed is kind's frozen request payload.
func goldenSeed(t testing.TB, kind uint8) []byte {
	b, err := hex.DecodeString(wireGolden[kind].seed)
	if err != nil {
		t.Fatalf("kind %d: golden seed: %v", kind, err)
	}
	return b
}

// TestWireKindsCovered pins the golden table to the protocol table: it has
// an entry for every live kind and for nothing else, and every round trip
// survives adversarial payloads (empty, truncated, absurd counts).
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
	for k := range 256 {
		if _, ok := wireGolden[uint8(k)]; ok != live(k) {
			t.Errorf("kind %d (%s): live=%v, golden entry=%v", k, KindName(uint8(k)), live(k), ok)
		}
	}
	for k := range wireGolden {
		for _, b := range junk {
			roundTrip(k, b)
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
// table: exactly the live tracked kinds are sequence-numbered, retried and
// deduplicated, and every exempt kind is a Call, so that its loss fails
// whoever issued it instead of vanishing.
func TestReliableKindTable(t *testing.T) {
	for k := range reliableKind {
		if want := live(k) && !wireKinds[k].exempt; reliableKind[k] != want {
			t.Errorf("kind %d (%s): reliable=%v, want %v", k, KindName(uint8(k)), reliableKind[k], want)
		}
		if live(k) && wireKinds[k].exempt && !wireKinds[k].call {
			t.Errorf("kind %d (%s) is exempt from reliable delivery but not a Call", k, KindName(uint8(k)))
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

// TestJobScopedKindTable pins the job-router split to the table: exactly
// the live job-scoped kinds carry the job envelope, and the place-scoped ones
// — heartbeats, the startup barrier, metrics reads, which raw-transport
// callers issue — are all exempt from reliable delivery.
func TestJobScopedKindTable(t *testing.T) {
	for k := range jobScopedKind {
		if want := live(k) && !wireKinds[k].place; jobScopedKind[k] != want {
			t.Errorf("kind %d (%s): jobScoped=%v, want %v", k, KindName(uint8(k)), jobScopedKind[k], want)
		}
		if live(k) && wireKinds[k].place && !wireKinds[k].exempt {
			t.Errorf("kind %d (%s) is place-scoped but tracked", k, KindName(uint8(k)))
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
//
// FuzzWireKindRoundTrip asserts every kind's canonical form is a fixed
// point: decoding an encoder's output and re-encoding it reproduces the
// bytes exactly. A kind whose encoder and decoder drift (a field added on
// one side only, a count written but not read back) breaks byte-identity
// before it breaks a cluster.

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

func rtEpoch(b []byte) ([]byte, bool) {
	epoch, err := decodeEpoch(b)
	return encodeEpoch(nil, epoch), err == nil
}

func rtPlaceEvent(b []byte) ([]byte, bool) {
	epoch, place, err := decodePlaceEvent(b)
	return encodePlaceEvent(nil, epoch, place), err == nil
}

func rtRebuild(b []byte) ([]byte, bool) {
	epoch, dead, err := decodeRebuild(b)
	return encodeRebuild(nil, epoch, dead), err == nil
}

func rtSteal(b []byte) ([]byte, bool) {
	epoch, lifeline, err := decodeSteal(b)
	return encodeSteal(nil, epoch, lifeline), err == nil
}

func rtIDVals(b []byte) ([]byte, bool) {
	cd := codec.Int64{}
	epoch, ids, vals, err := decodeIDVals(b, cd, nil, nil)
	if err != nil {
		return nil, false
	}
	return encodeIDVals(nil, cd, epoch, len(ids), func(k int) (dag.VertexID, int64) { return ids[k], vals[k] }), true
}

func rtHandover(b []byte) ([]byte, bool) {
	cd := codec.Int64{}
	var batch decrBatch[int64]
	ids, vals, err := decodeHandover(b, cd, nil, nil, &batch)
	if err != nil {
		return nil, false
	}
	return encodeHandover(cd, &batch, len(ids), func(k int) (dag.VertexID, int64) { return ids[k], vals[k] }), true
}

func rtReadVal(b []byte) ([]byte, bool) {
	id, err := decodeReadVal(b)
	return encodeReadVal(nil, id), err == nil
}

func rtPing(b []byte) ([]byte, bool) {
	seq, sent, err := decodePing(b)
	return encodePing(nil, seq, sent), err == nil
}

// strayWireSeeds are payloads that no round trip may accept: a value that
// is not a kind, the retired values, a rebuild whose count is absurd, and a
// handover cut short of its replay records — the retired restoreTx layout.
func strayWireSeeds() (kinds []uint8, seeds [][]byte) {
	restored := codec.Int64{}.Encode(putID(putU32(putU64(nil, 7), 1), dag.VertexID{I: 3, J: 5}), 100)
	return []uint8{0, 2, 6, 10, 11, kindRebuild, kindHandover}, [][]byte{
		{},
		putU32(putU64(nil, 4), 0),            // the retired per-vertex decrement
		putU32(putU32(putU64(nil, 1), 1), 8), // the retired pause round, absorbed by kindRebuild
		putU64(nil, 3),                       // the retired replay round, absorbed by kindExchange
		encodeDecrBatch(codec.Int64{}, &decrBatch[int64]{epoch: 5, tiles: []tileCount{{tile: 3, count: 2}}, ends: []int{1}}), // the retired replayTx, absorbed by kindHandover
		putU32(putU64(nil, 1), 0xFFFFFFFF), // absurd count
		restored,
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

// TestWireRoundTripsCovered checks the wire format is unchanged: every
// golden seed comes back byte-identical through its kind's round trip, and
// the stray seeds — retired values among them — are rejected.
func TestWireRoundTripsCovered(t *testing.T) {
	for k, seed := range transferSeeds() {
		if _, _, _, err := decodeTransfer(seed, nil); (err == nil) != (k < 3) {
			t.Errorf("transfer seed %d: err %v; want the three well-formed seeds to decode and the rest rejected", k, err)
		}
	}
	for k := range wireGolden {
		seed := goldenSeed(t, k)
		if enc, ok := roundTrip(k, seed); !ok || !bytes.Equal(enc, seed) {
			t.Errorf("kind %d (%s): golden seed % x -> % x, ok %v", k, KindName(k), seed, enc, ok)
		}
	}
	kinds, seeds := strayWireSeeds()
	for n, k := range kinds {
		if _, ok := roundTrip(k, seeds[n]); ok {
			t.Errorf("kind %d (%s): stray seed % x accepted", k, KindName(k), seeds[n])
		}
	}
}

// FuzzWireKindRoundTrip asserts encode→decode→encode byte-identity for
// every wire kind: any payload that parses re-encodes to a canonical
// form, and that form is a fixed point of decode∘encode.
func FuzzWireKindRoundTrip(f *testing.F) {
	for k := range wireGolden {
		f.Add(k, goldenSeed(f, k))
	}
	for _, seed := range decrBatchSeeds() {
		f.Add(kindDecrBatch, seed)
	}
	for _, seed := range fetchReqSeeds() {
		f.Add(kindFetch, seed)
	}
	kinds, seeds := strayWireSeeds()
	for n, k := range kinds {
		f.Add(k, seeds[n])
	}
	for _, seed := range transferSeeds() {
		f.Add(kindTransfer, seed)
	}
	// A handover of values only, and one of a replay record only.
	cd, v := codec.Int64{}, func(int) (dag.VertexID, int64) { return dag.VertexID{I: 2, J: -1}, 5 }
	f.Add(kindHandover, encodeHandover(cd, &decrBatch[int64]{epoch: 3}, 1, v))
	f.Add(kindHandover, encodeHandover(cd, &decrBatch[int64]{epoch: 4, tiles: []tileCount{{tile: 0, count: 9}}, ends: []int{1}}, 0, v))
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		enc, ok := roundTrip(kind, data)
		if !ok {
			return // not a live kind, or not a payload of it
		}
		enc2, ok := roundTrip(kind, enc)
		if !ok {
			t.Fatalf("kind %d: canonical encoding of % x does not re-decode", kind, data)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("kind %d: encode→decode→encode not byte-identical:\n  first  % x\n  second % x", kind, enc, enc2)
		}
	})
}
