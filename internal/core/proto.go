// Package core implements the DPX10 runtime engine (paper §VI).
//
// The engine is SPMD: every place runs a placeEngine that owns one chunk
// of the distributed vertex array, schedules its local ready vertices on a
// bounded worker pool, and exchanges protocol messages with its peers over
// a transport.Transport. Place 0 additionally runs the coordinator, which
// detects global termination and drives the recovery protocol when a place
// dies (§VI-D). A single-process run wires the place engines to a
// transport.LocalFabric; a multi-process run gives each place a
// transport.TCP endpoint — the engine code and the job lifecycle around it
// (JobRun) are identical.
//
// Epochs. Every run starts in epoch 0. Each recovery bumps the epoch and
// rebuilds per-epoch state (distribution, chunk, ready list, cache) on the
// surviving places. All cross-place messages carry their sender's epoch
// and receivers drop stale ones, which makes in-flight messages from
// before a failure harmless: the recovery's decrement replay regenerates
// exactly the information they carried.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/dag"
)

// Message kinds on the transport: the live rows of wireKinds, by name.
const (
	kindFetch     uint8 = 1
	kindPlaceDone uint8 = 4
	kindFault     uint8 = 5
	kindRebuild   uint8 = 7
	kindExchange  uint8 = 8
	kindHandover  uint8 = 9
	kindResume    uint8 = 12
	kindStop      uint8 = 13
	kindReadVal   uint8 = 14
	kindPing      uint8 = 15
	kindHello     uint8 = 16
	kindBegin     uint8 = 17
	kindSteal     uint8 = 18
	kindStealDone uint8 = 19
	kindDecrBatch uint8 = 20
	kindStats     uint8 = 21
	kindTransfer  uint8 = 23
)

// kindRow is what the protocol says of one kind value. A kind is a one-way
// Send, tracked by reliable delivery and job-scoped, unless it is a call
// (request and reply), exempt from reliable delivery (reliable.go; only
// raw-transport callers send it) or place-scoped (a bare payload about the
// place, for no one job). The coordinator runs the recovery's rounds in value
// order. A retired value is no longer sent, so a stray frame of it finds no
// handler; it is never reused or renumbered.
type kindRow struct {
	name                                string
	call, exempt, place, round, retired bool
}

// wireKinds is the protocol table: every kind value the protocol has used.
// A value cannot appear twice (the array literal would not compile).
var wireKinds = [...]kindRow{
	kindFetch:     {name: "fetch", call: true},                            // fetch finished vertex values
	2:             {name: "decrement", retired: true},                     // per-vertex; kindDecrBatch replaced it
	3:             {name: "exec", retired: true},                          // per-vertex; kindTransfer replaced it
	kindPlaceDone: {name: "placeDone"},                                    // place finished all local vertices
	kindFault:     {name: "fault"},                                        // place observed a dead peer
	6:             {name: "pause", retired: true},                         // recovery round; kindRebuild absorbed it
	kindRebuild:   {name: "rebuild", call: true, round: true},             // pause, rebuild, work out the exchange
	kindExchange:  {name: "exchange", call: true, round: true},            // send what the rebuild worked out
	kindHandover:  {name: "handover", call: true},                         // place -> place, restored values and replayed decrements
	10:            {name: "replay", retired: true},                        // recovery round; kindExchange absorbed it
	11:            {name: "replayTx", retired: true},                      // replayed decrements; kindHandover absorbed it
	kindResume:    {name: "resume", call: true, round: true},              // restart workers; the reply says done
	kindStop:      {name: "stop", call: true},                             // run finished; the reply is the ack
	kindReadVal:   {name: "readVal", call: true, exempt: true},            // post-run result access
	kindPing:      {name: "ping", call: true, exempt: true, place: true},  // failure-detector heartbeat
	kindHello:     {name: "hello", call: true, exempt: true, place: true}, // place -> place 0, "my state is prepared"
	kindBegin:     {name: "begin", call: true, exempt: true, place: true}, // place 0 -> place, "launch workers"
	kindSteal:     {name: "steal", call: true},                            // ask a victim for a ready tile
	kindStealDone: {name: "stealDone", call: true},                        // a tile's results, back to its owner
	kindDecrBatch: {name: "decrBatch"},                                    // aggregated decrements and values
	kindStats:     {name: "stats", call: true, exempt: true, place: true}, // read the metrics snapshot
	22:            {name: "lifelineDeliver", retired: true},               // the lifeline push; kindTransfer replaced it
	kindTransfer:  {name: "transfer", call: true},                         // push a tile; reply [1] accepts
}

// live reports whether kind k is in use.
func live(k int) bool { return k < len(wireKinds) && wireKinds[k].name != "" && !wireKinds[k].retired }

// The table by kind byte, for the transports' per-message lookups:
// reliableKind marks the kinds that travel the reliable envelope, retry and
// dedup protocol; jobScopedKind the kinds whose payloads carry the job
// envelope. recoveryRounds are the recovery's rounds, in order.
var reliableKind, jobScopedKind, recoveryRounds = func() (rel, job [256]bool, rounds []uint8) {
	for k, r := range wireKinds {
		rel[k], job[k] = live(k) && !r.exempt, live(k) && !r.place
		if r.round {
			rounds = append(rounds, uint8(k))
		}
	}
	return rel, job, rounds
}()

// KindName returns a wire kind's name, for trace output, metrics keys and
// debug logs, or "kind<N>" for values outside the protocol.
func KindName(k uint8) string {
	if int(k) < len(wireKinds) && wireKinds[k].name != "" {
		return wireKinds[k].name
	}
	return fmt.Sprintf("kind%d", k)
}

// errStaleEpoch is returned by handlers that receive a message from a
// previous epoch; the sender abandons the operation.
var errStaleEpoch = errors.New("core: stale epoch")

// ErrCanceled is returned when the user cancels a run.
var ErrCanceled = errors.New("core: run canceled")

// ErrPlaceZeroDead is returned when place 0 fails. Resilient X10 cannot
// survive the death of place 0 (paper §VI-D) and neither can DPX10; the
// run aborts. Terminal errors are *PlaceDeadError values whose Is method
// matches this sentinel, so errors.Is(err, ErrPlaceZeroDead) keeps working
// alongside errors.As for the typed form.
var ErrPlaceZeroDead = errors.New("core: place 0 died; run aborted")

// PlaceDeadError reports the failure of a specific place. It supports
// errors.Is (against ErrPlaceZeroDead and other PlaceDeadError values with
// the same place) and errors.As.
type PlaceDeadError struct {
	Place int
}

func (e *PlaceDeadError) Error() string {
	if e.Place == 0 {
		return "core: place 0 died; run aborted"
	}
	return fmt.Sprintf("core: place %d died", e.Place)
}

// Is matches ErrPlaceZeroDead when Place is 0, and any PlaceDeadError for
// the same place.
func (e *PlaceDeadError) Is(target error) bool {
	if target == ErrPlaceZeroDead {
		return e.Place == 0
	}
	if o, ok := target.(*PlaceDeadError); ok {
		return o.Place == e.Place
	}
	return false
}

// placeDead builds the typed terminal error for place p's failure.
func placeDead(p int) error { return &PlaceDeadError{Place: p} }

// --- reliable delivery envelope ---------------------------------------
//
// With Config.Reliable on, tracked kinds travel wrapped in a [seq u64]
// envelope ahead of their ordinary payload, drawn from one per-sender
// counter, by which the receiver suppresses duplicates (reliable.go).
// Exempt kinds keep the bare wire format, so raw-transport callers
// interoperate.

// appendEnvelope prefixes payload with its delivery sequence number.
func appendEnvelope(dst []byte, seq uint64, payload []byte) []byte {
	return append(putU64(dst, seq), payload...)
}

// splitEnvelope separates the sequence number from the wrapped payload.
func splitEnvelope(payload []byte) (seq uint64, body []byte, err error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("core: reliable envelope truncated (%d bytes)", len(payload))
	}
	return binary.LittleEndian.Uint64(payload), payload[8:], nil
}

// --- job envelope -----------------------------------------------------
//
// Job-scoped payloads travel wrapped in a [jobID u32] envelope, added by
// the sending jobPort and stripped by the receiving jobRouter (router.go),
// *inside* the reliable-delivery envelope: a tracked kind's wire form is
// [seq u64][jobID u32][payload]. Place-scoped kinds keep the bare wire
// format, so raw-transport callers interoperate without a router.

// errUnknownJob is returned when a job envelope names a job the receiving
// place has no port for — the job finished and was torn down, or the
// sender raced its own submission. Senders treat it like a stale epoch.
var errUnknownJob = errors.New("core: unknown job")

// appendJobEnvelope prefixes payload with the owning job's id.
func appendJobEnvelope(dst []byte, job uint32, payload []byte) []byte {
	return append(putU32(dst, job), payload...)
}

// splitJobEnvelope separates the job id from the wrapped payload.
func splitJobEnvelope(payload []byte) (job uint32, body []byte, err error) {
	if len(payload) < 4 {
		return 0, nil, fmt.Errorf("core: job envelope truncated (%d bytes)", len(payload))
	}
	return binary.LittleEndian.Uint32(payload), payload[4:], nil
}

// --- wire helpers -----------------------------------------------------
//
// All payloads are little-endian. IDs are encoded as two uint32 words.

func putU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func putU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

type reader struct {
	b   []byte
	off int
	err error
}

// take returns the next n bytes, or nil once the message is short of them.
func (r *reader) take(n int) []byte {
	if r.err == nil && r.off+n > len(r.b) {
		r.err = fmt.Errorf("core: truncated message at offset %d", r.off)
	}
	if r.err != nil {
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off]
}

func (r *reader) u8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *reader) id() dag.VertexID {
	i := r.u32()
	j := r.u32()
	return dag.VertexID{I: int32(i), J: int32(j)}
}

func (r *reader) rest() []byte {
	if r.err != nil {
		return nil
	}
	return r.b[r.off:]
}

func putID(dst []byte, id dag.VertexID) []byte {
	dst = putU32(dst, uint32(id.I))
	return putU32(dst, uint32(id.J))
}

// --- a tile in flight (kindTransfer, and kindSteal's reply) -----------
//
//	[epoch u64][reason u8][n u32][id...]
//
// A tile's unfinished cells in intra-tile dependency order, and why it moves
// (transfer.go).
const (
	transferSteal uint8 = iota
	transferLifeline
	transferExec
)

// errTransfer is a sentinel for the same reason errBadVarint is.
var errTransfer = errors.New("core: transfer body truncated, empty, of an unknown or misplaced reason, or its id count does not fill the payload")

// encodeTransfer appends a transfer body for ids to dst.
func encodeTransfer(dst []byte, epoch uint64, reason uint8, ids []dag.VertexID) []byte {
	dst = putU32(append(putU64(dst, epoch), reason), uint32(len(ids)))
	for _, id := range ids {
		dst = putID(dst, id)
	}
	return dst
}

// decodeTransfer parses a transfer body, appending its ids to buf. A body
// names at least one cell, a known reason, and ids that fill it exactly; the
// grown buffer is returned even on error so callers keep the capacity.
func decodeTransfer(payload []byte, buf []dag.VertexID) (epoch uint64, reason uint8, ids []dag.VertexID, err error) {
	r := reader{b: payload}
	epoch = r.u64()
	reason = r.u8()
	n := r.u32()
	if r.err != nil || n == 0 || reason > transferExec || int64(n)*8 != int64(len(payload)-13) {
		return 0, 0, buf, errTransfer
	}
	for k := uint32(0); k < n; k++ {
		buf = append(buf, r.id())
	}
	return epoch, reason, buf, nil
}

// --- decrement records (kindDecrBatch, kindHandover) ------------------
//
// One batch carries the settlements of many units for one destination
// place, coalesced by the outbound aggregator; a recovery's handover ends
// with the records of one, without its epoch: one record, with no values,
// or none:
//
//	[epoch u64][nRecords u32]
//	record: [nTile uvarint][push uvarint: 0 or 1] entry×nTile
//	entry:  [tile uvarint][count uvarint], and when push is 1:
//	        [nRun uvarint] ([Δoff varint][n uvarint][value (codec)]×n)×nRun
//
// A record is what one unit (place.go: settle) owes the destination when it
// ends: count decrements against each named tile of the destination's grid,
// and, under value push, each tile's values: those of the unit's cells that
// the tile's cells read, once per tile. A value read by two tiles travels
// twice. The values are runs of the sender's local offsets (off names the
// sender's cell dist.CellAt(sender, off)), so a row segment is one run under
// every distribution, and a value costs its codec bytes and nothing more.
// Δoff is a zig-zag varint relative to the end (off + n) of the batch's
// previous run, 0 for the first. The receiver deposits a tile's runs into
// that tile's box (boxes.go) before it applies the counts, so the tile's
// halo step finds them there instead of issuing a kindFetch round-trip.
// Every codec spends at least one byte on a value, which bounds a run's
// length by the bytes left before anything is allocated for it.

// tileCount is count decrements owed to one tile.
type tileCount struct{ tile, count uint32 }

// valRun is n consecutive local offsets of the sending place, from off.
type valRun struct{ off, n uint32 }

// tileVals is what one tile entry carries under value push: runs of the
// sender's local offsets, and their values in run order.
type tileVals[T any] struct {
	runs []valRun
	vals []T
}

// add appends the value of the sender's cell off: it extends the last run
// when off follows it, and is skipped when off ends it already — a cell
// with two edges into the tile sends its value there once.
func (tv *tileVals[T]) add(off uint32, v T) {
	if k := len(tv.runs) - 1; k >= 0 {
		switch r := &tv.runs[k]; off {
		case r.off + r.n - 1:
			return
		case r.off + r.n:
			r.n++
			tv.vals = append(tv.vals, v)
			return
		}
	}
	tv.runs, tv.vals = append(tv.runs, valRun{off: off, n: 1}), append(tv.vals, v)
}

// grow appends the sender's cells [off, off+n), which lie past every cell
// the entry holds, as one run — the last run's extension when off follows
// it — and returns the n slots their values go in.
func (tv *tileVals[T]) grow(off uint32, n int) []T {
	if k := len(tv.runs) - 1; k >= 0 && tv.runs[k].off+tv.runs[k].n == off {
		tv.runs[k].n += uint32(n)
	} else {
		tv.runs = append(tv.runs, valRun{off: off, n: uint32(n)})
	}
	at := len(tv.vals)
	tv.vals = slices.Grow(tv.vals, n)[:at+n]
	return tv.vals[at:]
}

// nextVals extends vs by one empty entry, reusing the storage an earlier use
// left in that slot.
func nextVals[T any](vs []tileVals[T]) []tileVals[T] {
	n := len(vs)
	if n == cap(vs) {
		return append(vs, tileVals[T]{})
	}
	vs = vs[:n+1]
	vs[n].runs, vs[n].vals = vs[n].runs[:0], vs[n].vals[:0]
	return vs
}

// decrBatch is a decoded batch: every record's tile entries and what each
// carries, flat in record order, and where each record's entries end.
type decrBatch[T any] struct {
	epoch uint64
	tiles []tileCount
	vals  []tileVals[T] // vals[k] is what tiles[k] carries; as long as tiles
	ends  []int         // len(tiles) at the end of each record
}

// errDecrRecord is a sentinel for the same reason errBadVarint is.
var errDecrRecord = errors.New("core: decrement record count exceeds the payload, or a push flag past 1, or names a tile past int32, or a count of zero or past int32")

// errDecrRun is a sentinel for the same reason errBadVarint is.
var errDecrRun = errors.New("core: pushed run count or length exceeds the payload, or a run of zero, or one that leaves the int32 offsets")

// errBadVarint is a sentinel, not a formatted error: a truncated batch is
// rejected without allocating.
var errBadVarint = errors.New("core: truncated, overlong or out-of-range varint")

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	if r.off < len(r.b) && r.b[r.off] < 0x80 { // one byte: nearly every delta
		b := r.b[r.off]
		r.off++
		return int64(b>>1) ^ -int64(b&1)
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.err = errBadVarint
		return 0
	}
	r.off += n
	return v
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = errBadVarint
		return 0
	}
	r.off += n
	return v
}

// putIDDelta appends id as two zig-zag varints relative to base.
func putIDDelta(dst []byte, base, id dag.VertexID) []byte {
	dst = binary.AppendVarint(dst, int64(id.I)-int64(base.I))
	return binary.AppendVarint(dst, int64(id.J)-int64(base.J))
}

// idDelta reads an id written by putIDDelta. A delta that leaves the int32
// coordinate space is a protocol error, not a wrap-around.
func (r *reader) idDelta(base dag.VertexID) dag.VertexID {
	i := int64(base.I) + r.varint()
	j := int64(base.J) + r.varint()
	if r.err == nil && (i != int64(int32(i)) || j != int64(int32(j))) {
		r.err = errBadVarint
	}
	return dag.VertexID{I: int32(i), J: int32(j)}
}

// appendDecrRecord appends one record to dst: tiles, and vals[k] with
// tiles[k] (vals may be shorter, or nil: no values). end is where the batch's
// previous run ended; the returned end is where the record's last one does.
func appendDecrRecord[T any](dst []byte, cd codec.Codec[T], end uint32, tiles []tileCount, vals []tileVals[T]) ([]byte, uint32) {
	push := uint64(0)
	for k := range vals {
		if len(vals[k].runs) > 0 {
			push = 1
			break
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(tiles)))
	dst = binary.AppendUvarint(dst, push)
	for k, tc := range tiles {
		dst = binary.AppendUvarint(dst, uint64(tc.tile))
		dst = binary.AppendUvarint(dst, uint64(tc.count))
		if push == 0 {
			continue
		}
		var tv tileVals[T]
		if k < len(vals) {
			tv = vals[k]
		}
		dst = binary.AppendUvarint(dst, uint64(len(tv.runs)))
		at := 0
		for _, run := range tv.runs {
			dst = binary.AppendVarint(dst, int64(run.off)-int64(end))
			dst = binary.AppendUvarint(dst, uint64(run.n))
			for _, v := range tv.vals[at : at+int(run.n)] {
				dst = cd.Encode(dst, v)
			}
			at, end = at+int(run.n), run.off+run.n
		}
	}
	return dst, end
}

// beginDecrBatch appends a batch header to dst, appendDecrRecord the
// records, and finishDecrBatch writes their count into the header.
func beginDecrBatch(dst []byte, epoch uint64) []byte { return putU32(putU64(dst, epoch), 0) }
func finishDecrBatch(msg []byte, n uint32)           { binary.LittleEndian.PutUint32(msg[8:12], n) }

// encodeDecrBatch builds a whole payload from decoded form in a fresh
// buffer, for the round-trip tests; the aggregator builds its messages a
// record at a time, and a handover appends its records (appendDecrRecords).
func encodeDecrBatch[T any](cd codec.Codec[T], b *decrBatch[T]) []byte {
	return appendDecrRecords(putU64(nil, b.epoch), cd, b)
}

// appendDecrRecords appends b's records, after their count, to dst.
func appendDecrRecords[T any](dst []byte, cd codec.Codec[T], b *decrBatch[T]) []byte {
	dst = putU32(dst, uint32(len(b.ends)))
	at, end := 0, uint32(0)
	for _, e := range b.ends {
		dst, end = appendDecrRecord(dst, cd, end, b.tiles[at:e], b.vals[at:min(e, len(b.vals))])
		at = e
	}
	return dst
}

// decodeDecrBatch parses a payload into b, reusing its buffers. Every count
// is checked against the bytes left before anything it implies is
// allocated, and a tile past int32, a count of zero or past int32, a run of
// zero or one that leaves the int32 offsets is a protocol error; a tile past
// the receiver's grid, or a run past the sender's cells, is the handler's to
// refuse. On error b holds a prefix of the batch.
func decodeDecrBatch[T any](payload []byte, cd codec.Codec[T], b *decrBatch[T]) error {
	r := reader{b: payload}
	b.epoch = r.u64()
	return readDecrRecords(&r, cd, b)
}

// readDecrRecords reads a record count and the records into b, as
// decodeDecrBatch describes; b.epoch is the caller's.
func readDecrRecords[T any](r *reader, cd codec.Codec[T], b *decrBatch[T]) error {
	n := r.u32()
	b.tiles, b.vals, b.ends = b.tiles[:0], b.vals[:0], b.ends[:0]
	if r.err != nil {
		return r.err
	}
	// A record costs at least 2 bytes, its two counts, and each tile entry
	// it holds at least 2 more; a run at least 3, its two varints and a value.
	if int(n) > (len(r.b)-r.off)/2 {
		return errDecrRecord
	}
	end := int64(0)
	for k := uint32(0); k < n; k++ {
		nt := r.uvarint()
		push := r.uvarint()
		if r.err != nil {
			return r.err
		}
		if push > 1 || nt > uint64(len(r.b)-r.off)/2 {
			return errDecrRecord
		}
		for m := uint64(0); m < nt; m++ {
			tile := r.uvarint()
			count := r.uvarint()
			if r.err != nil {
				return r.err
			}
			if tile > math.MaxInt32 || count == 0 || count > math.MaxInt32 {
				return errDecrRecord
			}
			b.tiles = append(b.tiles, tileCount{tile: uint32(tile), count: uint32(count)})
			b.vals = nextVals(b.vals)
			if push == 0 {
				continue
			}
			tv := &b.vals[len(b.vals)-1]
			nr := r.uvarint()
			if r.err != nil {
				return r.err
			}
			if nr > uint64(len(r.b)-r.off)/3 {
				return errDecrRun
			}
			for q := uint64(0); q < nr; q++ {
				off := end + r.varint()
				cnt := r.uvarint()
				if r.err != nil {
					return r.err
				}
				if off < 0 || cnt == 0 || cnt > uint64(len(r.b)-r.off) || off+int64(cnt) > math.MaxInt32 {
					return errDecrRun
				}
				tv.runs = append(tv.runs, valRun{off: uint32(off), n: uint32(cnt)})
				for c := uint64(0); c < cnt; c++ {
					v, used, err := cd.Decode(r.rest())
					if err != nil {
						return fmt.Errorf("core: decrement record value decode: %w", err)
					}
					r.off += used
					tv.vals = append(tv.vals, v)
				}
				end = off + int64(cnt)
			}
		}
		b.ends = append(b.ends, len(b.tiles))
	}
	return nil
}

// --- value fetch (kindFetch) ------------------------------------------
//
//	request: [epoch u64][n u32][Δid...]    reply: [value (codec)...]
//
// The ids are a Δid chain: each is two zig-zag varints, (ΔI, ΔJ), relative
// to the one before it, (0,0) for the first. The sender lists them in
// ascending order (fetchQueued) and a cell's remote dependencies are grid
// neighbours, so an id costs about two bytes.
// The reply carries the values in request order.

// fetchMaxIDs bounds one request, and through it the reply: at most
// fetchMaxIDs values of the codec's width. Callers split a longer id list
// over several requests; the handler rejects a request above the bound.
const fetchMaxIDs = 4096

// errFetchReq is a sentinel for the same reason errBadVarint is.
var errFetchReq = errors.New("core: fetch request header truncated, or its id count exceeds the request bound or the payload")

// appendFetchReq appends a kindFetch request for ids (at most fetchMaxIDs).
func appendFetchReq(dst []byte, epoch uint64, ids []dag.VertexID) []byte {
	dst = putU32(putU64(dst, epoch), uint32(len(ids)))
	var prev dag.VertexID
	for _, id := range ids {
		dst = putIDDelta(dst, prev, id)
		prev = id
	}
	return dst
}

// decodeFetchReq parses a kindFetch request, appending the ids to buf. The
// grown buffer is returned even on error so callers keep the capacity.
func decodeFetchReq(payload []byte, buf []dag.VertexID) (epoch uint64, ids []dag.VertexID, err error) {
	if len(payload) < 12 {
		return 0, buf, errFetchReq
	}
	r := reader{b: payload}
	epoch = r.u64()
	n := r.u32()
	// Every id costs at least 2 bytes.
	if n > fetchMaxIDs || int(n) > (len(payload)-12)/2 {
		return 0, buf, errFetchReq
	}
	var prev dag.VertexID
	for k := uint32(0); k < n; k++ {
		prev = r.idDelta(prev)
		buf = append(buf, prev)
	}
	return epoch, buf, r.err
}

// --- the other kinds' payloads ----------------------------------------
//
// One encoder and one decoder per layout; a decoder reads its layout from
// the front of the payload.

// encodeEpoch is exchange, resume and stop: [epoch u64].
func encodeEpoch(dst []byte, epoch uint64) []byte { return putU64(dst, epoch) }

func decodeEpoch(payload []byte) (epoch uint64, err error) {
	r := reader{b: payload}
	epoch = r.u64()
	return epoch, r.err
}

// encodePlaceEvent is placeDone and fault: [epoch u64][place u32].
func encodePlaceEvent(dst []byte, epoch uint64, place int) []byte {
	return putU32(putU64(dst, epoch), uint32(place))
}

func decodePlaceEvent(payload []byte) (epoch uint64, place int, err error) {
	r := reader{b: payload}
	epoch, place = r.u64(), int(r.u32())
	return epoch, place, r.err
}

// encodeRebuild is rebuild: [epoch u64][n u32][dead place u32 × n].
func encodeRebuild(dst []byte, epoch uint64, dead []int) []byte {
	dst = putU32(putU64(dst, epoch), uint32(len(dead)))
	for _, p := range dead {
		dst = putU32(dst, uint32(p))
	}
	return dst
}

func decodeRebuild(payload []byte) (epoch uint64, dead []int, err error) {
	r := reader{b: payload}
	epoch, n := r.u64(), r.u32()
	for k := uint32(0); k < n && r.err == nil; k++ {
		dead = append(dead, int(r.u32()))
	}
	return epoch, dead, r.err
}

// encodeSteal is steal: [epoch u64][lifeline u8, 0 or 1].
func encodeSteal(dst []byte, epoch uint64, lifeline bool) []byte {
	return append(putU64(dst, epoch), encodeFlag(lifeline)[0])
}

func decodeSteal(payload []byte) (epoch uint64, lifeline bool, err error) {
	r := reader{b: payload}
	epoch, flag := r.u64(), r.u8()
	if r.err == nil && flag > 1 {
		r.err = fmt.Errorf("core: steal lifeline flag %d", flag)
	}
	return epoch, flag == 1, r.err
}

// encodeIDVals is stealDone, and the front of handover: [epoch u64][n u32]
// then n (id, value (codec)) entries, entry k being at(k).
func encodeIDVals[T any](dst []byte, cd codec.Codec[T], epoch uint64, n int, at func(k int) (dag.VertexID, T)) []byte {
	dst = putU32(putU64(dst, epoch), uint32(n))
	for k := 0; k < n; k++ {
		id, v := at(k)
		dst = cd.Encode(putID(dst, id), v)
	}
	return dst
}

// decodeIDVals appends the entries to ids and vals, returning the grown
// buffers even on error.
func decodeIDVals[T any](payload []byte, cd codec.Codec[T], ids []dag.VertexID, vals []T) (uint64, []dag.VertexID, []T, error) {
	r := reader{b: payload}
	epoch := r.u64()
	ids, vals = readIDVals(&r, cd, ids, vals)
	return epoch, ids, vals, r.err
}

// readIDVals reads an entry count and the entries, as decodeIDVals.
func readIDVals[T any](r *reader, cd codec.Codec[T], ids []dag.VertexID, vals []T) ([]dag.VertexID, []T) {
	n := r.u32()
	for k := uint32(0); k < n && r.err == nil; k++ {
		ids = append(ids, r.id())
		v, used, err := cd.Decode(r.rest())
		if err != nil {
			r.err = fmt.Errorf("core: value decode: %w", err)
			break
		}
		r.off += used
		vals = append(vals, v)
	}
	return ids, vals
}

// encodeHandover is handover, what one survivor owes another in a
// recovery's exchange round: the values it hands over, as encodeIDVals lays
// them out, then the records of b, the decrements it replays there.
func encodeHandover[T any](cd codec.Codec[T], b *decrBatch[T], n int, at func(k int) (dag.VertexID, T)) []byte {
	return appendDecrRecords(encodeIDVals(nil, cd, b.epoch, n, at), cd, b)
}

// decodeHandover appends the handed-over entries to ids and vals and reads
// the replayed decrements into b, returning the grown buffers even on error.
func decodeHandover[T any](payload []byte, cd codec.Codec[T], ids []dag.VertexID, vals []T, b *decrBatch[T]) ([]dag.VertexID, []T, error) {
	r := reader{b: payload}
	b.epoch = r.u64()
	ids, vals = readIDVals(&r, cd, ids, vals)
	if r.err != nil {
		return ids, vals, r.err
	}
	return ids, vals, readDecrRecords(&r, cd, b)
}

// encodeReadVal is readVal: [id], and its reply [finished u8][value
// (codec), when finished].
func encodeReadVal(dst []byte, id dag.VertexID) []byte { return putID(dst, id) }

func decodeReadVal(payload []byte) (dag.VertexID, error) {
	r := reader{b: payload}
	id := r.id()
	return id, r.err
}

func encodeReadValReply[T any](cd codec.Codec[T], v T, finished bool) []byte {
	if !finished {
		return encodeFlag(false)
	}
	return cd.Encode(encodeFlag(true), v)
}

func decodeReadValReply[T any](reply []byte, cd codec.Codec[T]) (v T, finished bool, err error) {
	if len(reply) == 0 || reply[0] != 1 {
		return v, false, nil
	}
	v, _, err = cd.Decode(reply[1:])
	return v, true, err
}

// encodeFlag is the reply of resume (1: nothing left to run) and transfer
// (1: accepted).
func encodeFlag(ok bool) []byte {
	if ok {
		return []byte{1}
	}
	return []byte{0}
}

func decodeFlag(reply []byte) bool { return len(reply) == 1 && reply[0] == 1 }

// encodePing is ping: [seq u64][send time, unix nanos u64], pingLen bytes
// the receiver echoes, which catches a place that is reachable but no longer
// running its handler loop correctly.
func encodePing(dst []byte, seq, sent uint64) []byte { return putU64(putU64(dst, seq), sent) }

const pingLen = 16

func decodePing(payload []byte) (seq, sent uint64, err error) {
	if len(payload) != pingLen {
		return 0, 0, fmt.Errorf("core: ping of %d bytes, want %d", len(payload), pingLen)
	}
	r := reader{b: payload}
	return r.u64(), r.u64(), nil
}
