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

	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/dag"
)

// Message kinds on the transport. Kind 0 is reserved by the TCP framing
// for responses.
const (
	kindFetch uint8 = 1 // Call: fetch finished vertex values
	// 2 is unassigned: it was the per-vertex decrement message that
	// kindDecrBatch replaced. 3 and 22 are unassigned too: they were the
	// per-vertex exec Call and the lifeline push, which kindTransfer
	// replaced. 6 and 10 were the recovery's pause and replay rounds, which
	// kindRebuild and kindExchange absorbed. Do not reuse or renumber any
	// of them.
	kindPlaceDone uint8 = 4  // Send: place finished all local vertices
	kindFault     uint8 = 5  // Send: place observed a dead peer
	kindRebuild   uint8 = 7  // Call: coordinator -> place, pause, rebuild and work out the exchange
	kindExchange  uint8 = 8  // Call: coordinator -> place, send what the rebuild worked out
	kindRestoreTx uint8 = 9  // Call: place -> place, restored values
	kindReplayTx  uint8 = 11 // Call: place -> place, replayed decrements
	kindResume    uint8 = 12 // Call: coordinator -> place, restart workers
	kindStop      uint8 = 13 // Call: coordinator -> place, run finished; the reply is the ack
	kindReadVal   uint8 = 14 // Call: post-run result access
	kindPing      uint8 = 15 // Call: failure-detector heartbeat
	kindHello     uint8 = 16 // Call: place -> place 0, "my state is prepared"
	kindBegin     uint8 = 17 // Call: place 0 -> place, "launch workers"
	kindSteal     uint8 = 18 // Call: idle place asks a victim for a ready tile; the reply is a transfer body
	kindStealDone uint8 = 19 // Call: a tile's executor returns its results to the owner
	kindDecrBatch uint8 = 20 // Send: aggregated decrements, optionally carrying values
	kindStats     uint8 = 21 // Call: place 0 -> place, read the metrics snapshot
	kindTransfer  uint8 = 23 // Call: push a tile to another place (lifeline or exec); reply [1] accepts
)

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
// envelope ahead of their ordinary payload. The sequence number is drawn
// from one per-sender counter; receivers remember recently seen (sender,
// seq) pairs and suppress re-execution of duplicates, replying with the
// cached response instead — see reliable.go. Untracked kinds keep the bare
// wire format so raw-transport callers (startup barrier, post-run reads,
// the failure detector) interoperate.

// reliableKind marks the kinds that participate in the envelope, retry and
// duplicate-suppression protocol. Exempt:
//   - kindPing: the failure detector must observe raw link state, not a
//     retried view of it;
//   - kindHello, kindBegin: the cluster-formed barrier registers and calls
//     these on the raw endpoint, below chaos injection;
//   - kindReadVal: idempotent post-run read, also issued raw (TCPNode.Value);
//   - kindStats: idempotent post-run metrics read, issued raw after the run
//     like kindReadVal (a lost reply just re-reads the snapshot).
var reliableKind = func() (t [256]bool) {
	for _, k := range []uint8{
		kindFetch, kindPlaceDone, kindFault,
		kindRebuild, kindExchange, kindRestoreTx, kindReplayTx,
		kindResume, kindStop,
		kindSteal, kindStealDone, kindDecrBatch, kindTransfer,
	} {
		t[k] = true
	}
	return t
}()

// appendEnvelope prefixes payload with its delivery sequence number.
func appendEnvelope(dst []byte, seq uint64, payload []byte) []byte {
	dst = putU64(dst, seq)
	return append(dst, payload...)
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
// A multi-job cluster multiplexes every job-scoped kind over one shared
// per-place delivery stack. Job-scoped payloads travel wrapped in a
// [jobID u32] envelope ahead of their ordinary payload, added by the
// sending jobPort and stripped by the receiving jobRouter. The envelope
// sits *inside* the reliable-delivery envelope, so a tracked kind's wire
// form is [seq u64][jobID u32][payload]; untracked job-scoped kinds
// (kindReadVal) travel as [jobID u32][payload]. Place-scoped kinds
// (ping, hello, begin, stats) keep the bare wire format — they describe
// the place, not any one job, and raw-transport callers (the failure
// detector, the TCP startup barrier, post-run stats reads) must
// interoperate without a router.

// jobScopedKind marks the kinds whose payloads carry the job envelope.
var jobScopedKind = func() (t [256]bool) {
	for _, k := range []uint8{
		kindFetch, kindPlaceDone, kindFault,
		kindRebuild, kindExchange, kindRestoreTx, kindReplayTx,
		kindResume, kindStop, kindReadVal,
		kindSteal, kindStealDone, kindDecrBatch, kindTransfer,
	} {
		t[k] = true
	}
	return t
}()

// errUnknownJob is returned when a job envelope names a job the receiving
// place has no port for — the job finished and was torn down, or the
// sender raced its own submission. Senders treat it like a stale epoch.
var errUnknownJob = errors.New("core: unknown job")

// appendJobEnvelope prefixes payload with the owning job's id.
func appendJobEnvelope(dst []byte, job uint32, payload []byte) []byte {
	dst = putU32(dst, job)
	return append(dst, payload...)
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

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off+1 > len(r.b) {
		r.err = fmt.Errorf("core: truncated message at offset %d", r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.b) {
		r.err = fmt.Errorf("core: truncated message at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.err = fmt.Errorf("core: truncated message at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
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

// --- decrement records (kindDecrBatch, kindReplayTx) -------------------
//
// One batch carries the settlements of many units for one destination
// place, coalesced by the outbound aggregator; a recovery's replay sends one
// record, with no values:
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

// encodeDecrBatch builds a whole payload from decoded form in a fresh
// buffer: a recovery's replay, and tests. The aggregator builds its
// messages a record at a time.
func encodeDecrBatch[T any](cd codec.Codec[T], b *decrBatch[T]) []byte {
	dst := putU32(putU64(nil, b.epoch), uint32(len(b.ends)))
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
	n := r.u32()
	b.tiles, b.vals, b.ends = b.tiles[:0], b.vals[:0], b.ends[:0]
	if r.err != nil {
		return r.err
	}
	// A record costs at least 2 bytes, its two counts, and each tile entry
	// it holds at least 2 more; a run at least 3, its two varints and a value.
	if int(n) > (len(payload)-12)/2 {
		return errDecrRecord
	}
	end := int64(0)
	for k := uint32(0); k < n; k++ {
		nt := r.uvarint()
		push := r.uvarint()
		if r.err != nil {
			return r.err
		}
		if push > 1 || nt > uint64(len(payload)-r.off)/2 {
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
			if nr > uint64(len(payload)-r.off)/3 {
				return errDecrRun
			}
			for q := uint64(0); q < nr; q++ {
				off := end + r.varint()
				cnt := r.uvarint()
				if r.err != nil {
					return r.err
				}
				if off < 0 || cnt == 0 || cnt > uint64(len(payload)-r.off) || off+int64(cnt) > math.MaxInt32 {
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
// to the one before it, (0,0) for the first. A tile's halo arrives in walk order and a cell's
// remote dependencies are grid neighbours, so an id costs about two bytes.
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
