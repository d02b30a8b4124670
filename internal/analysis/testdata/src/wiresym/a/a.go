package a

import "encoding/binary"

// fabric matches the transport.Transport verb and Handle signatures.
type fabric struct{}

func (fabric) Send(to int, kind uint8, payload []byte) error           { return nil }
func (fabric) Call(to int, kind uint8, payload []byte) ([]byte, error) { return nil, nil }
func (fabric) Handle(kind uint8, h func(int, []byte) ([]byte, error))  {}

const (
	kGood  uint8 = 1
	kBad   uint8 = 2
	kRep   uint8 = 3
	kEcho  uint8 = 4
	kVal   uint8 = 5
	kNil   uint8 = 6
	kOdd   uint8 = 7
	kBatch uint8 = 8
)

type ident struct{ i, j uint32 }

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) u8() uint8 {
	if r.off >= len(r.b) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.off+4 > len(r.b) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.off+8 > len(r.b) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) id() ident { return ident{r.u32(), r.u32()} }

func (r *reader) rest() []byte { return r.b[r.off:] }

func putU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func putU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func putID(dst []byte, id ident) []byte  { return putU32(putU32(dst, id.i), id.j) }

type codec struct{}

func (codec) Encode(dst []byte, v int64) []byte { return putU64(dst, uint64(v)) }

func (codec) Decode(b []byte) (int64, int, error) {
	r := reader{b: b}
	return int64(r.u64()), 8, r.err
}

type engine struct {
	tr fabric
	cd codec
}

func (e *engine) register() {
	e.tr.Handle(kGood, e.handleGood)
	e.tr.Handle(kBad, e.handleBad)
	e.tr.Handle(kRep, e.handleRep)
	e.tr.Handle(kEcho, handleEcho)
	e.tr.Handle(kVal, e.handleVal)
	e.tr.Handle(kNil, e.handleNil)
	e.tr.Handle(kOdd, e.handleOdd)
	e.tr.Handle(kBatch, e.handleBatch)
}

// --- matching shapes: no findings ------------------------------------

func (e *engine) handleGood(from int, payload []byte) ([]byte, error) {
	r := reader{b: payload}
	_ = r.u64()
	_ = r.id()
	return nil, r.err
}

func (e *engine) sendGood(id ident) error {
	payload := putU64(nil, 7)
	payload = putID(payload, id)
	return e.tr.Send(1, kGood, payload)
}

// --- missing field: encoder stops one read early ---------------------

func (e *engine) handleBad(from int, payload []byte) ([]byte, error) {
	r := reader{b: payload}
	epoch := r.u64()
	n := r.u32()
	_, _ = epoch, n
	return nil, r.err
}

func (e *engine) sendBad() error {
	payload := putU64(nil, 7)
	return e.tr.Send(1, kBad, payload) // want `wire kind kBad: encoder builds \[u64\] but handler handleBad decodes \[u64 u32\]`
}

// --- repeated-element mismatch: ids sent, u64s read ------------------

func (e *engine) handleRep(from int, payload []byte) ([]byte, error) {
	r := reader{b: payload}
	n := r.u32()
	for k := uint32(0); k < n; k++ {
		_ = r.u64()
	}
	return nil, r.err
}

func (e *engine) sendRep(ids []ident) error {
	buf := putU32(nil, uint32(len(ids)))
	for _, id := range ids {
		buf = putID(buf, id)
	}
	return e.tr.Send(1, kRep, buf) // want `wire kind kRep: encoder builds \[u32 rep\( id \)\] but handler handleRep decodes \[u32 rep\( u64 \)\]`
}

// --- echo handler extracts no reads: the kind is skipped -------------

func handleEcho(from int, payload []byte) ([]byte, error) {
	echo := make([]byte, len(payload))
	copy(echo, payload)
	return echo, nil
}

func (e *engine) ping() error { return e.tr.Send(1, kEcho, putU64(nil, 1)) }

// --- codec value round-trip: symmetric -------------------------------

func (e *engine) handleVal(from int, payload []byte) ([]byte, error) {
	r := reader{b: payload}
	_ = r.u64()
	v, _, err := e.cd.Decode(r.rest())
	_ = v
	return nil, err
}

func (e *engine) sendVal(v int64) error {
	msg := putU64(nil, 3)
	msg = e.cd.Encode(msg, v)
	_, err := e.tr.Call(1, kVal, msg)
	return err
}

// --- nil payload: nothing to compare ---------------------------------

func (e *engine) handleNil(from int, payload []byte) ([]byte, error) {
	r := reader{b: payload}
	_ = r.u64()
	return nil, r.err
}

func (e *engine) stopAll() error { _, err := e.tr.Call(1, kNil, nil); return err }

// --- unclassifiable builder: the site is skipped, not guessed --------

func mystery() []byte { return nil }

func (e *engine) handleOdd(from int, payload []byte) ([]byte, error) {
	r := reader{b: payload}
	_ = r.u32()
	return nil, r.err
}

func (e *engine) sendOdd() error { return e.tr.Send(1, kOdd, mystery()) }

// --- non-constant kind: forwarding layers are exempt -----------------

func (e *engine) relay(kind uint8, payload []byte) error {
	return e.tr.Send(1, kind, payload)
}

// --- helper summaries splice through both sides ----------------------

func appendBatch(dst []byte, epoch uint64, ids []ident) []byte {
	dst = putU64(dst, epoch)
	dst = putU32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = putID(dst, id)
	}
	return dst
}

func decodeBatch(payload []byte) (uint64, []ident, error) {
	r := reader{b: payload}
	epoch := r.u64()
	n := r.u32()
	ids := make([]ident, 0, n)
	for k := uint32(0); k < n; k++ {
		ids = append(ids, r.id())
	}
	return epoch, ids, r.err
}

func (e *engine) handleBatch(from int, payload []byte) ([]byte, error) {
	_, _, err := decodeBatch(payload)
	return nil, err
}

func (e *engine) sendBatch(ids []ident) error {
	return e.tr.Send(2, kBatch, appendBatch(nil, 1, ids))
}
