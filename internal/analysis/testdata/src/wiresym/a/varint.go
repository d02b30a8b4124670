package a

import "encoding/binary"

// Variable-width fields: uvarint, zig-zag varint and the id-delta pair.

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	v, n := binary.Varint(r.b[r.off:])
	r.off += n
	return v
}

func (r *reader) idDelta(base ident) ident {
	return ident{base.i + uint32(r.varint()), base.j + uint32(r.varint())}
}

func putIDDelta(dst []byte, base, id ident) []byte {
	dst = binary.AppendVarint(dst, int64(id.i)-int64(base.i))
	return binary.AppendVarint(dst, int64(id.j)-int64(base.j))
}

// Compact record: head byte, escaped count, delta-coded ids. Clean.

func encodeCompact(src ident, targets []ident) []byte {
	dst := putU64(nil, 1)
	dst = append(dst, uint8(min(len(targets), 127)))
	if len(targets) >= 127 {
		dst = binary.AppendUvarint(dst, uint64(len(targets)))
	}
	dst = putIDDelta(dst, ident{}, src)
	for _, t := range targets {
		dst = putIDDelta(dst, src, t)
	}
	return dst
}

func decodeCompact(payload []byte) (ident, []ident, error) {
	r := reader{b: payload}
	_ = r.u64()
	n := uint64(r.u8())
	if n == 127 {
		n = r.uvarint()
	}
	src := r.idDelta(ident{})
	var targets []ident
	for k := uint64(0); k < n; k++ {
		targets = append(targets, r.idDelta(src))
	}
	return src, targets, r.err
}

// Signedness drift: a zig-zag delta written, an unsigned varint read.

func encodeDrift(delta int64) []byte { // want `encode/decode pair encodeDrift/decodeDrift disagree: encodeDrift builds \[u64 varint\] but decodeDrift reads \[u64 uvarint\]`
	dst := putU64(nil, 2)
	return binary.AppendVarint(dst, delta)
}

func decodeDrift(payload []byte) (uint64, error) {
	r := reader{b: payload}
	_ = r.u64()
	return r.uvarint(), r.err
}
