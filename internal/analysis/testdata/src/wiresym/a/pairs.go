package a

// Functions paired by name are checked even without a call site.

func encodeThing(epoch uint64, flag uint8) []byte { // want `encode/decode pair encodeThing/decodeThing disagree: encodeThing builds \[u64 u8\] but decodeThing reads \[u64 u32\]`
	dst := putU64(nil, epoch)
	return append(dst, flag)
}

func decodeThing(payload []byte) (uint64, uint32, error) {
	r := reader{b: payload}
	return r.u64(), r.u32(), r.err
}

// Symmetric optional field (flag byte gating a codec value): clean.

func encodeOpt(v int64, has bool, cd codec) []byte {
	dst := putU64(nil, 9)
	var flag uint8
	if has {
		flag = 1
	}
	dst = append(dst, flag)
	if has {
		dst = cd.Encode(dst, v)
	}
	return dst
}

func decodeOpt(payload []byte, cd codec) (int64, error) {
	r := reader{b: payload}
	_ = r.u64()
	if r.u8() == 1 {
		v, _, err := cd.Decode(r.rest())
		return v, err
	}
	return 0, r.err
}

// A codec held as an interface has no static callee; its Encode still
// appends one value, so a pair that drifts around it is caught.

type anyCodec interface {
	Encode(dst []byte, v int64) []byte
	Decode(b []byte) (int64, int, error)
}

func encodeIface(v int64, cd anyCodec) []byte { // want `encode/decode pair encodeIface/decodeIface disagree: encodeIface builds \[u64 codec\] but decodeIface reads \[u64 u32 codec\]`
	return cd.Encode(putU64(nil, 1), v)
}

func decodeIface(payload []byte, cd anyCodec) (int64, error) {
	r := reader{b: payload}
	_ = r.u64()
	_ = r.u32()
	v, _, err := cd.Decode(r.rest())
	return v, err
}
