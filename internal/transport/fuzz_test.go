package transport

import (
	"bytes"
	"hash/crc32"
	"testing"
)

// appendFrame appends one whole frame — header, then payload — to dst: the
// test-side encoder, sharing putFrameHeader with the writer's flush.
func appendFrame(dst []byte, kind, flags uint8, from int, seq uint64, payload []byte) []byte {
	dst = putFrameHeader(dst, kind, flags, from, seq, len(payload), crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// FuzzReadFrame hardens the TCP framing against corrupt input: arbitrary
// bytes must never panic or allocate unboundedly, no accepted frame
// carries a reserved flag bit, and every accepted frame re-encodes to one
// that reads back identically.
func FuzzReadFrame(f *testing.F) {
	f.Add(appendFrame(nil, 3, flagRequestMarker, 1, 42, []byte("payload")))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	// Oversized length field.
	b := appendFrame(nil, 1, 0, 0, 0, nil)
	b[14], b[15], b[16], b[17] = 0xFF, 0xFF, 0xFF, 0xFF
	f.Add(b)
	for _, bit := range []uint8{1 << 3, 1 << 4, 1 << 5} {
		f.Add(appendFrame(nil, 3, bit, 1, 42, []byte("payload")))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, flags, from, seq, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if flags&flagsReserved != 0 {
			t.Fatalf("frame with reserved flag bits %#x accepted", flags&flagsReserved)
		}
		out := appendFrame(nil, kind, flags, from, seq, payload)
		k2, f2, from2, seq2, p2, err2 := readFrame(bytes.NewReader(out))
		if err2 != nil || k2 != kind || f2 != flags || from2 != from || seq2 != seq || !bytes.Equal(p2, payload) {
			t.Fatalf("frame round trip mismatch (err=%v)", err2)
		}
	})
}

// FuzzWireError hardens the error-identity encoding.
func FuzzWireError(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeWireError(ErrDeadPlace))
	f.Add(encodeWireError(ErrNoHandler))
	f.Fuzz(func(t *testing.T, data []byte) {
		err := decodeWireError(data)
		if err == nil {
			t.Fatal("decodeWireError returned nil")
		}
		if len(data) > 0 && data[0] == 1 && err != ErrDeadPlace {
			t.Fatal("dead-place marker lost")
		}
	})
}
