package transport

import (
	"bytes"
	"hash/crc32"
	"io"
	"net"
	"testing"
	"time"
)

// appendFrame appends one whole frame — header, then payload — to dst: the
// test-side encoder, sharing putFrameHeader with tcpConn.write.
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

// memConn is an in-memory net.Conn sink for driving tcpConn.write directly.
type memConn struct{ bytes.Buffer }

func (m *memConn) Close() error                     { return nil }
func (m *memConn) LocalAddr() net.Addr              { return nil }
func (m *memConn) RemoteAddr() net.Addr             { return nil }
func (m *memConn) SetDeadline(time.Time) error      { return nil }
func (m *memConn) SetReadDeadline(time.Time) error  { return nil }
func (m *memConn) SetWriteDeadline(time.Time) error { return nil }

// decodeStream parses a wire stream with the reference reader, one frame
// after another and nothing else, returning every payload in arrival
// order. A clean end of stream is not an error.
func decodeStream(r io.Reader) (payloads [][]byte, kinds []uint8, seqs []uint64, err error) {
	for {
		kind, _, _, seq, payload, rerr := readFrame(r)
		if rerr == io.EOF {
			return payloads, kinds, seqs, nil
		}
		if rerr != nil {
			return payloads, kinds, seqs, rerr
		}
		payloads = append(payloads, payload)
		kinds = append(kinds, kind)
		seqs = append(seqs, seq)
	}
}

// FuzzFrameBatchRoundTrip drives the send path over fuzzer-chosen payload
// splits — N frames written back to back on one connection — and checks
// byte-identical decode, then re-parses the stream truncated at every byte
// boundary: truncation must never panic and never yield the complete
// frame set.
func FuzzFrameBatchRoundTrip(f *testing.F) {
	f.Add([]byte("hello world"), uint8(1))
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), uint8(3))
	f.Add(bytes.Repeat([]byte{0xAB, 0xCD}, 3000), uint8(5))
	f.Add([]byte{}, uint8(2))
	// A payload shaped like the retired lifeline push (kind 22): epoch u64,
	// cell count u32, two 8-byte vertex ids, dep count u32, one (id, value)
	// pair — frames of any layout must share a stream and decode like the
	// rest.
	f.Add([]byte{
		7, 0, 0, 0, 0, 0, 0, 0, // epoch
		2, 0, 0, 0, // nCells
		1, 0, 0, 0, 0, 0, 0, 0, // cell id 1
		2, 0, 0, 0, 0, 0, 0, 0, // cell id 2
		1, 0, 0, 0, // nDeps
		3, 0, 0, 0, 0, 0, 0, 0, // dep id
		42, 0, 0, 0, 0, 0, 0, 0, // dep value (int64)
	}, uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, nsplit uint8) {
		if len(data) > 1<<14 {
			return
		}
		// Split data into 1..8 frames.
		n := int(nsplit%8) + 1
		var chunks [][]byte
		for i := 0; i < n; i++ {
			lo, hi := i*len(data)/n, (i+1)*len(data)/n
			chunks = append(chunks, data[lo:hi])
		}
		mc := &memConn{}
		tc := &tcpConn{c: mc}
		for i, c := range chunks {
			if err := tc.write(2, uint8(i+1), 0, uint64(i)<<8, c); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		stream := mc.Bytes()
		if len(stream) != n*frameHeaderLen+len(data) {
			t.Fatalf("wrote %d wire bytes, want %d", len(stream), n*frameHeaderLen+len(data))
		}

		payloads, kinds, seqs, err := decodeStream(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(payloads) != n {
			t.Fatalf("decoded %d frames, sent %d", len(payloads), n)
		}
		for i, c := range chunks {
			if !bytes.Equal(payloads[i], c) {
				t.Fatalf("frame %d payload mismatch: %d bytes vs %d sent", i, len(payloads[i]), len(c))
			}
			if kinds[i] != uint8(i+1) || seqs[i] != uint64(i)<<8 {
				t.Fatalf("frame %d identity mismatch: kind=%d seq=%d", i, kinds[i], seqs[i])
			}
		}

		// Truncation at every boundary: no panic, never a complete parse.
		for cut := 0; cut < len(stream); cut++ {
			got, _, _, _ := decodeStream(bytes.NewReader(stream[:cut]))
			if len(got) >= n {
				t.Fatalf("truncated stream (%d/%d bytes) still decoded all %d frames", cut, len(stream), n)
			}
		}
	})
}
