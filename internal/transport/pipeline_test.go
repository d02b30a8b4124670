package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// memConn is an in-memory net.Conn sink for driving flush directly.
type memConn struct{ bytes.Buffer }

func (m *memConn) Close() error                     { return nil }
func (m *memConn) LocalAddr() net.Addr              { return nil }
func (m *memConn) RemoteAddr() net.Addr             { return nil }
func (m *memConn) SetDeadline(time.Time) error      { return nil }
func (m *memConn) SetReadDeadline(time.Time) error  { return nil }
func (m *memConn) SetWriteDeadline(time.Time) error { return nil }

// decodeStream parses a pipelined wire stream — preamble, classic frames,
// batch envelopes — returning every logical payload in arrival order. It
// mirrors the readLoop's parse using the same production helpers
// (readFrame, walkBatch) and the same rejection of the retired flag.
func decodeStream(r io.Reader) (payloads [][]byte, kinds []uint8, seqs []uint64, err error) {
	one := func(kind, flags uint8, seq uint64, payload []byte) bool {
		if flags&flagRetired != 0 {
			err = io.ErrUnexpectedEOF
			return false
		}
		payloads = append(payloads, append([]byte(nil), payload...))
		kinds = append(kinds, kind)
		seqs = append(seqs, seq)
		return true
	}
	for {
		kind, flags, _, seq, payload, rerr := readFrame(r)
		if rerr != nil {
			if rerr == io.EOF {
				return payloads, kinds, seqs, err
			}
			return payloads, kinds, seqs, rerr
		}
		switch {
		case flags&flagControl != 0:
			if seq&^uint64(featAll) != 0 {
				return payloads, kinds, seqs, io.ErrUnexpectedEOF
			}
		case flags&flagBatch != 0:
			if kind != 0 || !walkBatch(payload, seq, one) {
				if err == nil {
					err = io.ErrUnexpectedEOF
				}
				return payloads, kinds, seqs, err
			}
		default:
			if !one(kind, flags, seq, payload) {
				return payloads, kinds, seqs, err
			}
		}
	}
}

// FuzzFrameBatchRoundTrip drives the writer's flush path — batch
// envelopes, preamble — over fuzzer-chosen payload splits and
// checks byte-identical decode, then re-parses the stream truncated at
// every byte boundary: truncation must never panic and never yield the
// complete frame set.
func FuzzFrameBatchRoundTrip(f *testing.F) {
	f.Add([]byte("hello world"), uint8(1))
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), uint8(3))
	f.Add(bytes.Repeat([]byte{0xAB, 0xCD}, 3000), uint8(5))
	f.Add([]byte{}, uint8(2))
	// A lifelineDeliver-shaped payload (kind 22 on the wire): epoch u64,
	// cell count u32, two 8-byte vertex ids, dep count u32, one (id, value)
	// pair — the newest protocol kind must batch and decode like the rest.
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
		tc := newTCPConn(mc, &TCPOptions{})
		tr := &TCP{self: 2}
		batch := make([]outFrame, n)
		for i, c := range chunks {
			batch[i] = outFrame{kind: uint8(i + 1), seq: uint64(i) << 8, payload: c}
		}
		if _, err := tc.flush(tr, batch); err != nil {
			t.Fatalf("flush: %v", err)
		}
		stream := mc.Bytes()

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

		// Arbitrary bytes must never panic the batch walker, whatever the
		// claimed count.
		walkBatch(data, uint64(nsplit), func(_, _ uint8, _ uint64, _ []byte) bool { return true })
	})
}

// TestPipelinedSendPerPeerFIFO hammers one peer from concurrent senders
// and asserts the wire preserves each sender's order — the per-peer FIFO
// invariant batching must not break. The receiver is a raw listener
// parsing frames straight off the socket, so the check covers exactly
// what was written, batch boundaries included. Senders reuse one payload
// buffer across sends, which also exercises the group-commit contract:
// the buffer must be free for reuse the moment Send returns.
func TestPipelinedSendPerPeerFIFO(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	ep, err := NewTCP(0, []string{"127.0.0.1:0", ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	type rec struct{ sender, i uint32 }
	recsCh := make(chan []rec, 1)
	errCh := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			errCh <- err
			recsCh <- nil
			return
		}
		defer c.Close()
		var recs []rec
		br := bufio.NewReaderSize(c, 64<<10)
		add := func(_, flags uint8, _ uint64, p []byte) bool {
			if len(p) != 8 {
				errCh <- io.ErrUnexpectedEOF
				return false
			}
			recs = append(recs, rec{binary.LittleEndian.Uint32(p[0:4]), binary.LittleEndian.Uint32(p[4:8])})
			return true
		}
		for {
			kind, flags, _, seq, payload, err := readFrame(br)
			if err != nil { // EOF: sender closed after the last Send returned
				recsCh <- recs
				return
			}
			switch {
			case flags&flagControl != 0:
			case flags&flagBatch != 0:
				if kind != 0 || !walkBatch(payload, seq, add) {
					recsCh <- recs
					return
				}
			default:
				if !add(kind, flags, seq, payload) {
					recsCh <- recs
					return
				}
			}
		}
	}()

	const G, N = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf [8]byte // reused: Send must not retain it
			for i := 0; i < N; i++ {
				binary.LittleEndian.PutUint32(buf[0:4], uint32(g))
				binary.LittleEndian.PutUint32(buf[4:8], uint32(i))
				if err := ep.Send(1, 7, buf[:]); err != nil {
					t.Errorf("sender %d send %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	ep.Close() // EOF tells the reader the stream is complete

	recs := <-recsCh
	select {
	case err := <-errCh:
		t.Fatalf("reader: %v", err)
	default:
	}
	if len(recs) != G*N {
		t.Fatalf("received %d messages, sent %d", len(recs), G*N)
	}
	next := make([]uint32, G)
	for k, r := range recs {
		if r.sender >= G {
			t.Fatalf("record %d: bogus sender %d", k, r.sender)
		}
		if r.i != next[r.sender] {
			t.Fatalf("record %d: sender %d sent out of order: got message %d, want %d",
				k, r.sender, r.i, next[r.sender])
		}
		next[r.sender]++
	}
}

// TestRetiredCompressionBitsRejected pins the reserved wire values left
// behind by the compressed-payload form: a frame (classic or batched)
// carrying flag bit 4, or a preamble declaring feature bit 1, is a protocol
// error — the endpoint closes the connection and runs no handler.
func TestRetiredCompressionBitsRejected(t *testing.T) {
	frame := func(flags uint8, seq uint64, payload []byte) []byte {
		var b bytes.Buffer
		if err := writeFrame(&b, 7, flags, 1, seq, payload); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	sub := putSubHeader(nil, 7, flagRetired, 0, 2)
	sub = append(sub, "hi"...)
	batch := frame(flagBatch, 1, sub)
	batch[0] = 0 // envelopes carry kind 0
	cases := map[string][]byte{
		"classic frame": frame(flagRetired, 0, []byte("hi")),
		"batched frame": batch,
		"preamble":      frame(flagControl, featBatch|1<<1, nil),
	}
	for name, wire := range cases {
		wire := wire
		t.Run(name, func(t *testing.T) {
			ep, err := NewTCP(0, []string{"127.0.0.1:0", "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			defer ep.Close()
			ep.Handle(7, func(int, []byte) ([]byte, error) {
				t.Error("handler ran for a frame with a retired bit set")
				return nil, nil
			})
			c, err := net.Dial("tcp", ep.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write(wire); err != nil {
				t.Fatal(err)
			}
			c.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // test socket
			if _, err := c.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("endpoint kept the connection open: read err = %v, want EOF", err)
			}
		})
	}
}
