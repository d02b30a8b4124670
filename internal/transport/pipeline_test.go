package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// memConn is an in-memory net.Conn sink for driving the writer directly.
// A non-nil gate holds every Write until the gate is closed, so a test can
// park the writer mid-flush.
type memConn struct {
	bytes.Buffer
	gate chan struct{}
}

func (m *memConn) Write(p []byte) (int, error) {
	if m.gate != nil {
		<-m.gate
	}
	return m.Buffer.Write(p)
}
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

// FuzzFrameBatchRoundTrip drives the writer's flush path over
// fuzzer-chosen payload splits — N frames back to back in one vectored
// write — and checks byte-identical decode, then re-parses the stream
// truncated at every byte boundary: truncation must never panic and never
// yield the complete frame set.
func FuzzFrameBatchRoundTrip(f *testing.F) {
	f.Add([]byte("hello world"), uint8(1))
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), uint8(3))
	f.Add(bytes.Repeat([]byte{0xAB, 0xCD}, 3000), uint8(5))
	f.Add([]byte{}, uint8(2))
	// A payload shaped like the retired lifeline push (kind 22): epoch u64,
	// cell count u32, two 8-byte vertex ids, dep count u32, one (id, value)
	// pair — frames of any layout must coalesce and decode like the rest.
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
		tc := newTCPConn(mc)
		tr := &TCP{self: 2}
		batch := make([]outFrame, n)
		for i, c := range chunks {
			batch[i] = outFrame{kind: uint8(i + 1), seq: uint64(i) << 8, payload: c}
		}
		wire, err := tc.flush(tr, batch)
		if err != nil {
			t.Fatalf("flush: %v", err)
		}
		stream := mc.Bytes()
		if wire != len(stream) || wire != n*frameHeaderLen+len(data) {
			t.Fatalf("flush reported %d wire bytes, wrote %d, want %d", wire, len(stream), n*frameHeaderLen+len(data))
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

// TestParkedSendersShareOneWrite pins what coalescing means now that there
// is no envelope: K senders that queue up behind one blocked write leave
// together in the writer's next vectored write, as K ordinary frames in
// queue order, and a frame-by-frame reader parses the lot.
func TestParkedSendersShareOneWrite(t *testing.T) {
	const K = 6
	mc := &memConn{gate: make(chan struct{})}
	tc := newTCPConn(mc)
	var flushes []int // writer-owned until writerDone closes
	tr := &TCP{self: 2, obs: PipeObserver{Flush: func(frames, _ int) { flushes = append(flushes, frames) }}}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		tr.writeLoop(tc)
	}()
	await := func(cond func() bool) {
		for ok := false; !ok; runtime.Gosched() {
			tc.mu.Lock()
			ok = cond()
			tc.mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for k := 0; k <= K; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if err := tc.enqueue(7, 0, uint64(k), []byte{byte(k)}); err != nil {
				t.Errorf("sender %d: %v", k, err)
			}
		}(k)
		// Frame 0 must be inside the gated write, and frame k in the queue,
		// before frame k+1 is sent: queue order is then sender order.
		await(func() bool { return tc.enq == uint64(k)+1 && (k > 0 || len(tc.q) == 0) })
	}
	close(mc.gate)
	wg.Wait()
	tc.shutdown(ErrClosed)
	<-writerDone

	if want := []int{1, K}; !reflect.DeepEqual(flushes, want) {
		t.Fatalf("frames per write = %v, want %v", flushes, want)
	}
	if w, fr := tr.stats.WriteCalls.Load(), tr.stats.FramesOut.Load(); w != 2 || fr != K+1 {
		t.Fatalf("WriteCalls = %d, FramesOut = %d, want 2 and %d", w, fr, K+1)
	}
	payloads, _, seqs, err := decodeStream(&mc.Buffer)
	if err != nil || len(seqs) != K+1 {
		t.Fatalf("decoded %d frames (err %v), want %d", len(seqs), err, K+1)
	}
	for k, seq := range seqs {
		if seq != uint64(k) || !bytes.Equal(payloads[k], []byte{byte(k)}) {
			t.Fatalf("frame %d is sender %d's (payload %v): queue order lost", k, seq, payloads[k])
		}
	}
}

// TestPipelinedSendPerPeerFIFO hammers one peer from concurrent senders
// and asserts the wire preserves each sender's order — the per-peer FIFO
// invariant batching must not break. The receiver is a raw listener
// parsing frames straight off the socket, so the check covers exactly
// what was written, write boundaries included. Senders reuse one payload
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
		for {
			_, _, _, _, p, err := readFrame(br)
			if err != nil { // EOF: sender closed after the last Send returned
				recsCh <- recs
				return
			}
			if len(p) != 8 {
				errCh <- io.ErrUnexpectedEOF
				recsCh <- recs
				return
			}
			recs = append(recs, rec{binary.LittleEndian.Uint32(p[0:4]), binary.LittleEndian.Uint32(p[4:8])})
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

// TestRetiredCompressionBitsRejected pins the reserved flag bits. Each case
// is named for the retired frame form that owned the bit: 8 marked a batch
// envelope, 16 a compressed payload on a classic frame, 32 a connection
// preamble. A frame carrying any of them — first on its connection or after
// good traffic — is a protocol error: the endpoint closes the connection
// and runs no handler for it.
func TestRetiredCompressionBitsRejected(t *testing.T) {
	bits := []struct {
		name string
		bit  uint8
	}{{"batched frame", 1 << 3}, {"classic frame", 1 << 4}, {"preamble", 1 << 5}}
	for _, tc := range bits {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Run("first", func(t *testing.T) { rejectReserved(t, tc.bit, false) })
			t.Run("mid-stream", func(t *testing.T) { rejectReserved(t, tc.bit, true) })
		})
	}
}

func rejectReserved(t *testing.T, bit uint8, midStream bool) {
	ep, err := NewTCP(0, []string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ep.Handle(7, func(int, []byte) ([]byte, error) {
		t.Errorf("handler ran for a frame with reserved bit %d set", bit)
		return nil, nil
	})
	good := make(chan struct{})
	ep.Handle(9, func(int, []byte) ([]byte, error) {
		close(good)
		return nil, nil
	})
	c, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wire []byte
	if midStream {
		wire = appendFrame(wire, 9, 0, 1, 0, []byte("ok"))
	}
	wire = appendFrame(wire, 7, bit, 1, 0, []byte("hi"))
	if _, err := c.Write(wire); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // test socket
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("endpoint kept the connection open: read err = %v, want EOF", err)
	}
	if midStream {
		<-good // the frame ahead of the bad one was still delivered
	}
}
