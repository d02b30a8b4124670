package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTCPCluster starts n TCP endpoints on loopback with OS-assigned ports.
// Each endpoint learns the others' actual addresses before any traffic.
func newTCPCluster(t *testing.T, n int) []*TCP {
	t.Helper()
	eps := make([]*TCP, n)
	addrs := make([]string, n)
	// First pass: everyone listens on :0 so ports never collide.
	for i := 0; i < n; i++ {
		placeholder := make([]string, n)
		for j := range placeholder {
			placeholder[j] = "127.0.0.1:0"
		}
		ep, err := NewTCP(i, placeholder)
		if err != nil {
			t.Fatalf("NewTCP(%d): %v", i, err)
		}
		eps[i] = ep
		addrs[i] = ep.Addr()
	}
	// Second pass: install the real address table.
	for i := 0; i < n; i++ {
		copy(eps[i].addrs, addrs)
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps
}

func TestTCPCallRoundTrip(t *testing.T) {
	eps := newTCPCluster(t, 2)
	eps[1].Handle(7, func(from int, payload []byte) ([]byte, error) {
		return append([]byte(fmt.Sprintf("from%d:", from)), payload...), nil
	})
	reply, err := eps[0].Call(1, 7, []byte("data"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(reply) != "from0:data" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestTCPBidirectional(t *testing.T) {
	eps := newTCPCluster(t, 2)
	for _, ep := range eps {
		ep := ep
		ep.Handle(1, func(int, []byte) ([]byte, error) {
			return []byte{byte(ep.Self())}, nil
		})
	}
	r0, err := eps[0].Call(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := eps[1].Call(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r0[0] != 1 || r1[0] != 0 {
		t.Fatalf("replies = %v, %v", r0, r1)
	}
}

func TestTCPSendOneWay(t *testing.T) {
	eps := newTCPCluster(t, 2)
	got := make(chan []byte, 1)
	eps[1].Handle(3, func(_ int, payload []byte) ([]byte, error) {
		// The handler contract forbids letting the payload escape; clone
		// before handing it to the test's channel.
		got <- bytes.Clone(payload)
		return nil, nil
	})
	if err := eps[0].Send(1, 3, []byte("oneway")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if string(p) != "oneway" {
			t.Fatalf("payload = %q", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("one-way message never delivered")
	}
}

func TestTCPHandlerError(t *testing.T) {
	eps := newTCPCluster(t, 2)
	eps[1].Handle(1, func(int, []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	_, err := eps[0].Call(1, 1, nil)
	if err == nil {
		t.Fatal("want error from remote handler")
	}
	if errors.Is(err, ErrDeadPlace) {
		t.Fatalf("generic handler error misreported as ErrDeadPlace: %v", err)
	}
}

func TestTCPDeadPlacePropagates(t *testing.T) {
	eps := newTCPCluster(t, 2)
	eps[1].Handle(1, func(int, []byte) ([]byte, error) {
		return nil, ErrDeadPlace
	})
	if _, err := eps[0].Call(1, 1, nil); !errors.Is(err, ErrDeadPlace) {
		t.Fatalf("err = %v, want ErrDeadPlace identity preserved over the wire", err)
	}
}

func TestTCPPeerCrash(t *testing.T) {
	eps := newTCPCluster(t, 2)
	eps[1].Handle(1, func(int, []byte) ([]byte, error) { return []byte{1}, nil })
	if _, err := eps[0].Call(1, 1, nil); err != nil {
		t.Fatalf("warmup Call: %v", err)
	}
	eps[1].Close()
	eps[0].MarkDead(1)
	if _, err := eps[0].Call(1, 1, nil); !errors.Is(err, ErrDeadPlace) {
		t.Fatalf("Call to crashed peer: err = %v, want ErrDeadPlace", err)
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	eps := newTCPCluster(t, 3)
	for _, ep := range eps {
		ep := ep
		ep.Handle(1, func(_ int, payload []byte) ([]byte, error) {
			out := make([]byte, len(payload))
			copy(out, payload)
			return out, nil
		})
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for p := 0; p < 3; p++ {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(p, g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					to := (p + 1) % 3
					want := fmt.Sprintf("p%dg%di%d", p, g, i)
					reply, err := eps[p].Call(to, 1, []byte(want))
					if err != nil {
						errCh <- err
						return
					}
					if string(reply) != want {
						errCh <- fmt.Errorf("reply %q != %q: response mismatched to wrong request", reply, want)
						return
					}
				}
			}(p, g)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestTCPLargePayload(t *testing.T) {
	eps := newTCPCluster(t, 2)
	eps[1].Handle(1, func(_ int, payload []byte) ([]byte, error) {
		sum := byte(0)
		for _, b := range payload {
			sum += b
		}
		return []byte{sum}, nil
	})
	big := make([]byte, 1<<20)
	var want byte
	for i := range big {
		big[i] = byte(i)
		want += byte(i)
	}
	reply, err := eps[0].Call(1, 1, big)
	if err != nil {
		t.Fatal(err)
	}
	if reply[0] != want {
		t.Fatalf("checksum = %d, want %d", reply[0], want)
	}
}

func TestTCPFrameChecksum(t *testing.T) {
	// A corrupted payload must be rejected by the reader, not delivered.
	raw := appendFrame(nil, 5, 0, 1, 9, []byte("payload"))
	raw[len(raw)-1] ^= 0xFF // flip a payload byte
	if _, _, _, _, _, err := readFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted frame accepted")
	}
	// And an intact one round-trips.
	raw[len(raw)-1] ^= 0xFF
	kind, _, from, seq, payload, err := readFrame(bytes.NewReader(raw))
	if err != nil || kind != 5 || from != 1 || seq != 9 || string(payload) != "payload" {
		t.Fatalf("round trip failed: %v", err)
	}
}

// TestPipelinedSendPerPeerFIFO hammers one peer from concurrent senders
// and asserts the wire preserves each sender's order — the per-peer FIFO
// invariant the connection's write lock keeps. The receiver is a raw
// listener parsing frames straight off the socket, so the check covers
// exactly what was written, write boundaries included. Senders reuse one
// payload buffer across sends, which also exercises the buffer-reuse
// contract: the buffer must be free for reuse the moment Send returns.
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

// TestTCPRejectsBadSender sends well-formed frames whose sender id the
// endpoint must not believe: one naming no place, and one naming a place
// other than the connection's first frame did. Either kills the
// connection without running a handler for it, and the endpoint goes on
// answering legitimate Calls.
func TestTCPRejectsBadSender(t *testing.T) {
	cases := []struct {
		name string
		from []int // sender ids of the frames, in order; only the last is bad
	}{
		{"no such place", []int{99}},
		{"sender changed", []int{2, 1}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eps := newTCPCluster(t, 3)
			eps[0].Handle(7, func(from int, _ []byte) ([]byte, error) {
				t.Errorf("handler ran for a frame claiming sender %d", from)
				return nil, nil
			})
			good := make(chan struct{}, len(tc.from))
			eps[0].Handle(9, func(int, []byte) ([]byte, error) {
				good <- struct{}{}
				return nil, nil
			})
			eps[0].Handle(5, func(_ int, p []byte) ([]byte, error) {
				return append([]byte("re:"), p...), nil
			})

			c, err := net.Dial("tcp", eps[0].Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var wire []byte
			last := len(tc.from) - 1
			for i, from := range tc.from {
				kind := uint8(9)
				if i == last {
					kind = 7
				}
				wire = appendFrame(wire, kind, 0, from, 0, []byte("hi"))
			}
			if _, err := c.Write(wire); err != nil {
				t.Fatal(err)
			}
			c.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // test socket
			if _, err := c.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("endpoint kept the connection open: read err = %v, want EOF", err)
			}
			for range tc.from[:last] {
				<-good // the frames ahead of the bad one were still delivered
			}

			reply, err := eps[1].Call(0, 5, []byte("ping"))
			if err != nil || string(reply) != "re:ping" {
				t.Fatalf("Call after the rejected connection: reply %q, err %v", reply, err)
			}
		})
	}
}

// TestTCPCloseReleasesBlockedSenders fills a connection whose peer never
// reads until every sender blocks — one inside its write, the others on
// the connection's write lock — and then takes the connection away. An
// endpoint Close must fail every sender with ErrClosed, and the peer
// closing its end must fail every sender with some error, within 2 s.
func TestTCPCloseReleasesBlockedSenders(t *testing.T) {
	t.Run("endpoint closed", func(t *testing.T) { releaseBlockedSenders(t, true) })
	t.Run("peer closed", func(t *testing.T) { releaseBlockedSenders(t, false) })
}

func releaseBlockedSenders(t *testing.T, closeEndpoint bool) {
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
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c // never read
	}()

	const senders = 3
	payload := make([]byte, 4<<20)
	var sent atomic.Int64
	errs := make(chan error, senders)
	for g := 0; g < senders; g++ {
		go func() {
			for {
				if err := ep.Send(1, 7, payload); err != nil {
					errs <- err
					return
				}
				sent.Add(1)
			}
		}()
	}
	peer, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	defer peer.Close()
	// The socket buffers hold a few payloads at most; once no Send has
	// returned for 200 ms, every sender is blocked.
	for n, still := sent.Load(), 0; still < 4; {
		time.Sleep(50 * time.Millisecond)
		if m := sent.Load(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	select {
	case err := <-errs:
		t.Fatalf("a sender failed before the connection was taken away: %v", err)
	default:
	}

	if closeEndpoint {
		ep.Close()
	} else {
		peer.Close()
	}
	deadline := time.After(2 * time.Second)
	for g := 0; g < senders; g++ {
		select {
		case err := <-errs:
			if closeEndpoint && !errors.Is(err, ErrClosed) {
				t.Errorf("sender returned %v, want ErrClosed", err)
			}
		case <-deadline:
			t.Fatalf("%d of %d senders still blocked 2 s after the connection went", senders-g, senders)
		}
	}
}
