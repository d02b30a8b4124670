package transport

import (
	"hash/crc32"
	"net"
	"sync"
)

// TCPOptions is empty: the data plane has one implementation and nothing
// selects it.
//
// Deprecated: kept only because the benchmark module names it; goes with
// the next benchmark revision.
type TCPOptions struct{}

// PipeObserver receives data-plane events from a TCP endpoint's send
// pipeline; the node layer uses it to feed metrics histograms without the
// transport importing the metrics package. Set it before any traffic.
// Callbacks run on writer goroutines and must not block.
type PipeObserver struct {
	// Flush observes one vectored write: how many frames it carried and
	// its total wire size.
	Flush func(frames, wireBytes int)
}

// outFrame is one queued outbound frame. The payload slice is the
// sender's own buffer — never copied; the sender blocks until the writer
// has flushed the frame, so the buffer is free for reuse the moment Send
// or Call returns (group commit).
type outFrame struct {
	kind, flags uint8
	seq         uint64
	payload     []byte
}

// tcpConn is one established connection and its send pipeline.
//
// Exactly one side writes to any given connection (each endpoint dials
// its own conn for outbound traffic, including Call responses), so the
// writer goroutine is the connection's single writer. Senders append to
// the queue under mu and wait on cond until the writer reports their
// frame flushed; the writer swaps the whole queue out, writes it as
// back-to-back frames in one net.Buffers writev — headers from a
// per-connection arena, payloads referenced in place — and broadcasts
// completion. Coalescing is emergent: while one writev is in flight,
// every new sender parks in the queue, and the next swap takes them all.
type tcpConn struct {
	c net.Conn

	mu      sync.Mutex
	cond    *sync.Cond
	q       []outFrame
	enq     uint64 // frames ever queued
	flushed uint64 // frames confirmed on the wire
	werr    error  // sticky pipeline error; set once, with down
	down    bool

	// Writer-owned state; no locking (single writer goroutine).
	hdr  []byte
	iov  net.Buffers
	free []outFrame // previous swap, payloads already nilled
}

func newTCPConn(c net.Conn) *tcpConn {
	tc := &tcpConn{c: c}
	tc.cond = sync.NewCond(&tc.mu)
	return tc
}

// enqueue hands one frame to the writer and blocks until it has been
// flushed to the socket (or the pipeline died). On return the payload
// buffer is no longer referenced by the transport.
func (tc *tcpConn) enqueue(kind, flags uint8, seq uint64, payload []byte) error {
	tc.mu.Lock()
	if tc.down {
		err := tc.werr
		tc.mu.Unlock()
		return err
	}
	ticket := tc.enq
	tc.enq++
	tc.q = append(tc.q, outFrame{kind: kind, flags: flags, seq: seq, payload: payload})
	tc.cond.Broadcast() // wake the writer (and no one else is waiting on this ticket yet)
	for tc.flushed <= ticket && !tc.down {
		tc.cond.Wait()
	}
	var err error
	if tc.flushed <= ticket {
		err = tc.werr
	}
	tc.mu.Unlock()
	return err
}

// shutdown kills the pipeline: the writer exits, parked senders fail with
// err, future enqueues fail immediately. Idempotent.
func (tc *tcpConn) shutdown(err error) {
	tc.mu.Lock()
	if !tc.down {
		tc.down = true
		tc.werr = err
	}
	tc.cond.Broadcast()
	tc.mu.Unlock()
}

// writeLoop is the connection's writer goroutine: swap out everything
// queued, put it on the wire in one vectored write, confirm, repeat. It
// exits when the pipeline is shut down (connection drop or endpoint close).
func (t *TCP) writeLoop(tc *tcpConn) {
	for {
		tc.mu.Lock()
		for len(tc.q) == 0 && !tc.down {
			tc.cond.Wait()
		}
		if tc.down {
			tc.mu.Unlock()
			return
		}
		batch := tc.q
		tc.q = tc.free[:0]
		tc.mu.Unlock()

		wire, err := tc.flush(t, batch)
		if err == nil {
			t.stats.WriteCalls.Add(1)
			t.stats.FramesOut.Add(int64(len(batch)))
			t.stats.WireBytesOut.Add(int64(wire))
			if f := t.obs.Flush; f != nil {
				f(len(batch), wire)
			}
		}

		// Drop payload references before confirming: once flushed is
		// advanced the senders will reuse those buffers.
		for i := range batch {
			batch[i].payload = nil
		}
		tc.free = batch

		tc.mu.Lock()
		tc.flushed += uint64(len(batch))
		if err != nil && !tc.down {
			tc.down = true
			tc.werr = err
		}
		tc.cond.Broadcast()
		tc.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// flush writes one swap of the queue as a single vectored write of
// back-to-back frames. Headers live in the connection's arena; payloads
// are referenced where the senders put them, never copied. Returns the
// wire size written.
func (tc *tcpConn) flush(t *TCP, batch []outFrame) (int, error) {
	// Sized up front: the iovecs below point into the arena, so it must
	// not reallocate while they are being assembled.
	if need := len(batch) * frameHeaderLen; cap(tc.hdr) < need {
		tc.hdr = make([]byte, 0, need)
	}
	hdr := tc.hdr[:0]
	iov := tc.iov[:0]
	wire := 0
	for i := range batch {
		f := &batch[i]
		s := len(hdr)
		hdr = putFrameHeader(hdr, f.kind, f.flags, t.self, f.seq, len(f.payload), crc32.ChecksumIEEE(f.payload))
		iov = append(iov, hdr[s:])
		if len(f.payload) > 0 {
			iov = append(iov, f.payload)
		}
		wire += frameHeaderLen + len(f.payload)
	}

	arena := iov
	_, err := iov.WriteTo(tc.c) // WriteTo consumes iov; arena keeps the backing array
	full := arena[:cap(arena)]
	for i := range full {
		full[i] = nil // drop payload references so senders' buffers aren't pinned
	}
	tc.iov = full[:0]
	return wire, err
}
