package transport

import (
	"encoding/binary"
	"hash/crc32"
	"net"
	"sync"
)

// TCPOptions tunes the data plane of a TCP endpoint. The zero value is the
// pipelined default: batched writev framing.
type TCPOptions struct {
	// NoPipeline disables the per-peer send pipeline: every frame is
	// written directly under a per-connection mutex, one header+payload
	// write pair per message, exactly the pre-pipeline wire dialect (no
	// preamble, no batches). Peers in either mode interoperate — the
	// preamble marks the dialect per connection.
	NoPipeline bool
}

// PipeObserver receives data-plane events from a TCP endpoint's send
// pipeline; the node layer uses it to feed metrics histograms without the
// transport importing the metrics package. Set it before any traffic.
// Callbacks run on writer goroutines and must not block.
type PipeObserver struct {
	// Flush observes one writev batch: how many frames it carried and
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
// frame flushed; the writer swaps the whole queue out, packs it into one
// net.Buffers writev — headers from a per-connection arena, payloads
// referenced in place — and broadcasts completion. Batching is emergent:
// while one writev is in flight, every new sender parks in the queue, and
// the next swap takes them all at once.
type tcpConn struct {
	c net.Conn

	mu      sync.Mutex
	cond    *sync.Cond
	q       []outFrame
	enq     uint64 // frames ever queued
	flushed uint64 // frames confirmed on the wire
	werr    error  // sticky pipeline error; set once, with down
	down    bool

	// Writer-owned state; no locking (single writer goroutine). In
	// NoPipeline mode mu serializes direct writes instead and none of
	// this is used.
	features     uint64
	preambleSent bool
	hdr          []byte
	spans        []span
	iov          net.Buffers
	free         []outFrame // previous batch, payloads already nilled
}

// span marks a region of the writer's header arena, recorded as offsets
// because the arena may reallocate while the batch is being assembled.
type span struct{ off, end int }

func newTCPConn(c net.Conn, opts *TCPOptions) *tcpConn {
	tc := &tcpConn{c: c}
	tc.cond = sync.NewCond(&tc.mu)
	if !opts.NoPipeline {
		tc.features = featBatch
	}
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
// queued, pack it into one vectored write, confirm, repeat. It exits when
// the pipeline is shut down (connection drop or endpoint close).
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

// flush writes one batch as a single vectored write: [preamble] plus
// either one classic frame or a multi-frame batch envelope. Headers live
// in the connection's arena; payloads are referenced where the senders
// put them, never copied. Returns the wire size written.
func (tc *tcpConn) flush(t *TCP, batch []outFrame) (int, error) {
	tc.hdr = tc.hdr[:0]
	tc.spans = tc.spans[:0]
	iov := tc.iov[:0]

	// Header arena first, then iovec assembly from stable offsets.
	preamble := span{-1, -1}
	if !tc.preambleSent && tc.features != 0 {
		s := len(tc.hdr)
		tc.hdr = putFrameHeader(tc.hdr, 0, flagControl, t.self, tc.features, 0, 0)
		preamble = span{s, len(tc.hdr)}
		tc.preambleSent = true
	}
	outer := span{-1, -1}
	if len(batch) == 1 {
		f := &batch[0]
		crc := crc32.Checksum(f.payload, crcTable)
		s := len(tc.hdr)
		tc.hdr = putFrameHeader(tc.hdr, f.kind, f.flags, t.self, f.seq, len(f.payload), crc)
		outer = span{s, len(tc.hdr)}
	} else {
		total := 0
		for i := range batch {
			total += subHeaderLen + len(batch[i].payload)
		}
		s := len(tc.hdr)
		tc.hdr = putFrameHeader(tc.hdr, 0, flagBatch, t.self, uint64(len(batch)), total, 0)
		outer = span{s, len(tc.hdr)}
		crc := uint32(0)
		for i := range batch {
			f := &batch[i]
			hs := len(tc.hdr)
			tc.hdr = putSubHeader(tc.hdr, f.kind, f.flags, f.seq, len(f.payload))
			tc.spans = append(tc.spans, span{hs, len(tc.hdr)})
			crc = crc32.Update(crc, crcTable, tc.hdr[hs:len(tc.hdr)])
			crc = crc32.Update(crc, crcTable, f.payload)
		}
		binary.LittleEndian.PutUint32(tc.hdr[outer.off+18:outer.off+22], crc)
	}

	// The arena is final; build the iovec list.
	wire := 0
	add := func(b []byte) {
		if len(b) > 0 {
			iov = append(iov, b)
			wire += len(b)
		}
	}
	if preamble.off >= 0 {
		add(tc.hdr[preamble.off:preamble.end])
	}
	add(tc.hdr[outer.off:outer.end])
	for i := range batch {
		if len(batch) > 1 {
			sp := tc.spans[i]
			add(tc.hdr[sp.off:sp.end])
		}
		add(batch[i].payload)
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
