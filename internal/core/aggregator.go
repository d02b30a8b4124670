package core

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"github.com/dpx10/dpx10/internal/dag"
)

// aggregator is the one path a finished vertex's cross-place tile-counter
// decrements take: it coalesces them into one kindDecrBatch message per
// destination. With value push enabled, each record also carries the
// finished source vertex's encoded value so the receiver can serve
// downstream dependency reads from its cache instead of issuing a
// kindFetch round-trip.
//
// Flushing is self-clocked, and the producers are the only clock. Every
// producer kicks the flusher goroutine at the end of its scheduling
// quantum — a tile walk, a single-cell tile, a handler-origin completion —
// and the flusher sends every open buffer, again and again, until nothing
// is pending. A batch is therefore whatever accumulated while the previous
// send was on the wire: one record when the link is idle, hundreds when it
// is busy. Workers never send, except inline when one destination's buffer
// reaches maxRecs records (the memory cap; at maxRecs = 1 that is every
// record, one message per finished vertex per destination). There is no
// timer behind the kicks: a producer path that forgot to kick would hang
// the run, which any test catches, instead of stalling it silently.
//
// One aggregator belongs to one epochState and inherits its lifecycle:
// its buffered records are stamped with the epoch at creation, its flusher
// goroutine exits when the epoch's quit channel closes, and handlePause
// drains it after the workers quiesce. Records still buffered when an
// epoch is torn down are equivalent to in-flight messages that would be
// dropped as stale — the recovery's decrement replay regenerates them.
type aggregator[T any] struct {
	pe      *placeEngine[T]
	epoch   uint64
	push    bool
	maxRecs int

	// pending counts buffered records so kick and the flusher's drain loop
	// stay lock-free; kicked holds at most one undelivered wake-up.
	pending atomic.Int64
	kicked  chan struct{}
	done    chan struct{} // closed when the flusher goroutine has exited

	mu        sync.Mutex
	bufs      []aggBuf // per destination place
	free      [][]byte // retired message buffers, ready for reuse
	freeBytes int      // total capacity retained in free
}

// The free list is bounded in bytes, not just entries: one run with huge
// pushed values (or a pathological pattern fanout) would otherwise leave
// every retired buffer at its high-water capacity for the rest of the
// epoch. Buffers over aggFreeBufMax go back to the GC instead of the
// list, and the list as a whole retains at most aggFreeTotalMax.
const (
	aggFreeBufMax   = 1 << 20 // largest single buffer worth keeping
	aggFreeTotalMax = 4 << 20 // total bytes the free list may pin
)

// aggBuf is one destination's open message: the incrementally built
// kindDecrBatch payload, the record count backpatched at flush, and the
// last record's source id, which the next record's delta is taken from.
//
// A record that carries no value needs its source only as the base its
// targets are coded against, so a finished vertex's targets join the record
// before them for as long as that keeps every delta in one byte (joins): the
// last row of a tile, whose cells finish one after another, leaves as a
// record per 63 cells rather than a head and a source for each — what keeps
// a place boundary crossed strip by strip, some of it for a place that then
// dies, no dearer in bytes than one crossed in a piece.
type aggBuf struct {
	msg  []byte
	adds uint32       // finished vertices folded in: what the flush cap and the stats count
	recs uint32       // records in msg
	prev dag.VertexID // source of the last record
	head int          // index of the last record's head byte while targets may still join it, else 0
}

// joins reports whether targets can be appended to b's last record.
func (b *aggBuf) joins(targets []dag.VertexID) bool {
	if b.head == 0 || int(b.msg[b.head]>>decrCountShift)+len(targets) >= decrCountEsc {
		return false
	}
	for _, t := range targets {
		if di, dj := t.I-b.prev.I, t.J-b.prev.J; di < -64 || di > 63 || dj < -64 || dj > 63 {
			return false
		}
	}
	return true
}

func newAggregator[T any](pe *placeEngine[T], epoch uint64) *aggregator[T] {
	return &aggregator[T]{
		pe: pe, epoch: epoch,
		// Pushing a value only helps if the receiver has a cache to hold it.
		push:    !pe.cfg.PushDisabled && pe.cfg.CacheSize > 0,
		maxRecs: pe.cfg.AggMaxBatch,
		kicked:  make(chan struct{}, 1),
		done:    make(chan struct{}),
		bufs:    make([]aggBuf, pe.cfg.Places),
	}
}

// add buffers one record: src finished, decrement targets at dest. Flushes
// dest's buffer inline once it holds maxRecs records.
func (ag *aggregator[T]) add(dest int, src dag.VertexID, value T, targets []dag.VertexID) {
	ag.mu.Lock()
	b := &ag.bufs[dest]
	if len(b.msg) == 0 {
		if n := len(ag.free); n > 0 {
			b.msg = ag.free[n-1][:0]
			ag.free[n-1] = nil
			ag.free = ag.free[:n-1]
			ag.freeBytes -= cap(b.msg)
		}
		b.msg = putU32(putU64(b.msg, ag.epoch), 0) // count backpatched at flush
	}
	if b.joins(targets) {
		for _, t := range targets {
			b.msg = putIDDelta(b.msg, b.prev, t)
		}
		b.msg[b.head] += uint8(len(targets)) << decrCountShift
	} else {
		b.head = 0
		if !ag.push && len(targets) < decrCountEsc {
			b.head = len(b.msg)
		}
		b.msg = appendDecrRecord(b.msg, ag.pe.cfg.Codec, b.prev, src, value, ag.push, targets)
		b.prev = src
		b.recs++
	}
	b.adds++
	ag.pending.Add(1)
	if ag.push {
		ag.pe.valuesPushed.Add(1)
	}
	var msg []byte
	if int(b.adds) >= ag.maxRecs {
		msg = ag.takeLocked(dest)
	}
	ag.mu.Unlock()
	if msg != nil {
		ag.send(dest, msg)
	}
}

// takeLocked finalizes and detaches dest's open message. Caller holds mu.
func (ag *aggregator[T]) takeLocked(dest int) []byte {
	b := &ag.bufs[dest]
	if b.adds == 0 {
		return nil
	}
	binary.LittleEndian.PutUint32(b.msg[8:12], b.recs)
	msg := b.msg
	ag.pending.Add(-int64(b.adds))
	ag.pe.aggBatches.Add(1)
	ag.pe.decrsCoalesced.Add(int64(b.adds))
	if tc := ag.pe.cfg.Trace; tc != nil {
		tc.AddAggFlush(ag.pe.self, int64(b.adds))
	}
	*b = aggBuf{}
	return msg
}

// send puts one finalized message on the wire and recycles its buffer.
// Recycling is safe because Send does not return until the payload is off
// this side: the local fabric copies it into a pooled buffer up front, and
// the TCP pipeline parks the sender until the writer has flushed the frame
// to the socket (group commit) — either way the buffer is ours again here.
func (ag *aggregator[T]) send(dest int, msg []byte) {
	if err := ag.pe.tr.Send(dest, kindDecrBatch, msg); err != nil {
		ag.pe.peerError(dest, err)
	}
	ag.recycle(msg)
}

// recycle offers a retired message buffer back to the free list, subject
// to the byte caps above.
func (ag *aggregator[T]) recycle(msg []byte) {
	if cap(msg) > aggFreeBufMax {
		return // oversized: let the GC have it
	}
	ag.mu.Lock()
	if len(ag.free) < len(ag.bufs) && ag.freeBytes+cap(msg) <= aggFreeTotalMax {
		ag.free = append(ag.free, msg)
		ag.freeBytes += cap(msg)
	}
	ag.mu.Unlock()
}

// kick wakes the flusher if anything is buffered. Producers call it at the
// end of a scheduling quantum; it never blocks and never sends.
func (ag *aggregator[T]) kick() {
	if ag.pending.Load() == 0 {
		return
	}
	select {
	case ag.kicked <- struct{}{}:
	default: // a wake-up is already queued; the flusher will see our records
	}
}

// flushAll sends every open buffer, one destination at a time. Called by
// the flusher and by handlePause, which drains the epoch before recovery
// rebuilds state.
func (ag *aggregator[T]) flushAll() {
	for d := range ag.bufs {
		if ag.pending.Load() == 0 {
			return
		}
		ag.mu.Lock()
		msg := ag.takeLocked(d)
		ag.mu.Unlock()
		if msg != nil {
			ag.send(d, msg)
		}
	}
}

// loop is the flusher: each kick drains the buffers until nothing is
// pending, so records that arrive while a send is on the wire leave with
// the next one.
func (ag *aggregator[T]) loop(quit <-chan struct{}) {
	defer close(ag.done)
	for {
		select {
		case <-quit:
			return
		case <-ag.pe.stopCh:
			return
		case <-ag.kicked:
		}
		for ag.pending.Load() > 0 {
			ag.flushAll()
		}
	}
}
