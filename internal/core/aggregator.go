package core

import (
	"sync"
	"sync/atomic"
)

// aggregator is the one path cross-place tile-counter decrements take: each
// unit's settlement for a place (place.go: settle) becomes one record, and
// the records coalesce into one kindDecrBatch message per destination. With
// value push enabled, each tile entry of a record also carries the values of
// the unit's cells that the tile reads, as runs of this place's local
// offsets; the receiver deposits them in that tile's box (boxes.go), where
// the tile's halo step finds them instead of issuing kindFetch round-trips.
// Push is on when Config.CacheSize > 0 and PushDisabled is not set; what the
// receiver keeps is bounded by its own cell count, not by CacheSize.
//
// Flushing is self-clocked, and the producers are the only clock. Every
// unit kicks the flusher goroutine when it settles, at the end of its
// scheduling quantum, and the flusher sends every open buffer, again and
// again, until nothing is pending. A batch is therefore whatever
// accumulated while the previous send was on the wire: one record when the
// link is idle, hundreds when it is busy. Workers never send, except inline
// when one destination's buffer reaches maxRecs records or aggMaxBytes
// bytes (the memory cap; at maxRecs = 1 that is every record, one message
// per unit per destination, and at tile size 1 a unit is one vertex). There
// is no timer behind the kicks: a producer path that forgot to kick would hang
// the run, which any test catches, instead of stalling it silently.
//
// One aggregator belongs to one epochState and inherits its lifecycle:
// its buffered records are stamped with the epoch at creation, its flusher
// goroutine exits when the epoch's quit channel closes. Records still
// buffered when an epoch is torn down are equivalent to in-flight messages
// that would be dropped as stale — the recovery's decrement replay
// regenerates them.
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

// aggMaxBytes is the size at which an open message leaves inline whatever
// its record count: one record holds up to a whole tile's pushed values, so
// the record cap alone would bound neither the buffer nor the receiver's
// decode of it.
const aggMaxBytes = 4 << 10

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
// kindDecrBatch payload, its record count, backpatched at flush, and where
// its last pushed run ended, which the next run's Δoff is taken from.
type aggBuf struct {
	msg  []byte
	recs uint32 // settlements folded in: what the flush cap and the stats count
	end  uint32 // off + n of the last run in msg
}

func newAggregator[T any](pe *placeEngine[T], epoch uint64) *aggregator[T] {
	return &aggregator[T]{
		pe: pe, epoch: epoch,
		// CacheSize 0 turns value push off with the vertex cache; the
		// receiver's own cell count bounds what it pins (boxes.go).
		push:    !pe.cfg.PushDisabled && pe.cfg.CacheSize > 0,
		maxRecs: pe.cfg.AggMaxBatch,
		kicked:  make(chan struct{}, 1),
		done:    make(chan struct{}),
		bufs:    make([]aggBuf, pe.cfg.Places),
	}
}

// add buffers one unit's settlement for dest as one record. Flushes dest's
// buffer inline once it holds maxRecs records or aggMaxBytes bytes.
func (ag *aggregator[T]) add(dest int, s *settlement[T]) {
	ag.mu.Lock()
	b := &ag.bufs[dest]
	if len(b.msg) == 0 {
		if n := len(ag.free); n > 0 {
			b.msg = ag.free[n-1][:0]
			ag.free[n-1] = nil
			ag.free = ag.free[:n-1]
			ag.freeBytes -= cap(b.msg)
		}
		b.msg = beginDecrBatch(b.msg, ag.epoch)
	}
	b.msg, b.end = appendDecrRecord(b.msg, ag.pe.cfg.Codec, b.end, s.tiles, s.vals)
	if ag.push {
		n := 0
		for k := range s.vals {
			n += len(s.vals[k].vals)
		}
		ag.pe.valuesPushed.Add(int64(n))
	}
	b.recs++
	ag.pending.Add(1)
	var msg []byte
	if int(b.recs) >= ag.maxRecs || len(b.msg) >= aggMaxBytes {
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
	if b.recs == 0 {
		return nil
	}
	finishDecrBatch(b.msg, b.recs)
	msg := b.msg
	ag.pending.Add(-int64(b.recs))
	ag.pe.aggBatches.Add(1)
	ag.pe.decrsCoalesced.Add(int64(b.recs))
	*b = aggBuf{}
	return msg
}

// send puts one finalized message on the wire and recycles its buffer.
// Recycling is safe because Send does not return until the payload is off
// this side: the local fabric copies it into a pooled buffer up front, and
// a TCP send writes the frame to the socket itself, under the connection's
// write lock — either way the buffer is ours again here.
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

// loop is the flusher: each kick drains the buffers, one destination at a
// time, until nothing is pending, so records that arrive while a send is on
// the wire leave with the next one.
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
			for d := 0; d < len(ag.bufs) && ag.pending.Load() > 0; d++ {
				ag.mu.Lock()
				msg := ag.takeLocked(d)
				ag.mu.Unlock()
				if msg != nil {
					ag.send(d, msg)
				}
			}
		}
	}
}
