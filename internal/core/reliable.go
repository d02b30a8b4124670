package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/transport"
)

// reliableTransport implements the chaos-hardened delivery stack over any
// transport.Transport (tentpole #3): sequence-numbered envelopes, send-side
// retry with exponential backoff + jitter on transient failures, and
// receiver-side duplicate suppression, so dropped, duplicated or replayed
// messages neither deadlock the run nor corrupt tile counters.
//
// Tracked one-way sends are converted into acknowledged calls: a silently
// lost decrement has no timeout-replay path in the engine, so loss must be
// observable at the sender. The call reply doubles as the ack.
//
// Retry policy: transport.ErrUnreachable is transient and retried with
// capped exponential backoff; every other error (dead place, stale epoch,
// handler failure) is permanent and returned as-is. When RetryMax attempts
// are exhausted the destination is marked dead at the transport and
// ErrDeadPlace is returned — persistent unreachability converges to the
// same recovery path a crash takes. With RetryMax 0 the sender retries
// until the destination is declared dead by the failure detector or the
// transport closes; injected faults are probabilistic and partitions are
// bounded windows, so this terminates.
type reliableTransport struct {
	transport.Transport // inner endpoint (possibly a FaultFabric)

	retryMax      int
	retryBase     time.Duration
	retryMaxDelay time.Duration
	abortCh       <-chan struct{} // run abort: retry loops exit promptly

	seq atomic.Uint64 // sender-side sequence numbers, one stream per place

	mu   sync.Mutex
	recv map[int]*senderWindow // duplicate-suppression state per sender

	retries   atomic.Int64 // resends after transient failures
	dedupHits atomic.Int64 // duplicate deliveries suppressed

	// Metrics mirrors of the two counters above (nil no-ops when metrics
	// are off); the atomics stay authoritative for Stats.
	mRetries *metrics.Counter
	mDedup   *metrics.Counter
}

// dedupWindow bounds how far behind a sender's highest seen sequence a
// completed entry is remembered. A duplicate can only trail its original
// by the sender's in-flight concurrency (worker pool + flusher + control
// plane — tens, not thousands), so 4096 is generous.
const dedupWindow = 4096

// senderWindow is the per-sender duplicate-suppression state.
type senderWindow struct {
	entries map[uint64]*deliveryEntry
	maxSeen uint64
}

// deliveryEntry records one (sender, seq) execution. Concurrent duplicates
// arriving while the first execution is still running wait on done and
// return the cached outcome, so a replayed rebuild or decrement batch never
// executes twice — not even overlapped with itself.
type deliveryEntry struct {
	done  chan struct{}
	reply []byte
	err   error
}

func newReliableTransport(inner transport.Transport, cfg *Common, abortCh <-chan struct{}, reg *metrics.Registry) *reliableTransport {
	return &reliableTransport{
		Transport:     inner,
		retryMax:      cfg.RetryMax,
		retryBase:     cfg.RetryBase,
		retryMaxDelay: cfg.RetryMaxDelay,
		abortCh:       abortCh,
		recv:          make(map[int]*senderWindow),
		mRetries:      reg.Counter(metrics.TransportRetriesID),
		mDedup:        reg.Counter(metrics.TransportDedupDropsID),
	}
}

// MarkDead forwards a failure verdict to the inner transport.
func (rt *reliableTransport) MarkDead(p int) {
	if md, ok := rt.Transport.(interface{ MarkDead(int) }); ok {
		md.MarkDead(p)
	}
}

// Send delivers a tracked one-way message as an acknowledged call;
// untracked kinds pass through unchanged.
func (rt *reliableTransport) Send(to int, kind uint8, payload []byte) error {
	if !reliableKind[kind] {
		return rt.Transport.Send(to, kind, payload)
	}
	_, err := rt.Call(to, kind, payload)
	return err
}

// Call wraps the payload in a sequence envelope and retries transient
// failures. Retries reuse the sequence number — that is what lets the
// receiver recognize the resend of a request whose reply was lost.
func (rt *reliableTransport) Call(to int, kind uint8, payload []byte) ([]byte, error) {
	if !reliableKind[kind] {
		return rt.Transport.Call(to, kind, payload)
	}
	seq := rt.seq.Add(1)
	buf := envelopes.Get().(*[]byte)
	defer envelopes.Put(buf)
	*buf = appendEnvelope((*buf)[:0], seq, payload)
	env := *buf
	delay := rt.retryBase
	for attempt := 1; ; attempt++ {
		reply, err := rt.Transport.Call(to, kind, env)
		if !errors.Is(err, transport.ErrUnreachable) {
			return reply, err
		}
		if rt.retryMax > 0 && attempt >= rt.retryMax {
			rt.MarkDead(to)
			return nil, transport.ErrDeadPlace
		}
		rt.retries.Add(1)
		rt.mRetries.Inc(-1)
		// Deterministic jitter in [0.5, 1.5): hash the (seq, attempt) pair
		// instead of keeping locked RNG state on the hot path.
		j := 0.5 + unitMix(seq^uint64(attempt)<<32^uint64(to))
		sleep := time.Duration(float64(delay) * j)
		t := time.NewTimer(sleep)
		select {
		case <-t.C:
		case <-rt.abortCh:
			t.Stop()
			return nil, ErrCanceled
		}
		if delay < rt.retryMaxDelay {
			delay *= 2
			if delay > rt.retryMaxDelay {
				delay = rt.retryMaxDelay
			}
		}
	}
}

// Handle registers h behind the duplicate-suppression wrapper for tracked
// kinds; untracked kinds register raw.
func (rt *reliableTransport) Handle(kind uint8, h transport.Handler) {
	if !reliableKind[kind] {
		rt.Transport.Handle(kind, h)
		return
	}
	rt.Transport.Handle(kind, rt.dedup(h))
}

// dedup executes h at most once per (sender, seq): later duplicates — and
// concurrent ones — get the first execution's cached reply and error.
func (rt *reliableTransport) dedup(h transport.Handler) transport.Handler {
	return func(from int, payload []byte) ([]byte, error) {
		seq, body, err := splitEnvelope(payload)
		if err != nil {
			return nil, err
		}
		e, first := rt.claim(from, seq)
		if !first {
			rt.dedupHits.Add(1)
			rt.mDedup.Inc(-1)
			<-e.done
			return cloneReply(e.reply), e.err
		}
		reply, herr := h(from, body)
		e.reply, e.err = cloneReply(reply), herr
		close(e.done)
		rt.prune(from)
		//dpx10:allow placeleak reply comes from the wrapped handler, which itself honors the no-alias contract; body is never returned
		return reply, herr
	}
}

// claim registers (from, seq); reports whether this delivery is the first.
func (rt *reliableTransport) claim(from int, seq uint64) (*deliveryEntry, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	w := rt.recv[from]
	if w == nil {
		w = &senderWindow{entries: make(map[uint64]*deliveryEntry)}
		rt.recv[from] = w
	}
	if e, ok := w.entries[seq]; ok {
		return e, false
	}
	e := &deliveryEntry{done: make(chan struct{})}
	w.entries[seq] = e
	if seq > w.maxSeen {
		w.maxSeen = seq
	}
	return e, true
}

// prune drops completed entries that have fallen out of the dedup window.
// In-flight entries (done not yet closed) are always kept.
func (rt *reliableTransport) prune(from int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	w := rt.recv[from]
	if w == nil || len(w.entries) <= 2*dedupWindow {
		return
	}
	for seq, e := range w.entries {
		if seq+dedupWindow >= w.maxSeen {
			continue
		}
		select {
		case <-e.done:
			delete(w.entries, seq)
		default:
		}
	}
}

// cloneReply copies a cached reply so neither side aliases the other's
// buffer (the transport boundary already isolates payloads; the cache must
// do the same for replies it hands to multiple callers).
func cloneReply(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	c := make([]byte, len(b))
	copy(c, b)
	return c
}

// unitMix maps x to [0, 1) via the splitmix64 finalizer (same construction
// as the transport fault plan's decision hash).
func unitMix(x uint64) float64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
