package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/transport"
)

func testCommon(retryMax int) *Common {
	return &Common{
		RetryMax:      retryMax,
		RetryBase:     50 * time.Microsecond,
		RetryMaxDelay: time.Millisecond,
	}
}

// flakyTransport fails the first `failures` tracked Calls with
// ErrUnreachable, then delegates. It records MarkDead verdicts.
type flakyTransport struct {
	transport.Transport
	failures atomic.Int64
	dead     atomic.Int64 // place id of the last MarkDead + 1; 0 = none
}

func (f *flakyTransport) Call(to int, kind uint8, payload []byte) ([]byte, error) {
	if f.failures.Add(-1) >= 0 {
		return nil, transport.ErrUnreachable
	}
	return f.Transport.Call(to, kind, payload)
}

func (f *flakyTransport) MarkDead(p int) { f.dead.Store(int64(p) + 1) }

// reliablePair builds two reliable endpoints over a fresh 2-place fabric,
// with endpoint 0's outbound calls routed through a flaky layer.
func reliablePair(t *testing.T, failures int64, retryMax int) (*reliableTransport, *reliableTransport, *flakyTransport) {
	t.Helper()
	fabric := transport.NewLocalFabric(2)
	t.Cleanup(func() { fabric.Close() })
	abort := make(chan struct{})
	t.Cleanup(func() { close(abort) })
	flaky := &flakyTransport{Transport: fabric.Endpoint(0)}
	flaky.failures.Store(failures)
	sender := newReliableTransport(flaky, testCommon(retryMax), abort, nil)
	receiver := newReliableTransport(fabric.Endpoint(1), testCommon(retryMax), abort, nil)
	return sender, receiver, flaky
}

func TestReliableRetriesTransientFailures(t *testing.T) {
	sender, receiver, _ := reliablePair(t, 3, 0)
	var calls atomic.Int64
	receiver.Handle(kindDecrBatch, func(_ int, payload []byte) ([]byte, error) {
		calls.Add(1)
		return []byte{42}, nil
	})
	reply, err := sender.Call(1, kindDecrBatch, []byte("payload"))
	if err != nil {
		t.Fatalf("Call after transient failures: %v", err)
	}
	if len(reply) != 1 || reply[0] != 42 {
		t.Fatalf("reply = %v, want [42]", reply)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("handler executed %d times, want 1", got)
	}
	if got := sender.retries.Load(); got != 3 {
		t.Fatalf("retries = %d, want 3", got)
	}
}

func TestReliableSendBecomesAckedCall(t *testing.T) {
	sender, receiver, _ := reliablePair(t, 2, 0)
	got := make(chan []byte, 1)
	receiver.Handle(kindDecrBatch, func(_ int, payload []byte) ([]byte, error) {
		body := make([]byte, len(payload))
		copy(body, payload)
		got <- body
		return nil, nil
	})
	// A tracked one-way send survives transient loss: without the ack
	// upgrade the two dropped attempts would silently lose the decrement.
	if err := sender.Send(1, kindDecrBatch, []byte("decr")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if body := <-got; string(body) != "decr" {
		t.Fatalf("delivered body %q, want %q", body, "decr")
	}
}

func TestReliableRetryExhaustionMarksDead(t *testing.T) {
	sender, receiver, flaky := reliablePair(t, 1<<30, 4)
	receiver.Handle(kindDecrBatch, func(int, []byte) ([]byte, error) { return nil, nil })
	_, err := sender.Call(1, kindDecrBatch, []byte("x"))
	if !errors.Is(err, transport.ErrDeadPlace) {
		t.Fatalf("err = %v, want ErrDeadPlace", err)
	}
	if got := flaky.dead.Load(); got != 2 { // place 1 + 1
		t.Fatalf("MarkDead target = %d, want place 1", got-1)
	}
	if got := sender.retries.Load(); got != 3 {
		t.Fatalf("retries = %d, want 3 (4 attempts)", got)
	}
}

func TestReliablePermanentErrorsNotRetried(t *testing.T) {
	sender, receiver, _ := reliablePair(t, 0, 0)
	handlerErr := errors.New("handler rejected")
	receiver.Handle(kindDecrBatch, func(int, []byte) ([]byte, error) { return nil, handlerErr })
	if _, err := sender.Call(1, kindDecrBatch, nil); err == nil {
		t.Fatal("handler error swallowed")
	}
	if got := sender.retries.Load(); got != 0 {
		t.Fatalf("permanent error retried %d times", got)
	}
}

func TestReliableUntrackedKindsPassThrough(t *testing.T) {
	sender, receiver, _ := reliablePair(t, 0, 0)
	receiver.Handle(kindPing, func(_ int, payload []byte) ([]byte, error) {
		// An envelope would add 8 bytes; pass-through must deliver verbatim.
		if len(payload) != 3 {
			t.Errorf("ping payload length %d, want 3", len(payload))
		}
		return append([]byte(nil), payload...), nil
	})
	if _, err := sender.Call(1, kindPing, []byte{1, 2, 3}); err != nil {
		t.Fatalf("ping: %v", err)
	}
}

func TestReliableDedupSuppressesReplay(t *testing.T) {
	fabric := transport.NewLocalFabric(2)
	defer fabric.Close()
	abort := make(chan struct{})
	defer close(abort)
	receiver := newReliableTransport(fabric.Endpoint(1), testCommon(0), abort, nil)
	var execs atomic.Int64
	receiver.Handle(kindDecrBatch, func(_ int, payload []byte) ([]byte, error) {
		execs.Add(1)
		return []byte{7}, nil
	})
	// Replay the exact wire bytes a retrying sender would resend: same
	// sequence number, same body.
	raw := fabric.Endpoint(0)
	env := appendEnvelope(nil, 99, []byte("batch"))
	for i := 0; i < 3; i++ {
		reply, err := raw.Call(1, kindDecrBatch, env)
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if len(reply) != 1 || reply[0] != 7 {
			t.Fatalf("replay %d: reply %v, want cached [7]", i, reply)
		}
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("handler executed %d times for one sequence number, want 1", got)
	}
	if got := receiver.dedupHits.Load(); got != 2 {
		t.Fatalf("dedupHits = %d, want 2", got)
	}
}

func TestReliableDedupConcurrentDuplicates(t *testing.T) {
	fabric := transport.NewLocalFabric(2)
	defer fabric.Close()
	abort := make(chan struct{})
	defer close(abort)
	receiver := newReliableTransport(fabric.Endpoint(1), testCommon(0), abort, nil)
	var execs atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	receiver.Handle(kindRebuild, func(int, []byte) ([]byte, error) {
		execs.Add(1)
		close(entered)
		<-release
		return []byte{1}, nil
	})
	raw := fabric.Endpoint(0)
	env := appendEnvelope(nil, 7, nil)
	var wg sync.WaitGroup
	replies := make([][]byte, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i], _ = raw.Call(1, kindRebuild, env)
		}(i)
	}
	// The duplicate that lost the claim race must block on the first
	// execution rather than running the handler a second time.
	<-entered
	time.Sleep(2 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Fatalf("handler executed %d times under concurrent duplicates, want 1", got)
	}
	for i, r := range replies {
		if len(r) != 1 || r[0] != 1 {
			t.Fatalf("caller %d reply %v, want [1]", i, r)
		}
	}
}

func TestReliableDedupRejectsTruncatedEnvelope(t *testing.T) {
	fabric := transport.NewLocalFabric(2)
	defer fabric.Close()
	abort := make(chan struct{})
	defer close(abort)
	receiver := newReliableTransport(fabric.Endpoint(1), testCommon(0), abort, nil)
	receiver.Handle(kindDecrBatch, func(int, []byte) ([]byte, error) {
		t.Error("handler ran on a truncated envelope")
		return nil, nil
	})
	if _, err := fabric.Endpoint(0).Call(1, kindDecrBatch, []byte{1, 2, 3}); err == nil {
		t.Fatal("truncated envelope accepted")
	}
}

func TestReliableRunMatchesBaseline(t *testing.T) {
	pat := patterns.NewDiagonal(20, 16)
	cfg := baseConfig(pat, 3)
	cfg.Reliable = true
	cl := runAndCheck(t, cfg)
	if s := cl.Stats(); s.DedupHits != 0 {
		// A fault-free fabric never duplicates; dedup must stay invisible.
		t.Fatalf("fault-free run recorded %d dedup hits", s.DedupHits)
	}
}
