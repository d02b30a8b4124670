package metrics

import (
	"runtime"
	"sync"
	"testing"
)

// TestRegistryConcurrentStress hammers one registry from GOMAXPROCS
// writer goroutines while a reader repeatedly snapshots it. Under -race
// this proves the instruments and the snapshot path are data-race free;
// afterwards the totals must equal exactly what the writers put in (no
// lost updates across shards).
func TestRegistryConcurrentStress(t *testing.T) {
	const perWriter = 5000
	writers := runtime.GOMAXPROCS(0)
	if writers < 2 {
		writers = 2
	}
	r := New(0)
	// Pre-create the handles on the main goroutine the way the engine
	// does at wiring time; the writers only touch handles.
	c := r.Counter(SchedTilesExecutedID)
	g := r.Gauge(EngineEpochID)
	h := r.Histogram(RecoveryRebuildNsID)
	v := r.Vec(TransportMsgsOutID)

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.Snapshot()
			// Every intermediate snapshot must be internally sane.
			if s.Counters[SchedTilesExecuted] < 0 {
				t.Error("negative counter in snapshot")
				return
			}
			b := EncodeSnapshot(nil, s)
			if _, err := DecodeSnapshot(b); err != nil {
				t.Errorf("mid-run snapshot does not round-trip: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Add(w, 1)
				g.Set(int64(i))
				h.Observe(int64(i % 1000))
				v.Add(uint8(w%7), 1)
				// Concurrent handle lookups must also be safe.
				if i%512 == 0 {
					r.Counter(SchedStealsAttemptedID).Inc(w)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	total := int64(writers) * perWriter
	if got := c.Value(); got != total {
		t.Fatalf("counter lost updates: %d, want %d", got, total)
	}
	if got := h.Count(); got != total {
		t.Fatalf("histogram lost samples: %d, want %d", got, total)
	}
	if got := v.Total(); got != total {
		t.Fatalf("vec lost updates: %d, want %d", got, total)
	}
}
