package core

import (
	"errors"
	"sync"
	"testing"
)

// TestCoInboxReports has several goroutines report to one inbox at once,
// with no coordinator draining it: every report returns, a place's done
// state ends at the latest epoch reported whatever order the reports came
// in, a fault stays set however often it is reported, and one wake-up is
// left for the coordinator.
func TestCoInboxReports(t *testing.T) {
	const places, senders, epochs = 4, 8, 500
	in := newCoInbox(places)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := uint64(0); e < epochs; e++ {
				p := 1 + (s+int(e))%(places-1)
				in.reportDone(p, (e*7+uint64(s))%epochs) // epochs out of order
				if e%50 == 0 {
					in.reportFault(2)
				}
			}
		}()
	}
	wg.Wait()
	for p := 1; p < places; p++ {
		if got := in.done[p].Load(); got != epochs {
			t.Errorf("place %d: done state %d, want the latest epoch %d plus one", p, got, epochs-1)
		}
	}
	if in.done[0].Load() != 0 || in.fault[0].Load() || !in.fault[2].Load() || in.fault[1].Load() {
		t.Errorf("fault states %v %v %v, done state of place 0 %d; want only place 2 faulted, place 0 not done",
			in.fault[0].Load(), in.fault[1].Load(), in.fault[2].Load(), in.done[0].Load())
	}
	select {
	case <-in.wake:
	default:
		t.Fatal("no wake-up left for the coordinator")
	}
}

// TestCoordinatorAbortOutranksFinishedScan: a coordinator whose abort is
// already closed when it finds every place done returns the abort's error,
// not success — a job canceled or closed at its last cell must not report
// a result.
func TestCoordinatorAbortOutranksFinishedScan(t *testing.T) {
	const places = 3
	pe := &placeEngine[int32]{cfg: &Config[int32]{Common: Common{Places: places}}}
	abort := make(chan struct{})
	close(abort)
	co := newCoordinator(pe, abort, func() error { return ErrCanceled })
	for p := 0; p < places; p++ {
		co.in.reportDone(p, 0)
	}
	if err := co.run(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("run with abort closed and every place done = %v, want ErrCanceled", err)
	}
}
