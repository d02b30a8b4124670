package dpx10_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/bench"
)

// checkSW verifies a completed Smith-Waterman dag against the serial
// reference.
func checkSW(t *testing.T, dag *dpx10.Dag[int32], a, b string) {
	t.Helper()
	want := serialSW(a, b)
	for i := 0; i <= len(a); i++ {
		for j := 0; j <= len(b); j++ {
			if got := dag.Result(int32(i), int32(j)); got != want[i][j] {
				t.Fatalf("H(%d,%d) = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
}

// gatedApp builds a swApp whose computation blocks after gateAt cells until
// released, so failure injection deterministically lands mid-run.
func gatedApp(a, b string, gateAt int64) (*swApp, chan struct{}, func()) {
	gate := make(chan struct{})
	resume := make(chan struct{})
	var count atomic.Int64
	var once sync.Once
	app := &swApp{a: a, b: b}
	app.onCompute = func() {
		n := count.Add(1)
		if n == gateAt {
			close(gate)
		}
		if n >= gateAt {
			<-resume
		}
	}
	return app, gate, func() { once.Do(func() { close(resume) }) }
}

// TestOptionsMixUntypedTyped pins the options surface: untyped and
// value-typed constructors compose in one option list.
func TestOptionsMixUntypedTyped(t *testing.T) {
	a, b := "ACGTACGTACGT", "TACGTACGTA"
	app := &swApp{a: a, b: b}
	dag, err := dpx10.Run[int32](app, dpx10.DiagonalPattern(int32(len(a)+1), int32(len(b)+1)),
		dpx10.Places(3), // untyped
		dpx10.Threads(2),
		dpx10.WithCodec[int32](dpx10.Int32Codec{}), // value-typed
		dpx10.CacheSize(16),
		dpx10.WithStrategy(dpx10.LocalScheduling),
	)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkSW(t, dag, a, b)
}

// TestSubmitContextCancelsRunningJob: canceling Submit's context aborts a
// running job like Cancel, and Wait's error wraps the context's error (not
// just the internal ErrCanceled).
func TestSubmitContextCancelsRunningJob(t *testing.T) {
	a := "GATTACAGATTACAGATTACAGATTACA"
	app, gate, release := gatedApp(a, a, 20)
	c, err := dpx10.NewCluster(dpx10.Places(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	job, err := dpx10.Submit[int32](ctx, c, app,
		dpx10.DiagonalPattern(int32(len(a)+1), int32(len(a)+1)))
	if err != nil {
		t.Fatal(err)
	}
	<-gate
	cancel()
	// The gate stays shut until Wait has returned: the context watcher
	// cancels the job from its own goroutine, and a run released right
	// after cancel() can finish its remaining cells before that lands.
	defer release()
	_, err = job.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after ctx cancel = %v, want to wrap context.Canceled", err)
	}
}

// TestSubmitRejectsDeadContext: a context already expired at submission
// fails fast without starting the job.
func TestSubmitRejectsDeadContext(t *testing.T) {
	c, err := dpx10.NewCluster(dpx10.Places(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	app := &swApp{a: "ACGT", b: "ACGT"}
	if _, err := dpx10.Submit[int32](ctx, c, app, dpx10.DiagonalPattern(5, 5)); !errors.Is(err, context.Canceled) {
		t.Fatalf("submit with dead context = %v, want context.Canceled", err)
	}
	if jobs := c.Jobs(); len(jobs) != 0 {
		t.Fatalf("cluster lists %d jobs after a rejected submission, want 0", len(jobs))
	}
}

// TestPlaceDeadErrorUnwrap pins the typed-error contract: killing place 0
// surfaces a *PlaceDeadError naming the place, which also matches
// ErrPlaceZeroDead under errors.Is. The kill lands while Compute is held at
// the 50th of 441 cells, and the gate stays shut until Wait has returned, so
// the job cannot finish first.
func TestPlaceDeadErrorUnwrap(t *testing.T) {
	a := "AAAAAAAAAAAAAAAAAAAA"
	app, gate, release := gatedApp(a, a, 50)
	job, err := dpx10.Launch[int32](app, dpx10.DiagonalPattern(21, 21), dpx10.Places(3))
	if err != nil {
		t.Fatal(err)
	}
	<-gate
	job.Kill(0)
	defer release()
	_, err = job.Wait()
	var pd *dpx10.PlaceDeadError
	if !errors.As(err, &pd) {
		t.Fatalf("Wait = %v, want a *PlaceDeadError in the chain", err)
	}
	if pd.Place != 0 {
		t.Fatalf("PlaceDeadError.Place = %d, want 0", pd.Place)
	}
	if !errors.Is(err, dpx10.ErrPlaceZeroDead) {
		t.Fatalf("err = %v, want to match ErrPlaceZeroDead", err)
	}
}

// TestWithEventsObservesRecovery: a mid-run kill shows up on the structured
// event stream as a death followed by recovery start/finish, and the run
// still produces the exact fault-free result.
func TestWithEventsObservesRecovery(t *testing.T) {
	a, b := "GATTACAGATTACAGATTACAGATTACA", "CATACGATTACATACGATTACA"
	app, gate, release := gatedApp(a, b, 50)
	var mu sync.Mutex
	var events []dpx10.Event
	job, err := dpx10.Launch[int32](app,
		dpx10.DiagonalPattern(int32(len(a)+1), int32(len(b)+1)),
		dpx10.Places(4),
		dpx10.WithEvents(func(ev dpx10.Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	<-gate
	job.Kill(2)
	release()
	dag, err := job.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	checkSW(t, dag, a, b)
	mu.Lock()
	defer mu.Unlock()
	var sawDead, sawStart, sawFinish bool
	for _, ev := range events {
		switch ev.Kind {
		case dpx10.EventPlaceDead:
			if ev.Place == 2 {
				sawDead = true
			}
		case dpx10.EventRecoveryStarted:
			sawStart = true
		case dpx10.EventRecoveryFinished:
			sawFinish = true
			if ev.Duration <= 0 {
				t.Error("EventRecoveryFinished with non-positive duration")
			}
		}
	}
	if !sawDead || !sawStart || !sawFinish {
		t.Fatalf("events missing: dead=%v start=%v finish=%v (%d events)",
			sawDead, sawStart, sawFinish, len(events))
	}
}

// TestWithChaosEndToEnd: a seeded drop/dup/delay plan over the public API
// still yields the exact serial result, the plan reports injected faults,
// and the reliable layer's counters account for the tolerated damage.
func TestWithChaosEndToEnd(t *testing.T) {
	a, b := "GGTTGACTAGGTTGACTAGGTTGACTA", "TGTTACGGACCGTTACGGAC"
	plan := &dpx10.ChaosPlan{
		Seed:     42,
		Drop:     0.05,
		Dup:      0.08,
		Delay:    0.15,
		DelayMin: 50 * time.Microsecond,
		DelayMax: time.Millisecond,
	}
	app := &swApp{a: a, b: b}
	dag, err := dpx10.Run[int32](app,
		dpx10.DiagonalPattern(int32(len(a)+1), int32(len(b)+1)),
		dpx10.Places(3),
		dpx10.WithChaos(plan),
		dpx10.WithHeartbeat(2*time.Millisecond, 5),
		dpx10.WithCodec[int32](dpx10.Int32Codec{}))
	if err != nil {
		t.Fatalf("Run under chaos: %v", err)
	}
	checkSW(t, dag, a, b)
	if plan.Stats().Total() == 0 {
		t.Fatal("chaos plan injected nothing")
	}
	st := dag.Stats()
	if st.Retries == 0 && plan.Stats().Dropped > 0 {
		t.Fatal("messages were dropped but the reliable layer never retried")
	}
}

// TestKillUnannouncedDetectedViaAPI: with WithHeartbeat configured, a place
// that dies without any announcement is detected and recovered from through
// the public API alone.
func TestKillUnannouncedDetectedViaAPI(t *testing.T) {
	a, b := "GATTACAGATTACAGATTACAGATTACA", "CATACGATTACATACGATTACA"
	app, gate, release := gatedApp(a, b, 60)
	job, err := dpx10.Launch[int32](app,
		dpx10.DiagonalPattern(int32(len(a)+1), int32(len(b)+1)),
		dpx10.Places(4),
		dpx10.WithHeartbeat(2*time.Millisecond, 3))
	if err != nil {
		t.Fatal(err)
	}
	<-gate
	job.KillUnannounced(2)
	release()
	dag, err := job.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if dag.Stats().Recoveries < 1 {
		t.Fatal("unannounced death never recovered through the API")
	}
	checkSW(t, dag, a, b)
}

// TestWithRetryBudgetDeclaresUnreachablePeer: with a finite retry budget
// and no heartbeat detector, a permanently severed link is escalated by the
// reliable layer itself — exhaustion declares the unreachable peer dead,
// recovery excludes it, and the survivor still produces the exact result.
func TestWithRetryBudgetDeclaresUnreachablePeer(t *testing.T) {
	a := "GATTACAGATTACAGATTACA"
	plan := &dpx10.ChaosPlan{
		Seed: 7,
		// Sever both directions between place 0 and place 1 permanently; no
		// heartbeat detector runs, so only the retry budget can end the
		// stalemate.
		Partitions: []dpx10.ChaosPartition{
			{From: 0, To: 1, Start: 0, End: time.Hour},
			{From: 1, To: 0, Start: 0, End: time.Hour},
		},
	}
	app := &swApp{a: a, b: a}
	dag, err := dpx10.Run[int32](app,
		dpx10.DiagonalPattern(int32(len(a)+1), int32(len(a)+1)),
		dpx10.Places(2),
		dpx10.WithChaos(plan),
		bench.WithRetry(8, 100*time.Microsecond, time.Millisecond))
	if err != nil {
		t.Fatalf("Run across a severed link: %v", err)
	}
	checkSW(t, dag, a, a)
	if dag.Stats().Recoveries < 1 {
		t.Fatal("retry exhaustion never declared the unreachable peer")
	}
	if plan.Stats().Partitioned == 0 {
		t.Fatal("partition plan never fired")
	}
}
