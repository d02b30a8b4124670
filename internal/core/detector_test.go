package core

import (
	"sync"
	"testing"
	"time"

	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/transport"
)

// eventLog is a concurrency-safe Events callback for tests.
type eventLog struct {
	mu     sync.Mutex
	events []RunEvent
	times  []time.Time
}

func (l *eventLog) record(ev RunEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev)
	l.times = append(l.times, time.Now())
}

func (l *eventLog) firstOf(kind EventKind) (RunEvent, time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, ev := range l.events {
		if ev.Kind == kind {
			return ev, l.times[i], true
		}
	}
	return RunEvent{}, time.Time{}, false
}

// TestUnannouncedDeathDetectedWithinWindow is the acceptance regression for
// the heartbeat detector: a place that dies without any fault report must
// be declared dead within the configured suspicion window and the run must
// recover to the exact fault-free result.
func TestUnannouncedDeathDetectedWithinWindow(t *testing.T) {
	const (
		interval  = 2 * time.Millisecond
		threshold = 3
	)
	pat := patterns.NewDiagonal(24, 18)
	cfg, gate, release := gatedConfig(pat, 4, 120)
	cfg.ProbeInterval = interval
	cfg.SuspicionThreshold = threshold
	log := &eventLog{}
	cfg.Events = log.record
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cl.Run() }()
	<-gate
	killedAt := time.Now()
	cl.KillUnannounced(2)
	release()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st := cl.Stats(); st.Recoveries < 1 {
		t.Fatal("unannounced death never recovered")
	}
	checkResult(t, cl, pat)
	dead, at, ok := log.firstOf(EventPlaceDead)
	if !ok {
		t.Fatal("no EventPlaceDead observed")
	}
	if dead.Place != 2 {
		t.Fatalf("EventPlaceDead for place %d, want 2", dead.Place)
	}
	// The fabric reports the kill as a definitive verdict, so declaration
	// lands on the next heartbeat tick; interval×(threshold+1) plus
	// generous scheduling slack bounds the window. The constant-factor
	// slack absorbs CI scheduling noise without weakening the regression:
	// a detector that waits for traffic would exceed any fixed bound.
	window := interval*time.Duration(threshold+1) + 500*time.Millisecond
	if detected := at.Sub(killedAt); detected > window {
		t.Fatalf("death detected after %v, want within %v", detected, window)
	}
}

// TestDetectorSuspicionThreshold drives the miss-counting path directly:
// a target whose link drops every message must be declared dead after
// exactly `threshold` consecutive misses, with suspicion events first.
func TestDetectorSuspicionThreshold(t *testing.T) {
	fabric := transport.NewLocalFabric(2)
	defer fabric.Close()
	plan := &transport.FaultPlan{
		Seed:       1,
		Partitions: []transport.Partition{{From: 0, To: 1, Start: 0, End: time.Hour}},
	}
	ff := transport.NewFaultFabric(fabric.Endpoint(0), plan)
	defer ff.Close()
	stop := make(chan struct{})
	defer close(stop)
	var mu sync.Mutex
	var misses []int
	declared := make(chan int, 1)
	d := &detector{
		tr:        ff,
		targets:   []int{1},
		interval:  time.Millisecond,
		threshold: 3,
		onSuspect: func(p, m int) {
			mu.Lock()
			misses = append(misses, m)
			mu.Unlock()
		},
		onDead: func(p int) { declared <- p },
		stopCh: stop,
	}
	go d.run()
	select {
	case p := <-declared:
		if p != 1 {
			t.Fatalf("declared place %d, want 1", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("partitioned place never declared dead")
	}
	if fabric.Alive(1) {
		t.Fatal("declared place not marked dead at the transport")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(misses) < 3 || misses[0] != 1 || misses[1] != 2 || misses[2] != 3 {
		t.Fatalf("suspicion misses = %v, want prefix [1 2 3]", misses)
	}
}

// TestDetectorRecoversFromMisses checks that a successful heartbeat resets
// the miss count: a link that drops two of every three pings never reaches
// a threshold of 3.
func TestDetectorMissResetOnSuccess(t *testing.T) {
	fabric := transport.NewLocalFabric(2)
	defer fabric.Close()
	// Reuse flakyTransport: fail the first 2 calls, then succeed, then the
	// detector's misses must have been reset (no declaration).
	fabric.Endpoint(1).Handle(kindPing, handlePing)
	flaky := &flakyTransport{Transport: fabric.Endpoint(0)}
	flaky.failures.Store(2)
	stop := make(chan struct{})
	declared := make(chan int, 1)
	d := &detector{
		tr:        flaky,
		targets:   []int{1},
		interval:  time.Millisecond,
		threshold: 3,
		onDead:    func(p int) { declared <- p },
		stopCh:    stop,
	}
	go d.run()
	select {
	case <-declared:
		close(stop)
		t.Fatal("declared dead despite miss reset")
	case <-time.After(50 * time.Millisecond):
	}
	close(stop)
}

// TestFalsePositiveDeclarationIsSafe pins the safety property behind the
// detector: even when a *live* place is wrongly declared dead (here forced
// by a permanent asymmetric partition of the heartbeat path), the run
// completes and every value matches the fault-free reference — survivors
// recompute the excluded place's cells and its stale traffic is dropped.
func TestFalsePositiveDeclarationIsSafe(t *testing.T) {
	pat := patterns.NewDiagonal(20, 16)
	cfg, gate, release := gatedConfig(pat, 3, 40)
	cfg.ProbeInterval = 2 * time.Millisecond
	cfg.SuspicionThreshold = 3
	cfg.Chaos = &transport.FaultPlan{
		Seed: 11,
		// Place 0 cannot reach place 2 at all: heartbeats and recovery
		// phases both fail, but place 2 itself stays up and keeps sending.
		Partitions: []transport.Partition{{From: 0, To: 2, Start: 0, End: time.Hour}},
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cl.Run() }()
	// Hold the computation at the gate until the detector's misses cross
	// the threshold and it marks the partitioned place dead at the fabric;
	// releasing earlier would race completion against the declaration.
	<-gate
	deadline := time.Now().Add(10 * time.Second)
	for cl.fabric.Alive(2) {
		if time.Now().After(deadline) {
			release()
			t.Fatal("partitioned place never declared dead")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("run with a false-positive declaration did not terminate")
	}
	if st := cl.Stats(); st.Recoveries < 1 {
		t.Fatal("partitioned place never declared and recovered from")
	}
	checkResult(t, cl, pat)
}
