package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/distarray"
	"github.com/dpx10/dpx10/internal/sched"
	"github.com/dpx10/dpx10/internal/trace"
	"github.com/dpx10/dpx10/internal/transport"
)

// gatedConfig builds a config whose compute blocks after gateAt cells have
// been computed, giving the test a deterministic window to inject faults.
// Call the returned release() exactly once after killing.
func gatedConfig(pat dag.Pattern, places, gateAt int) (Config[int64], chan struct{}, func()) {
	gate := make(chan struct{})
	resume := make(chan struct{})
	var count atomic.Int64
	cfg := baseConfig(pat, places)
	cfg.Compute = func(i, j int32, deps []Cell[int64]) int64 {
		n := count.Add(1)
		if n == int64(gateAt) {
			close(gate)
		}
		if n >= int64(gateAt) {
			<-resume
		}
		return sumCompute(i, j, deps)
	}
	var released atomic.Bool
	release := func() {
		if !released.Swap(true) {
			close(resume)
		}
	}
	return cfg, gate, release
}

func checkResult(t *testing.T, cl *Cluster[int64], pat dag.Pattern) {
	t.Helper()
	res, err := cl.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	for id, wv := range refValues(pat) {
		if !res.Finished(id.I, id.J) {
			t.Fatalf("cell %v unfinished after recovery", id)
		}
		if got := res.Value(id.I, id.J); got != wv {
			t.Fatalf("cell %v = %d, want %d", id, got, wv)
		}
	}
}

func TestKillMidRunRecovers(t *testing.T) {
	for _, restoreRemote := range []bool{false, true} {
		pat := patterns.NewDiagonal(24, 18)
		cfg, gate, release := gatedConfig(pat, 4, 150)
		cfg.RestoreRemote = restoreRemote
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cl.Run() }()
		<-gate
		cl.Kill(2)
		release()
		if err := <-done; err != nil {
			t.Fatalf("restoreRemote=%v: Run: %v", restoreRemote, err)
		}
		st := cl.Stats()
		if st.Recoveries < 1 {
			t.Fatalf("restoreRemote=%v: no recovery recorded", restoreRemote)
		}
		if st.RecoveryNanos <= 0 {
			t.Fatalf("recovery time not measured")
		}
		checkResult(t, cl, pat)
	}
}

// TestRecoveryRestartsWhenPlaceDiesMidRecovery kills place 3 mid-run and
// then place 2 from inside one round of the recovery that follows: place 1's
// first call of that round kills it before serving, and place 2's waits for
// the kill, so place 2 never completes the round whatever order the
// concurrent fan-out serves the places in. The coordinator restarts the
// recovery without place 2, so the run takes at least three epochs, and must
// finish bit-exact from every round, with the handed-over values restored or
// recomputed.
func TestRecoveryRestartsWhenPlaceDiesMidRecovery(t *testing.T) {
	for _, round := range []uint8{kindRebuild, kindExchange, kindResume} {
		for _, restoreRemote := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/restoreRemote=%v", trace.KindName(round), restoreRemote), func(t *testing.T) {
				pat := patterns.NewDiagonal(30, 24)
				cfg, gate, release := gatedConfig(pat, 4, 300)
				cfg.RestoreRemote = restoreRemote
				cl, err := NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				serve := func(p int) transport.Handler {
					pe := cl.engines[p]
					return map[uint8]transport.Handler{
						kindRebuild:  pe.handleRebuild,
						kindExchange: pe.handleExchange,
						kindResume:   pe.handleResume,
					}[round]
				}
				var kill sync.Once
				killed := make(chan struct{})
				serve1, serve2 := serve(1), serve(2)
				cl.engines[1].tr.Handle(round, func(from int, payload []byte) ([]byte, error) {
					kill.Do(func() { cl.Kill(2); close(killed) })
					return serve1(from, payload)
				})
				cl.engines[2].tr.Handle(round, func(from int, payload []byte) ([]byte, error) {
					<-killed
					return serve2(from, payload)
				})
				done := make(chan error, 1)
				go func() { done <- cl.Run() }()
				<-gate
				cl.Kill(3)
				release()
				if err := <-done; err != nil {
					t.Fatalf("Run: %v", err)
				}
				if st := cl.Stats(); st.Epochs < 3 {
					t.Fatalf("%d epochs, %d recoveries; want place 2's death mid-recovery to take a third epoch", st.Epochs, st.Recoveries)
				}
				checkResult(t, cl, pat)
			})
		}
	}
}

// execSpy counts, per target place, the cells of the exec tiles it accepted.
type execSpy struct {
	transport.Transport
	held []atomic.Int64
}

func (s *execSpy) Call(to int, kind uint8, payload []byte) ([]byte, error) {
	reply, err := s.Transport.Call(to, kind, payload)
	if kind == kindTransfer && err == nil {
		if _, reason, ids, derr := decodeTransfer(payload, nil); derr == nil && reason == transferExec {
			s.held[to].Add(int64(len(ids)))
		}
	}
	return reply, err
}

// TestExecTargetKilled kills the target of exec placement while it holds
// tiles pushed to it — waiting in its inbox or running on its workers, their
// results not yet home. Their owners queue them nowhere, so only the
// recovery's rebuilt counters bring them back: the run must recover once
// and finish bit-exact.
func TestExecTargetKilled(t *testing.T) {
	pat := patterns.NewDiagonal(24, 24)
	cfg, gate, release := gatedConfig(pat, 4, 120)
	cfg.Strategy = sched.Random
	cfg.TileSize = 4
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	held := make([]atomic.Int64, cfg.Places)
	for _, pe := range cl.engines {
		pe.tr = &execSpy{pe.tr, held}
	}
	done := make(chan error, 1)
	go func() { done <- cl.Run() }()
	<-gate
	// Computes block from here on, so a target's accepted cells that have not
	// all run are held by it until the kill.
	target := -1
	for deadline := time.Now().Add(10 * time.Second); target < 0 && time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
		for p := 1; p < cfg.Places; p++ {
			if held[p].Load() > cl.engines[p].execMigrated.Load() {
				target = p
				break
			}
		}
	}
	if target < 0 {
		release()
		<-done
		t.Fatal("no exec target held a pushed tile at the gate; scenario not exercised")
	}
	cl.Kill(target)
	release()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st := cl.Stats(); st.Recoveries != 1 || st.ExecMigrated == 0 {
		t.Fatalf("%d recoveries, %d cells exec-migrated after killing exec target %d; want 1 and some", st.Recoveries, st.ExecMigrated, target)
	}
	checkResult(t, cl, pat)
}

func TestKillEarlyAndLate(t *testing.T) {
	for _, gateAt := range []int{5, 350} {
		pat := patterns.NewGrid(20, 20)
		cfg, gate, release := gatedConfig(pat, 5, gateAt)
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cl.Run() }()
		<-gate
		cl.Kill(3)
		release()
		if err := <-done; err != nil {
			t.Fatalf("gateAt=%d: Run: %v", gateAt, err)
		}
		checkResult(t, cl, pat)
	}
}

func TestDoubleFault(t *testing.T) {
	pat := patterns.NewDiagonal(24, 24)
	cfg, gate, release := gatedConfig(pat, 5, 120)
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cl.Run() }()
	<-gate
	cl.Kill(2)
	cl.Kill(4)
	release()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := cl.Stats()
	if st.Recoveries < 1 {
		t.Fatal("no recovery recorded after double fault")
	}
	checkResult(t, cl, pat)
}

func TestKillPlaceZeroAborts(t *testing.T) {
	pat := patterns.NewGrid(30, 30)
	cfg, gate, release := gatedConfig(pat, 3, 100)
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cl.Run() }()
	<-gate
	cl.Kill(0)
	release()
	if err := <-done; !errors.Is(err, ErrPlaceZeroDead) {
		t.Fatalf("Run after killing place 0: err = %v, want ErrPlaceZeroDead", err)
	}
	if _, err := cl.Result(); err == nil {
		t.Fatal("Result succeeded after aborted run")
	}
}

// killAtCheck kills its own place inside the first self-liveness check for
// which ripe() holds: a kill landing between the guard at the top of
// reportFault/maybeReportDone and the send to place 0 that it guards.
type killAtCheck struct {
	transport.Transport
	fabric *transport.LocalFabric
	ripe   func() bool
}

func (k *killAtCheck) Alive(p int) bool {
	alive := k.Transport.Alive(p)
	if p == k.Self() && k.ripe() {
		k.fabric.Kill(p)
	}
	return alive
}

// TestKilledPlaceDoesNotBlameCoordinator kills place 2 after it passed
// maybeReportDone's guard with its last cell finished. Its done report
// fails with ErrDeadPlace for its own death, which says nothing about
// place 0: the run must recover, not abort with ErrPlaceZeroDead.
func TestKilledPlaceDoesNotBlameCoordinator(t *testing.T) {
	pat := patterns.NewGrid(12, 12)
	cl, err := NewCluster(baseConfig(pat, 3))
	if err != nil {
		t.Fatal(err)
	}
	pe := cl.engines[2]
	pe.tr = &killAtCheck{pe.tr, cl.fabric, func() bool { return pe.current().chunk.AllFinished() }}
	if err := cl.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if cl.Stats().Recoveries < 1 {
		t.Fatal("place 2 was never killed: no recovery recorded")
	}
	checkResult(t, cl, pat)
}

func TestFaultDetectedByCommunicationAlone(t *testing.T) {
	// Kill without the runtime-level notification: survivors must discover
	// the death through failing sends/fetches. ColWave guarantees constant
	// cross-place traffic.
	pat := patterns.NewColWave(10, 16)
	cfg, gate, release := gatedConfig(pat, 4, 40)
	cfg.NewDist = nil // default blockrow: colwave deps cross every boundary
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cl.Run() }()
	<-gate
	// Simulate a raw crash: transport dead + workers gone, no coordinator
	// courtesy call.
	cl.fabric.Kill(2)
	cl.engines[2].current().closeQuit()
	cl.engines[2].stop()
	release()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st := cl.Stats(); st.Recoveries < 1 {
		t.Fatal("communication-based failure detection never triggered recovery")
	}
	checkResult(t, cl, pat)
}

func TestSnapshotRecovery(t *testing.T) {
	pat := patterns.NewDiagonal(20, 16)
	cfg, gate, release := gatedConfig(pat, 4, 120)
	cfg.Recovery = RecoverSnapshot
	cfg.Snapshot = distarray.NewSnapshotStore[int64](8)
	cfg.SnapshotEvery = 10
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cl.Run() }()
	<-gate
	cl.Kill(1)
	release()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	snaps, bytes := cfg.Snapshot.Stats()
	if snaps == 0 || bytes == 0 {
		t.Fatalf("snapshot baseline never saved (snaps=%d bytes=%d)", snaps, bytes)
	}
	checkResult(t, cl, pat)
}

func TestRecoveryWithKnapsackPattern(t *testing.T) {
	// Nondeterministic dependency shape (paper §VIII-A's explanation for
	// 0/1KP's weaker scaling) across a fault.
	ks, err := patterns.NewKnapsack([]int32{4, 7, 2, 9, 3, 5, 6}, 40)
	if err != nil {
		t.Fatal(err)
	}
	cfg, gate, release := gatedConfig(ks, 4, 80)
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cl.Run() }()
	<-gate
	cl.Kill(3)
	release()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkResult(t, cl, ks)
}

func TestKillAfterCompletionIsHarmless(t *testing.T) {
	pat := patterns.NewGrid(8, 8)
	cl := runAndCheck(t, baseConfig(pat, 3))
	cl.Kill(1) // run already over; must not panic or corrupt results
	checkResult(t, cl, pat)
}
