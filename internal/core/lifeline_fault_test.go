package core

import (
	"sync"
	"testing"
	"time"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/sched"
	"github.com/dpx10/dpx10/internal/transport"
)

// lifelineConfig runs the steal strategy, and with it lifelines, on a tiled
// run.
func lifelineConfig(pat dag.Pattern, places int) Config[int64] {
	cfg := baseConfig(pat, places)
	cfg.Strategy = sched.Steal
	cfg.TileSize = 2
	return cfg
}

// TestLifelineExactlyOnce runs a heavily skewed DAG with aggressive tile
// migration and counts every compute invocation: in a fault-free run each
// active cell executes exactly once, no matter how many lifeline hops its
// tile took before landing — a tile in flight is held by exactly one
// place (sender deques, wire, or receiver inbox), never two.
func TestLifelineExactlyOnce(t *testing.T) {
	pat := lastWave{h: 16, w: 32, hot: 14}
	cfg := lifelineConfig(pat, 4)
	var mu sync.Mutex
	counts := make(map[dag.VertexID]int)
	// Sleep weights keep the gate chain slow enough for the idle places to
	// exhaust their probes and park before the wave bursts open.
	inner := skewCompute(func(i, j int32) bool { return i == 0 }, 300*time.Microsecond, 100*time.Microsecond)
	cfg.Compute = func(i, j int32, deps []Cell[int64]) int64 {
		mu.Lock()
		counts[dag.VertexID{I: i, J: j}]++
		mu.Unlock()
		return inner(i, j, deps)
	}
	cl := runAndCheck(t, cfg)
	if st := cl.Stats(); st.TilesMigrated == 0 {
		t.Error("no tiles migrated on a skewed DAG with lifelines on")
	}
	mu.Lock()
	defer mu.Unlock()
	for id, n := range counts {
		if n != 1 {
			t.Errorf("cell %v executed %d times, want exactly 1", id, n)
		}
	}
	want := len(refValues(pat))
	if len(counts) != want {
		t.Errorf("executed %d distinct cells, want %d", len(counts), want)
	}
}

// lateReply keeps a pusher inside the Call of an accepted lifeline delivery
// until the whole DAG is computed and 20 ms more, so the job finishes with
// that push delivered, run, and not yet counted by its sender.
type lateReply struct {
	transport.Transport
	computed func() bool
}

func (l *lateReply) Call(to int, kind uint8, payload []byte) ([]byte, error) {
	reply, err := l.Transport.Call(to, kind, payload)
	if kind == kindTransfer && err == nil {
		for !l.computed() {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return reply, err
}

// TestLifelineLedgerSettledAtWait pins quiesce joining the pusher
// goroutine: when Run returns, every accepted push has been counted.
func TestLifelineLedgerSettledAtWait(t *testing.T) {
	pat := lastWave{h: 16, w: 32, hot: 14}
	cfg := lifelineConfig(pat, 4)
	cfg.Compute = skewCompute(func(i, j int32) bool { return i == 0 }, 300*time.Microsecond, 100*time.Microsecond)
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(len(refValues(pat)))
	computed := func() bool {
		var n int64
		for _, pe := range cl.engines {
			n += pe.computed.Load()
		}
		return n >= total
	}
	for _, pe := range cl.engines {
		pe.tr = &lateReply{pe.tr, computed}
	}
	if err := cl.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st := cl.Stats(); st.TilesMigrated == 0 || st.LifelinePushes != st.TilesMigrated {
		t.Fatalf("at Run's return LifelinePushes = %d, TilesMigrated = %d; want equal and > 0", st.LifelinePushes, st.TilesMigrated)
	}
}

// TestLifelineThiefKilled kills a thief place while migrated tiles are
// parked in its inbox or running on its workers: the tiles must not be
// lost (the owners' rebuilt counters re-enqueue every unfinished cell
// after recovery) and the final values must be correct — re-execution is
// allowed only as recovery recomputation, never as same-epoch
// duplication, which the value check would surface as corruption if the
// compute were non-idempotent across epochs.
func TestLifelineThiefKilled(t *testing.T) {
	// Sleep-weighted last-wave skew: the idle places park while place 0
	// walks the gate chain, then place 3's wave bursts open and streams
	// tiles to the parked thieves. The kill lands as soon as the first
	// push is observed, so deliveries are genuinely in flight.
	pat := lastWave{h: 32, w: 64, hot: 28}
	cfg := lifelineConfig(pat, 4)
	cfg.Compute = skewCompute(func(i, j int32) bool { return i == 0 }, 400*time.Microsecond, 200*time.Microsecond)
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cl.Run() }()
	pushed := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		var n int64
		for _, pe := range cl.jr.engines {
			n += pe.lifePushes.Load()
		}
		if n > 0 {
			pushed = true
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	// Thieves 1 and 2 park on places 0 and 3 at this fan-out, so they are
	// the delivery targets; kill one of them holding migrated tiles.
	cl.Kill(1)
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !pushed {
		t.Fatal("no victim pushed a tile within the deadline; scenario not exercised")
	}
	if cl.Stats().Recoveries < 1 {
		t.Fatal("no recovery recorded after killing the thief")
	}
	checkResult(t, cl, pat)
}

// TestLifelineVictimKilled kills a place that pushed tiles out: the
// surviving thieves' deliveries and results must either complete or be
// recomputed, and the run must converge to the correct values.
func TestLifelineVictimKilled(t *testing.T) {
	pat := patterns.NewTriangle(24)
	cfg, gate, release := gatedConfig(pat, 4, 100)
	cfg.Strategy = sched.Steal
	cfg.TileSize = 2
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cl.Run() }()
	<-gate
	// Place 1 owns a fat triangle slab: a busy victim with parked buddies.
	cl.Kill(1)
	release()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if cl.Stats().Recoveries < 1 {
		t.Fatal("no recovery recorded after killing the victim")
	}
	checkResult(t, cl, pat)
}
