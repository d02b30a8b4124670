package simcluster

import (
	"math"
	"testing"

	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/dist"
)

func TestSimStealCompletesAndHelpsImbalance(t *testing.T) {
	// Triangle under blockrow is imbalanced: stealing should cut the
	// makespan when compute dominates communication.
	pat := patterns.NewTriangle(48)
	m := DefaultModel(2)
	m.ComputeCost = 1e-4
	base := runMakespan(t, pat, 6, m)
	m.Steal = true
	stolen := runMakespan(t, pat, 6, m)
	if stolen >= base {
		t.Fatalf("steal did not help an imbalanced DAG: %g vs %g", stolen, base)
	}
	// And it must still compute every vertex exactly once.
	h, w := pat.Bounds()
	sim, err := New(pat, dist.NewBlockRow(h, w, 6), m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ComputedCells != sim.Active() {
		t.Fatalf("computed %d of %d", res.ComputedCells, sim.Active())
	}
}

func TestSimStealNoWorseOnBalanced(t *testing.T) {
	pat := patterns.NewGrid(80, 80)
	m := DefaultModel(2)
	m.ComputeCost = 1e-4
	base := runMakespan(t, pat, 4, m)
	m.Steal = true
	stolen := runMakespan(t, pat, 4, m)
	if stolen > base*1.1 {
		t.Fatalf("steal hurt a balanced DAG badly: %g vs %g", stolen, base)
	}
}

// TestSimStealPricesFetchMsgs: the steal decision prices each place's
// fetch as the schedule then charges it, FetchMsgs messages per remote
// owner. On a two-row column dealt one row per place, the second vertex's
// owner must fetch its dependency in FetchMsgs = 10 messages, while place
// 0, which holds the dependency and is idle, pays only the result's
// one-message write-back — so the vertex is stolen, no dependency value
// crosses the link, and the makespan is the decrement, the write-back and
// two computes. Pricing the owner's fetch as one message keeps the vertex
// at its owner and charges it ten.
func TestSimStealPricesFetchMsgs(t *testing.T) {
	pat := patterns.NewGrid(2, 1)
	m := DefaultModel(1)
	m.FetchMsgs = 10
	m.Steal = true
	s, err := New(pat, dist.NewBlockRow(2, 1, 2), m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteFetches != 0 {
		t.Fatalf("%d dependency values fetched, want 0: the vertex should run where its dependency lives", res.RemoteFetches)
	}
	want := 2*m.ComputeCost + s.msgCost(1, m.DecrBytes) + s.msgCost(1, m.FetchBytes)
	if math.Abs(res.Makespan-want) > 1e-12 {
		t.Fatalf("makespan %g, want %g (decrement + write-back + two computes)", res.Makespan, want)
	}
}
