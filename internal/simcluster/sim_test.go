package simcluster

import (
	"math"
	"testing"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/dist"
)

func mustSim(t *testing.T, pat dag.Pattern, places int, m Model) *Sim {
	t.Helper()
	h, w := pat.Bounds()
	s, err := New(pat, dist.NewBlockRow(h, w, places), m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSimCompletesAllPatterns(t *testing.T) {
	m := DefaultModel(2)
	pats := []dag.Pattern{
		patterns.NewGrid(30, 30),
		patterns.NewDiagonal(30, 30),
		patterns.NewInterval(25),
		patterns.NewRowWave(12, 12),
		patterns.NewColWave(12, 12),
		patterns.NewChain(8, 40),
		patterns.NewTriangle(16),
		patterns.NewBanded(30, 30, 4),
	}
	for _, pat := range pats {
		s := mustSim(t, pat, 4, m)
		res, err := s.Run()
		if err != nil {
			t.Fatalf("%T: %v", pat, err)
		}
		if res.ComputedCells != s.Active() {
			t.Fatalf("%T: computed %d of %d cells", pat, res.ComputedCells, s.Active())
		}
		if res.Makespan <= 0 {
			t.Fatalf("%T: non-positive makespan", pat)
		}
	}
}

func TestSimCausality(t *testing.T) {
	// Property: every vertex finishes no earlier than each dependency's
	// finish time plus its own compute cost.
	m := DefaultModel(2)
	m.TrackFinishTimes = true
	pat := patterns.NewDiagonal(25, 31)
	s := mustSim(t, pat, 3, m)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var buf []dag.VertexID
	for i := int32(0); i < 25; i++ {
		for j := int32(0); j < 31; j++ {
			ft := s.FinishTime(dag.VertexID{I: i, J: j})
			buf = pat.Dependencies(i, j, buf[:0])
			for _, dep := range buf {
				if ft < s.FinishTime(dep)+m.ComputeCost-1e-12 {
					t.Fatalf("(%d,%d) finished at %g before dependency %v at %g + compute",
						i, j, ft, dep, s.FinishTime(dep))
				}
			}
		}
	}
}

func TestSimDeterministic(t *testing.T) {
	// Rerun each configuration in one process: any iteration over a Go map
	// (place choice, fetch-cost sums) changes order between reruns.
	steal := DefaultModel(2)
	steal.ComputeCost = 1e-4
	steal.Steal = true
	straggler := steal
	straggler.PlaceSpeed = []float64{3: 4}
	cases := []struct {
		name   string
		pat    dag.Pattern
		places int
		m      Model
	}{
		{"plain", patterns.NewDiagonal(40, 40), 5, DefaultModel(3)},
		{"steal", patterns.NewTriangle(48), 6, steal},
		{"straggler", patterns.NewDiagonal(48, 48), 6, straggler},
	}
	for _, tc := range cases {
		run := func() Result {
			res, err := mustSim(t, tc.pat, tc.places, tc.m).Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		first := run()
		for k := 0; k < 4; k++ {
			if again := run(); again != first {
				t.Fatalf("%s: same configuration, different results:\n%+v\n%+v", tc.name, first, again)
			}
		}
	}
}

func TestSimMorePlacesFaster(t *testing.T) {
	// Fig 10 shape: adding places reduces the makespan of a large
	// wavefront, with diminishing returns.
	m := DefaultModel(2)
	pat := patterns.NewDiagonal(120, 120)
	t1 := runMakespan(t, pat, 1, m)
	t4 := runMakespan(t, pat, 4, m)
	t8 := runMakespan(t, pat, 8, m)
	if !(t4 < t1 && t8 < t4) {
		t.Fatalf("no speedup: t1=%g t4=%g t8=%g", t1, t4, t8)
	}
	sp4 := t1 / t4
	sp8 := t1 / t8
	if sp8 > 8 || sp4 > 4.0001 {
		t.Fatalf("superlinear speedup is a model bug: sp4=%.2f sp8=%.2f", sp4, sp8)
	}
	// Diminishing efficiency: doubling places less than doubles speedup.
	if sp8 >= 2*sp4 {
		t.Fatalf("no saturation: sp4=%.2f sp8=%.2f", sp4, sp8)
	}
}

func runMakespan(t *testing.T, pat dag.Pattern, places int, m Model) float64 {
	t.Helper()
	s := mustSim(t, pat, places, m)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Makespan
}

func TestSimLinearInSize(t *testing.T) {
	// Fig 11 shape: at fixed places, makespan grows linearly with the
	// vertex count once per-vertex work dominates message latency (the
	// paper's regime at 100M-1B vertices).
	m := DefaultModel(2)
	m.ComputeCost = 1e-4
	small := runMakespan(t, patterns.NewGrid(60, 60), 4, m)
	big := runMakespan(t, patterns.NewGrid(120, 120), 4, m) // 4x vertices
	ratio := big / small
	if ratio < 3.0 || ratio > 5.0 {
		t.Fatalf("4x vertices gave %.2fx makespan; expected ~4x", ratio)
	}
}

func TestSimFaultRecovers(t *testing.T) {
	for _, restore := range []bool{false, true} {
		m := DefaultModel(2)
		pat := patterns.NewDiagonal(60, 60)
		s := mustSim(t, pat, 4, m)
		half := s.Active() / 2
		if got := s.RunUntil(half); got < half {
			t.Fatalf("stalled at %d/%d before fault", got, half)
		}
		rec, err := s.Fault(2, restore)
		if err != nil {
			t.Fatal(err)
		}
		if rec <= 0 {
			t.Fatal("zero recovery time")
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("restore=%v: %v", restore, err)
		}
		if res.ComputedCells <= s.Active() {
			t.Fatalf("restore=%v: no recomputation recorded (%d computed, %d active)",
				restore, res.ComputedCells, s.Active())
		}
		if res.RecoveryTime != rec {
			t.Fatalf("recovery time mismatch: %g vs %g", res.RecoveryTime, rec)
		}
	}
}

func TestSimRestoreRemoteRecomputesLess(t *testing.T) {
	run := func(restore bool) int64 {
		m := DefaultModel(2)
		s := mustSim(t, patterns.NewGrid(80, 80), 4, m)
		s.RunUntil(s.Active() / 2)
		if _, err := s.Fault(3, restore); err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.ComputedCells
	}
	drop := run(false)
	keep := run(true)
	if keep > drop {
		t.Fatalf("restore-remote recomputed more (%d) than drop (%d)", keep, drop)
	}
}

func TestSimRecoveryScalesDownWithPlaces(t *testing.T) {
	// Fig 13a shape: recovery on 8 places is about half of 4 places.
	rec := func(places int) float64 {
		m := DefaultModel(2)
		s := mustSim(t, patterns.NewDiagonal(96, 96), places, m)
		s.RunUntil(s.Active() / 2)
		r, err := s.Fault(places-1, false)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r4 := rec(4)
	r8 := rec(8)
	ratio := r4 / r8
	if ratio < 1.5 || ratio > 2.8 {
		t.Fatalf("recovery(4p)/recovery(8p) = %.2f, expected ~2", ratio)
	}
}

func TestSimRecoveryLinearInSize(t *testing.T) {
	rec := func(n int32) float64 {
		m := DefaultModel(2)
		s := mustSim(t, patterns.NewDiagonal(n, n), 4, m)
		s.RunUntil(s.Active() / 2)
		r, err := s.Fault(2, false)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	small := rec(40)
	big := rec(80) // 4x cells
	if ratio := big / small; math.Abs(ratio-4) > 1.0 {
		t.Fatalf("4x cells gave %.2fx recovery time; expected ~4x", ratio)
	}
}

func TestSimFaultErrors(t *testing.T) {
	m := DefaultModel(2)
	s := mustSim(t, patterns.NewGrid(10, 10), 3, m)
	if _, err := s.Fault(0, false); err == nil {
		t.Fatal("killing place 0 accepted")
	}
	s.RunUntil(10)
	if _, err := s.Fault(2, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fault(2, false); err == nil {
		t.Fatal("killing a dead place accepted")
	}
}

func TestSimRejectsBadModel(t *testing.T) {
	pat := patterns.NewGrid(4, 4)
	d := dist.NewBlockRow(4, 4, 2)
	m := DefaultModel(0)
	if _, err := New(pat, d, m); err == nil {
		t.Fatal("zero cores accepted")
	}
	m = DefaultModel(2)
	m.NetBandwidth = 0
	if _, err := New(pat, d, m); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := New(pat, dist.NewBlockRow(5, 5, 2), DefaultModel(2)); err == nil {
		t.Fatal("mismatched dist bounds accepted")
	}
}

func TestSimMoreCoresHelpWideDAG(t *testing.T) {
	pat := patterns.NewChain(64, 40) // 64 independent chains
	m1 := DefaultModel(1)
	m4 := DefaultModel(4)
	t1 := runMakespan(t, pat, 2, m1)
	t4 := runMakespan(t, pat, 2, m4)
	if t4 >= t1 {
		t.Fatalf("4 cores not faster than 1 on independent chains: %g vs %g", t4, t1)
	}
}

func TestSimUtilization(t *testing.T) {
	m := DefaultModel(2)
	m.ComputeCost = 1e-4
	s := mustSim(t, patterns.NewGrid(40, 40), 4, m)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		u := s.Utilization(p)
		if u <= 0 || u > 1.0001 {
			t.Fatalf("place %d utilization %f out of (0,1]", p, u)
		}
	}
	if s.Utilization(99) != 0 {
		t.Fatal("unknown place has nonzero utilization")
	}
}

func TestSimChaosInflatesMakespan(t *testing.T) {
	// The chaos arm is an expectation model over message costs only: drops
	// scale transfer cost by expected retransmissions, duplicates burn
	// bandwidth, injected delay adds latency. None of it changes what is
	// computed or fetched — only when.
	pat := patterns.NewDiagonal(40, 40)
	run := func(m Model) Result {
		s := mustSim(t, pat, 4, m)
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	calm := run(DefaultModel(2))
	stormy := DefaultModel(2)
	stormy.ChaosDropProb = 0.2
	stormy.ChaosDupProb = 0.1
	stormy.ChaosDelayMean = 5 * stormy.NetLatency
	chaos := run(stormy)
	if chaos.Makespan <= calm.Makespan {
		t.Fatalf("chaos makespan %g not above fault-free %g", chaos.Makespan, calm.Makespan)
	}
	if chaos.ComputedCells != calm.ComputedCells || chaos.RemoteFetches != calm.RemoteFetches {
		t.Fatalf("chaos model changed semantics: %+v vs %+v", chaos, calm)
	}
	// Severity is monotone: a harsher plan costs at least as much.
	harsher := stormy
	harsher.ChaosDropProb = 0.5
	if worse := run(harsher); worse.Makespan < chaos.Makespan {
		t.Fatalf("drop 0.5 makespan %g below drop 0.2 makespan %g", worse.Makespan, chaos.Makespan)
	}
}

// TestSimChaosPricesFetches pins that the chaos model reaches dependency
// fetches, not only decrements: on a single column dealt row by row over
// two places, every step of the chain is one decrement and one fetch
// across the link, and with compute and bandwidth negligible the makespan
// is all latency. A drop probability of 1/2 doubles the expected cost of
// every message, so it must double the makespan; pricing the fetch
// without the chaos fields leaves it at 1.5x.
func TestSimChaosPricesFetches(t *testing.T) {
	const h = 64
	pat := patterns.NewGrid(h, 1)
	run := func(drop float64) float64 {
		m := DefaultModel(1)
		m.ComputeCost = 1e-12
		m.NetBandwidth = 1e18
		m.ChaosDropProb = drop
		s, err := New(pat, dist.NewCyclicRow(h, 1, 2), m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	calm, lossy := run(0), run(0.5)
	if r := lossy / calm; math.Abs(r-2) > 1e-3 {
		t.Fatalf("drop 0.5 makespan %g = %.4fx fault-free %g, want 2x", lossy, r, calm)
	}
}
