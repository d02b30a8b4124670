package cli

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/dpx10/dpx10/internal/apps"
	"github.com/dpx10/dpx10/internal/dag"
)

func smallParams(app string) Params {
	return Params{
		App: app, M: 40, N: 36, Items: 10, Capacity: 60,
		Seed: 3, Places: 3, Threads: 2, Verify: true, Kill: -1,
	}
}

func TestRunLocalAllApps(t *testing.T) {
	for _, app := range AppNames() {
		app := app
		t.Run(app, func(t *testing.T) {
			p := smallParams(app)
			if app == "matrixchain" {
				p.M = 14 // chain length, O(n^3) work
			}
			if app == "viterbi" {
				p.M, p.N = 30, 5 // timesteps, states
			}
			var out bytes.Buffer
			if err := RunLocal(p, &out); err != nil {
				t.Fatalf("RunLocal: %v", err)
			}
			got := out.String()
			if !strings.Contains(got, "verified against serial reference: OK") {
				t.Fatalf("missing verification line:\n%s", got)
			}
			if !strings.Contains(got, "elapsed") {
				t.Fatalf("missing stats line:\n%s", got)
			}
		})
	}
}

func TestRunLocalWithKill(t *testing.T) {
	p := smallParams("mtp")
	// Large enough that the run outlasts the kill goroutine's 1 ms progress
	// poll many times over: at 120x120 the whole run takes a few
	// milliseconds and the poll can sleep through the second half.
	p.M, p.N = 600, 600
	p.Places = 4
	p.Kill = 2
	var out bytes.Buffer
	if err := RunLocal(p, &out); err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "killing place 2") {
		t.Fatalf("fault injection never fired:\n%s", got)
	}
	if !strings.Contains(got, "recoveries=1") {
		t.Fatalf("no recovery recorded:\n%s", got)
	}
	if !strings.Contains(got, "verified against serial reference: OK") {
		t.Fatalf("result wrong after recovery:\n%s", got)
	}
}

func TestRunLocalOptionsMatrix(t *testing.T) {
	for _, strat := range []string{"local", "random", "mincomm", "steal"} {
		for _, dist := range []string{"blockrow", "blockcol", "cyclicrow", "cycliccol"} {
			p := smallParams("lcs")
			p.Strategy = strat
			p.Dist = dist
			p.Cache = 16
			var out bytes.Buffer
			if err := RunLocal(p, &out); err != nil {
				t.Fatalf("%s/%s: %v", strat, dist, err)
			}
		}
	}
}

func TestRunLocalRejectsBadInput(t *testing.T) {
	p := smallParams("nosuchapp")
	if err := RunLocal(p, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown app accepted")
	}
	p = smallParams("lcs")
	p.Strategy = "bogus"
	if err := RunLocal(p, &bytes.Buffer{}); err == nil {
		t.Fatal("bad strategy accepted")
	}
	p = smallParams("lcs")
	p.Dist = "bogus"
	if err := RunLocal(p, &bytes.Buffer{}); err == nil {
		t.Fatal("bad dist accepted")
	}
}

// boundAddrs returns a Params.exchangeAddrs for an n-place cluster whose
// workers all listen on port 0: each call publishes the caller's bound
// address and returns the full table once every place has published. A
// worker that returns without publishing (a setup error) must call giveUp,
// which hands the others a nil table: they fail in SetAddrTable and the
// test reports every place's error instead of hanging in the barrier.
func boundAddrs(n int) (exchange func(self int, bound string) []string, giveUp func(self int)) {
	table := make([]string, n)
	arrived := make([]sync.Once, n)
	var all sync.WaitGroup
	all.Add(n)
	var short atomic.Bool
	exchange = func(self int, bound string) []string {
		table[self] = bound
		arrived[self].Do(all.Done)
		all.Wait()
		if short.Load() {
			return nil
		}
		return table
	}
	giveUp = func(self int) {
		arrived[self].Do(func() { short.Store(true); all.Done() })
	}
	return exchange, giveUp
}

// runWorkers runs p as three TCP places in one process and returns what each
// printed, reporting each place's error.
func runWorkers(t *testing.T, p Params) []bytes.Buffer {
	t.Helper()
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"}
	exchange, giveUp := boundAddrs(len(addrs))
	p.exchangeAddrs = exchange
	var wg sync.WaitGroup
	outs := make([]bytes.Buffer, len(addrs))
	errs := make([]error, len(addrs))
	for place := range addrs {
		wg.Add(1)
		go func(place int) {
			defer wg.Done()
			defer giveUp(place)
			errs[place] = RunWorker(p, place, addrs, &outs[place])
		}(place)
	}
	wg.Wait()
	for place, err := range errs {
		if err != nil {
			t.Errorf("place %d: %v\n%s", place, err, outs[place].String())
		}
	}
	return outs
}

// TestRunWorkerAllApps runs every app in worker mode: place 0 fails the run
// unless the app's answer cell holds the serial reference's value.
func TestRunWorkerAllApps(t *testing.T) {
	for _, app := range AppNames() {
		t.Run(app, func(t *testing.T) {
			p := smallParams(app)
			switch app {
			case "matrixchain":
				p.M = 14
			case "viterbi":
				p.M, p.N = 30, 5
			}
			runWorkers(t, p)
		})
	}
}

// TestRunWorkerCluster runs apps as three TCP places in one process: the
// stencil SWLAG, the triangular matrix chain and the RowWave Viterbi, which
// worker mode runs from the same app table as RunLocal. The places' computed
// counts must sum to the pattern's active cells, and the coordinator prints
// the app's answer cell, whose value is the serial reference's.
func TestRunWorkerCluster(t *testing.T) {
	for _, tc := range []struct {
		app     string
		m, n    int
		pattern func(p Params) dag.Pattern
		answer  func(p Params) string // what the coordinator prints for job 0
	}{
		{"swlag", 40, 36, func(p Params) dag.Pattern { return apps.NewSWLAG(seqs(p)).Pattern() },
			func(p Params) string {
				return fmt.Sprintf("job 0 answer (%d,%d) = %v;", p.M, p.N, apps.NewSWLAG(seqs(p)).Serial()[p.M][p.N])
			}},
		{"matrixchain", 14, 36, func(p Params) dag.Pattern { return apps.NewRandomMatrixChain(p.M, 60, p.Seed).Pattern() },
			func(p Params) string {
				return fmt.Sprintf("job 0 answer (0,%d) = %v;", p.M-1, apps.NewRandomMatrixChain(p.M, 60, p.Seed).Serial()[0][p.M-1])
			}},
		{"viterbi", 30, 5, func(p Params) dag.Pattern { return apps.NewRandomViterbi(p.N, 6, p.M, p.Seed).Pattern() },
			func(p Params) string {
				return fmt.Sprintf("job 0 answer (%d,%d) = %v;", p.M-1, p.N-1, apps.NewRandomViterbi(p.N, 6, p.M, p.Seed).Serial()[p.M-1][p.N-1])
			}},
	} {
		t.Run(tc.app, func(t *testing.T) {
			p := smallParams(tc.app)
			p.M, p.N = tc.m, tc.n
			outs := runWorkers(t, p)
			if t.Failed() {
				return
			}
			if want := tc.answer(p); !strings.Contains(outs[0].String(), want) {
				t.Fatalf("coordinator summary lacks %q:\n%s", want, outs[0].String())
			}
			computed := 0
			for place := range outs {
				var n int
				out := outs[place].String()
				at := strings.Index(out, "computed=")
				if at < 0 {
					t.Fatalf("place %d printed no computed count:\n%s", place, out)
				}
				if _, err := fmt.Sscanf(out[at:], "computed=%d", &n); err != nil {
					t.Fatalf("place %d: %v:\n%s", place, err, out)
				}
				computed += n
			}
			pat := tc.pattern(p)
			h, w := pat.Bounds()
			active := 0
			for i := int32(0); i < h; i++ {
				for j := int32(0); j < w; j++ {
					if dag.IsActive(pat, i, j) {
						active++
					}
				}
			}
			if computed != active {
				t.Fatalf("places computed %d cells, the pattern has %d", computed, active)
			}
		})
	}
}

func TestRunWorkerRejectsUnsupportedApp(t *testing.T) {
	p := smallParams("nosuchapp")
	err := RunWorker(p, 0, []string{"127.0.0.1:0"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "unknown app") {
		t.Fatalf("unknown worker app: err %v, want an unknown-app error", err)
	}
}

func TestRunLocalChaosArm(t *testing.T) {
	p := smallParams("sw")
	p.M, p.N = 80, 80
	// Per-vertex tiles on cyclic rows: every cell fetches its N and NW
	// inputs from the place above, one call per cell (~6 500 reliable
	// messages), so a 5 % plan fires hundreds of times whatever the tiled
	// engine batches away.
	p.TileSize, p.Dist = 1, "cyclicrow"
	p.ChaosSeed, p.ChaosDrop, p.ChaosDup = 9, 0.05, 0.05
	p.HeartbeatMs, p.HeartbeatMiss = 2, 5
	var out bytes.Buffer
	if err := RunLocal(p, &out); err != nil {
		t.Fatalf("RunLocal under chaos: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "verified against serial reference: OK") {
		t.Fatalf("chaos run not verified:\n%s", got)
	}
	if !strings.Contains(got, "reliable delivery:") {
		t.Fatalf("missing reliable-delivery counters:\n%s", got)
	}
}
