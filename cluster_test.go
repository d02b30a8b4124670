package dpx10_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/metrics"
)

func newSWPair() (*swApp, dpx10.Pattern) {
	a := "GGTTGACTAGGTTGACTA"
	b := "TGTTACGGACCGTTACGG"
	return &swApp{a: a, b: b}, dpx10.DiagonalPattern(int32(len(a)+1), int32(len(b)+1))
}

func checkSWApp(t *testing.T, app *swApp, dag *dpx10.Dag[int32]) {
	t.Helper()
	want := serialSW(app.a, app.b)
	for i := int32(0); i < dag.Height(); i++ {
		for j := int32(0); j < dag.Width(); j++ {
			if got := dag.Result(i, j); got != want[i][j] {
				t.Fatalf("cell (%d,%d) = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
	if app.finished.Load() != 1 {
		t.Fatalf("AppFinished ran %d times", app.finished.Load())
	}
}

func TestNewClusterRejectsJobOptions(t *testing.T) {
	_, err := dpx10.NewCluster(dpx10.Places(2), dpx10.WithTileSize(4))
	var se *dpx10.OptionScopeError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want *OptionScopeError", err)
	}
	if se.Option != "WithTileSize" || se.Scope != "job" || se.Call != "NewCluster" {
		t.Fatalf("unexpected error fields: %+v", se)
	}
}

func TestSubmitRejectsClusterOptions(t *testing.T) {
	c, err := dpx10.NewCluster(dpx10.Places(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	app, pat := newSWPair()
	_, err = dpx10.Submit[int32](context.Background(), c, app, pat, dpx10.Threads(4))
	var se *dpx10.OptionScopeError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want *OptionScopeError", err)
	}
	if se.Option != "Threads" || se.Scope != "cluster" || se.Call != "Submit" {
		t.Fatalf("unexpected error fields: %+v", se)
	}
	// The rejection must not poison the cluster.
	job, err := dpx10.Submit[int32](context.Background(), c, app, pat)
	if err != nil {
		t.Fatal(err)
	}
	dag, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkSWApp(t, app, dag)
}

// TestBadDistributionFailsAtSubmit gives WithDist layouts their
// constructors reject — a zero block, a zero grid side, a mapping past the
// last place, a DistKind that names no built-in layout — and a grid that
// does not cover the cluster's places. Each is an error from Run, and from
// Submit on a persistent cluster, which then still runs a valid job; none
// panics on a job's goroutine.
func TestBadDistributionFailsAtSubmit(t *testing.T) {
	bad := map[string]dpx10.Layout{
		"blockcyclic(0)": dpx10.BlockCyclicRowDist(0),
		"block2d(0x4)":   dpx10.Block2DDist(0, 4),
		"block2d(3x3)":   dpx10.Block2DDist(3, 3),
		"custom(n)":      dpx10.CustomDist(func(_, _ int32, n int) int { return n }),
		"kind(diagonal)": dpx10.DistKind("diagonal"),
	}
	c, err := dpx10.NewCluster(dpx10.Places(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for name, l := range bad {
		app, pat := newSWPair()
		if _, err := dpx10.Run[int32](app, pat, dpx10.Places(4), dpx10.WithDist(l)); err == nil {
			t.Errorf("%s: Run succeeded", name)
		}
		if _, err := dpx10.Submit[int32](context.Background(), c, app, pat, dpx10.WithDist(l)); err == nil {
			t.Errorf("%s: Submit succeeded", name)
		}
	}
	app, pat := newSWPair()
	job, err := dpx10.Submit[int32](context.Background(), c, app, pat)
	if err != nil {
		t.Fatal(err)
	}
	dag, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkSWApp(t, app, dag)
}

func TestClusterTwoConcurrentJobs(t *testing.T) {
	c, err := dpx10.NewCluster(dpx10.Places(4), dpx10.Threads(2), dpx10.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	app1, pat1 := newSWPair()
	app2, pat2 := newSWPair()
	j1, err := dpx10.Submit[int32](ctx, c, app1, pat1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := dpx10.Submit[int32](ctx, c, app2, pat2, dpx10.WithTileSize(8))
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID() == j2.ID() {
		t.Fatalf("jobs share id %d", j1.ID())
	}
	d1, err := j1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := j2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkSWApp(t, app1, d1)
	checkSWApp(t, app2, d2)
	for _, info := range c.Jobs() {
		if info.State != dpx10.JobFinished {
			t.Fatalf("job %d still %s after Wait", info.ID, info.State)
		}
	}
	// The shared registries partition tile counts by job: the job.* vector
	// slots must sum to the scheduler totals on every place.
	for _, s := range c.Metrics() {
		var jobs int64
		for _, v := range s.Vecs[metrics.JobTilesExecuted] {
			jobs += v
		}
		if want := s.Counters[metrics.SchedTilesExecuted]; jobs != want {
			t.Fatalf("place %d: job tile slots sum to %d, scheduler counter %d", s.Place, jobs, want)
		}
	}
}

func TestClusterAdmissionQueue(t *testing.T) {
	c, err := dpx10.NewCluster(dpx10.Places(2), dpx10.MaxActiveJobs(1), dpx10.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	gate := make(chan struct{})
	appA, patA := newSWPair()
	appA.onCompute = func() { <-gate }
	appB, patB := newSWPair()
	jA, err := dpx10.Submit[int32](ctx, c, appA, patA)
	if err != nil {
		t.Fatal(err)
	}
	jB, err := dpx10.Submit[int32](ctx, c, appB, patB)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if a, q := c.ActiveJobs(); a == 1 && q == 1 {
			break
		}
		if time.Now().After(deadline) {
			a, q := c.ActiveJobs()
			t.Fatalf("admission state (%d active, %d queued), want (1, 1)", a, q)
		}
		time.Sleep(time.Millisecond)
	}
	var queued bool
	for _, info := range c.Jobs() {
		if info.ID == jB.ID() && info.State == dpx10.JobQueued {
			queued = true
		}
	}
	if !queued {
		t.Fatalf("job %d not reported queued: %+v", jB.ID(), c.Jobs())
	}
	close(gate)
	dA, err := jA.Wait()
	if err != nil {
		t.Fatal(err)
	}
	dB, err := jB.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkSWApp(t, appA, dA)
	checkSWApp(t, appB, dB)
	if jB.QueueWait() <= 0 {
		t.Fatal("queued job reports zero queue wait")
	}
	if a, q := c.ActiveJobs(); a != 0 || q != 0 {
		t.Fatalf("cluster not drained: (%d active, %d queued)", a, q)
	}
}

func TestSubmitContextCancelWhileQueued(t *testing.T) {
	c, err := dpx10.NewCluster(dpx10.Places(2), dpx10.MaxActiveJobs(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	gate := make(chan struct{})
	defer close(gate)
	appA, patA := newSWPair()
	appA.onCompute = func() { <-gate }
	if _, err := dpx10.Submit[int32](context.Background(), c, appA, patA); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	appB, patB := newSWPair()
	jB, err := dpx10.Submit[int32](ctx, c, appB, patB)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := jB.Wait(); err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("queued job canceled via ctx returned %v", err)
	}
	if appB.finished.Load() != 0 {
		t.Fatal("canceled job ran AppFinished")
	}
}
