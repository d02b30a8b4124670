package dpx10_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"github.com/dpx10/dpx10"
)

// swApp is the paper's Figure 7 Smith-Waterman demo, ported verbatim:
// match +2, mismatch -1, gap -1, diagonal DAG pattern.
type swApp struct {
	a, b       string
	finished   atomic.Int32
	best       atomic.Int32
	onFinished func(dag *dpx10.Dag[int32])
	onCompute  func() // test hook, called before each cell computes
}

func (s *swApp) Compute(i, j int32, deps []dpx10.Cell[int32]) int32 {
	if s.onCompute != nil {
		s.onCompute()
	}
	if i == 0 || j == 0 {
		return 0
	}
	var diag, up, left int32
	for _, d := range deps {
		switch {
		case d.ID.I == i-1 && d.ID.J == j-1:
			diag = d.Value
		case d.ID.I == i-1 && d.ID.J == j:
			up = d.Value
		case d.ID.I == i && d.ID.J == j-1:
			left = d.Value
		}
	}
	score := diag - 1
	if s.a[i-1] == s.b[j-1] {
		score = diag + 2
	}
	v := max(int32(0), score, up-1, left-1)
	if v > s.best.Load() {
		s.best.Store(v)
	}
	return v
}

func (s *swApp) AppFinished(dag *dpx10.Dag[int32]) {
	s.finished.Add(1)
	if s.onFinished != nil {
		s.onFinished(dag)
	}
}

// serialSW is the straightforward nested-loop Smith-Waterman.
func serialSW(a, b string) [][]int32 {
	h := make([][]int32, len(a)+1)
	for i := range h {
		h[i] = make([]int32, len(b)+1)
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			s := h[i-1][j-1] - 1
			if a[i-1] == b[j-1] {
				s = h[i-1][j-1] + 2
			}
			h[i][j] = max(0, s, h[i-1][j]-1, h[i][j-1]-1)
		}
	}
	return h
}

func TestSmithWatermanMatchesSerial(t *testing.T) {
	a := "GGTTGACTAGGTTGACTAGGTTGACTA"
	b := "TGTTACGGACCGTTACGGAC"
	app := &swApp{a: a, b: b}
	dag, err := dpx10.Run[int32](app, dpx10.DiagonalPattern(int32(len(a)+1), int32(len(b)+1)),
		dpx10.Places(4), dpx10.Threads(2), dpx10.WithCodec[int32](dpx10.Int32Codec{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := serialSW(a, b)
	for i := int32(0); i <= int32(len(a)); i++ {
		for j := int32(0); j <= int32(len(b)); j++ {
			if got := dag.Result(i, j); got != want[i][j] {
				t.Fatalf("H(%d,%d) = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
	if app.finished.Load() != 1 {
		t.Fatalf("AppFinished called %d times, want 1", app.finished.Load())
	}
	if dag.Height() != int32(len(a)+1) || dag.Width() != int32(len(b)+1) {
		t.Fatalf("bounds = %dx%d", dag.Height(), dag.Width())
	}
	if dag.Stats().ComputedCells == 0 || dag.Elapsed() <= 0 {
		t.Fatal("run stats empty")
	}
}

func TestAppFinishedSeesResults(t *testing.T) {
	app := &swApp{a: "ACGT", b: "ACGT"}
	var sawBest int32 = -1
	app.onFinished = func(dag *dpx10.Dag[int32]) {
		sawBest = dag.Result(4, 4)
	}
	if _, err := dpx10.Run[int32](app, dpx10.DiagonalPattern(5, 5), dpx10.Places(2)); err != nil {
		t.Fatal(err)
	}
	if sawBest != 8 { // 4 matches x +2
		t.Fatalf("AppFinished saw H(4,4) = %d, want 8", sawBest)
	}
}

func TestRunOptions(t *testing.T) {
	a, b := "ACGTACGTAC", "TACGTACG"
	want := serialSW(a, b)
	pat := func() dpx10.Pattern { return dpx10.DiagonalPattern(int32(len(a)+1), int32(len(b)+1)) }
	check := func(t *testing.T, opts ...dpx10.Option[int32]) {
		t.Helper()
		app := &swApp{a: a, b: b}
		dag, err := dpx10.Run[int32](app, pat(), opts...)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		for i := 0; i <= len(a); i++ {
			for j := 0; j <= len(b); j++ {
				if got := dag.Result(int32(i), int32(j)); got != want[i][j] {
					t.Fatalf("H(%d,%d) = %d, want %d", i, j, got, want[i][j])
				}
			}
		}
	}
	t.Run("blockcol", func(t *testing.T) {
		check(t, dpx10.Places(3), dpx10.WithDist(dpx10.BlockColDist))
	})
	t.Run("cyclicrow+cache", func(t *testing.T) {
		check(t, dpx10.Places(3), dpx10.WithDist(dpx10.CyclicRowDist), dpx10.CacheSize(32))
	})
	t.Run("mincomm", func(t *testing.T) {
		check(t, dpx10.Places(3), dpx10.WithStrategy(dpx10.MinCommScheduling))
	})
	t.Run("random", func(t *testing.T) {
		check(t, dpx10.Places(3), dpx10.WithStrategy(dpx10.RandomScheduling))
	})
	t.Run("customdist", func(t *testing.T) {
		check(t, dpx10.Places(3), dpx10.WithDist(dpx10.CustomDist(func(i, j int32, places int) int {
			return int((i + j)) % places
		})))
	})
}

func TestLaunchKillRecovers(t *testing.T) {
	a, b := "GATTACAGATTACAGATTACAGATTACA", "CATACGATTACATACGATTACA"
	// Gate the computation so the kill deterministically lands mid-run:
	// after 50 cells, every further compute blocks until the kill is done.
	gate := make(chan struct{})
	resume := make(chan struct{})
	var count atomic.Int64
	app := &swApp{a: a, b: b}
	app.onCompute = func() {
		n := count.Add(1)
		if n == 50 {
			close(gate)
		}
		if n >= 50 {
			<-resume
		}
	}
	job, err := dpx10.Launch[int32](app, dpx10.DiagonalPattern(int32(len(a)+1), int32(len(b)+1)),
		dpx10.Places(4), dpx10.WithCodec[int32](dpx10.Int32Codec{}))
	if err != nil {
		t.Fatal(err)
	}
	<-gate
	job.Kill(2)
	close(resume)
	dag, err := job.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if dag.Stats().Recoveries < 1 {
		t.Fatal("no recovery recorded")
	}
	want := serialSW(a, b)
	for i := 0; i <= len(a); i++ {
		for j := 0; j <= len(b); j++ {
			if got := dag.Result(int32(i), int32(j)); got != want[i][j] {
				t.Fatalf("post-recovery H(%d,%d) = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
}

func TestKillPlaceZero(t *testing.T) {
	// No cell computes until the kill has landed: a 441-cell run can
	// otherwise finish before this goroutine gets to call Kill.
	killed := make(chan struct{})
	app := &swApp{a: "AAAAAAAAAAAAAAAAAAAA", b: "AAAAAAAAAAAAAAAAAAAA", onCompute: func() { <-killed }}
	job, err := dpx10.Launch[int32](app, dpx10.DiagonalPattern(21, 21), dpx10.Places(3))
	if err != nil {
		t.Fatal(err)
	}
	job.Kill(0)
	close(killed)
	if _, err := job.Wait(); !errors.Is(err, dpx10.ErrPlaceZeroDead) {
		t.Fatalf("err = %v, want ErrPlaceZeroDead", err)
	}
}

func TestNilAppRejected(t *testing.T) {
	if _, err := dpx10.Run[int32](nil, dpx10.GridPattern(2, 2)); err == nil {
		t.Fatal("nil app accepted")
	}
}

func TestCheckPatternOnCustom(t *testing.T) {
	ks, err := dpx10.KnapsackPattern([]int32{2, 3, 4}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := dpx10.CheckPattern(ks); err != nil {
		t.Fatalf("CheckPattern(knapsack): %v", err)
	}
	for _, p := range []dpx10.Pattern{
		dpx10.GridPattern(5, 5), dpx10.DiagonalPattern(5, 6), dpx10.RowWavePattern(4, 4),
		dpx10.IntervalPattern(5), dpx10.ColWavePattern(4, 4), dpx10.ChainPattern(3, 6),
		dpx10.TrianglePattern(5), dpx10.BandedPattern(6, 6, 2),
	} {
		if err := dpx10.CheckPattern(p); err != nil {
			t.Fatalf("CheckPattern: %v", err)
		}
	}
}

func TestJobCancel(t *testing.T) {
	a := "GATTACAGATTACAGATTACAGATTACAGATTACA"
	gate := make(chan struct{})
	resume := make(chan struct{})
	var count atomic.Int64
	app := &swApp{a: a, b: a}
	app.onCompute = func() {
		if count.Add(1) == 20 {
			close(gate)
		}
		if count.Load() >= 20 {
			<-resume
		}
	}
	job, err := dpx10.Launch[int32](app, dpx10.DiagonalPattern(int32(len(a)+1), int32(len(a)+1)),
		dpx10.Places(3))
	if err != nil {
		t.Fatal(err)
	}
	<-gate
	job.Cancel()
	close(resume)
	if _, err := job.Wait(); !errors.Is(err, dpx10.ErrCanceled) {
		t.Fatalf("Wait after Cancel = %v, want ErrCanceled", err)
	}
}

func TestBlock2DDistOption(t *testing.T) {
	app := &swApp{a: "ACGTACGTACGTACGT", b: "TGCATGCATGCATGCA"}
	dag, err := dpx10.Run[int32](app, dpx10.DiagonalPattern(17, 17),
		dpx10.Places(4), dpx10.WithDist(dpx10.Block2DDist(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	want := serialSW(app.a, app.b)
	for i := 0; i <= 16; i++ {
		for j := 0; j <= 16; j++ {
			if got := dag.Result(int32(i), int32(j)); got != want[i][j] {
				t.Fatalf("H(%d,%d) = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
}

func TestBlockCyclicDistOption(t *testing.T) {
	a, b := "GATTACAGATTACAGATTACA", "CATACGATTACATACGAT"
	app := &swApp{a: a, b: b}
	dag, err := dpx10.Run[int32](app, dpx10.DiagonalPattern(int32(len(a)+1), int32(len(b)+1)),
		dpx10.Places(3), dpx10.WithDist(dpx10.BlockCyclicRowDist(2)))
	if err != nil {
		t.Fatal(err)
	}
	want := serialSW(a, b)
	for i := 0; i <= len(a); i++ {
		for j := 0; j <= len(b); j++ {
			if got := dag.Result(int32(i), int32(j)); got != want[i][j] {
				t.Fatalf("H(%d,%d) = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
}
