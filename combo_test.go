package dpx10_test

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/apps"
	"github.com/dpx10/dpx10/internal/core"
	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/option"
	"github.com/dpx10/dpx10/internal/workload"
)

// Combination tests: features that interact (strategies × recovery ×
// spilling × tracing × snapshots) exercised together through the public
// API, each verified against the serial reference.

func TestMinCommStrategySurvivesFault(t *testing.T) {
	a := workload.Sequence(40, workload.DNA, 1)
	b := workload.Sequence(40, workload.DNA, 2)
	app := apps.NewSW(a, b)
	gate := make(chan struct{})
	resume := make(chan struct{})
	var count atomic.Int64
	gapp := &gatedSW{inner: app, gate: gate, resume: resume, count: &count, at: 200}
	job, err := dpx10.Launch[int32](gapp, app.Pattern(),
		dpx10.Places(4),
		dpx10.WithStrategy(dpx10.MinCommScheduling),
		dpx10.WithCodec[int32](dpx10.Int32Codec{}))
	if err != nil {
		t.Fatal(err)
	}
	<-gate
	job.Kill(2)
	close(resume)
	dag, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(dag); err != nil {
		t.Fatal(err)
	}
}

func TestRandomStrategySurvivesFault(t *testing.T) {
	a := workload.Sequence(36, workload.DNA, 3)
	b := workload.Sequence(36, workload.DNA, 4)
	app := apps.NewSW(a, b)
	gate := make(chan struct{})
	resume := make(chan struct{})
	var count atomic.Int64
	gapp := &gatedSW{inner: app, gate: gate, resume: resume, count: &count, at: 180}
	job, err := dpx10.Launch[int32](gapp, app.Pattern(),
		dpx10.Places(4),
		dpx10.WithStrategy(dpx10.RandomScheduling),
		dpx10.WithCodec[int32](dpx10.Int32Codec{}))
	if err != nil {
		t.Fatal(err)
	}
	<-gate
	job.Kill(3)
	close(resume)
	dag, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(dag); err != nil {
		t.Fatal(err)
	}
}

// gatedSW wraps an SW app with a fault-injection gate.
type gatedSW struct {
	inner  *apps.SW
	gate   chan struct{}
	resume chan struct{}
	count  *atomic.Int64
	at     int64
}

func (g *gatedSW) Compute(i, j int32, deps []dpx10.Cell[int32]) int32 {
	n := g.count.Add(1)
	if n == g.at {
		close(g.gate)
	}
	if n >= g.at {
		<-g.resume
	}
	return g.inner.Compute(i, j, deps)
}

func (g *gatedSW) AppFinished(dag *dpx10.Dag[int32]) { g.inner.AppFinished(dag) }

func TestDefaultGobCodecStructValues(t *testing.T) {
	// No WithCodec: the framework must fall back to gob for struct values.
	a := workload.Sequence(20, workload.DNA, 5)
	b := workload.Sequence(24, workload.DNA, 6)
	app := apps.NewSWLAG(a, b)
	dag, err := dpx10.Run[apps.AffineCell](app, app.Pattern(), dpx10.Places(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(dag); err != nil {
		t.Fatal(err)
	}
}

func TestSpillStealTraceTogether(t *testing.T) {
	app := apps.NewMTP(60, 60, 100, 9)
	dag, err := dpx10.Run[int64](app, app.Pattern(),
		dpx10.Places(4),
		dpx10.WithCodec[int64](dpx10.Int64Codec{}),
		dpx10.WithStrategy(dpx10.StealScheduling),
		dpx10.WithSpill(t.TempDir(), 64, 4),
		dpx10.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(dag); err != nil {
		t.Fatal(err)
	}
	if total := dpx10.MergeMetrics(dag.Metrics()).Counters[metrics.SchedCellsExecuted]; total < 60*60 {
		t.Fatalf("places counted %d executed cells, want >= %d", total, 60*60)
	}
}

// withSnapshotOverheadOnly keeps the paper's recovery mechanism but also
// writes periodic snapshots, to measure the snapshot baseline's fault-free
// cost.
func withSnapshotOverheadOnly(store *dpx10.SnapshotStore[int64], every int64) dpx10.Option[int64] {
	return option.Typed("WithSnapshotOverheadOnly", func(c *core.Config[int64]) {
		c.Snapshot = store
		c.SnapshotEvery = every
	})
}

func TestSnapshotOverheadOnlyMode(t *testing.T) {
	// Snapshots are written but recovery stays redistribution-based.
	app := apps.NewMTP(50, 50, 100, 4)
	store := dpx10.NewSnapshotStore[int64]()
	gate := make(chan struct{})
	resume := make(chan struct{})
	var count atomic.Int64
	gapp := &gatedMTP{inner: app, gate: gate, resume: resume, count: &count, at: 1200}
	job, err := dpx10.Launch[int64](gapp, app.Pattern(),
		dpx10.Places(4),
		dpx10.WithCodec[int64](dpx10.Int64Codec{}),
		withSnapshotOverheadOnly(store, 200))
	if err != nil {
		t.Fatal(err)
	}
	<-gate
	job.Kill(2)
	close(resume)
	dag, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(dag); err != nil {
		t.Fatal(err)
	}
	if snaps, bytes := store.Stats(); snaps == 0 || bytes == 0 {
		t.Fatalf("overhead-only mode wrote no snapshots (%d, %d)", snaps, bytes)
	}
}

type gatedMTP struct {
	inner  *apps.MTP
	gate   chan struct{}
	resume chan struct{}
	count  *atomic.Int64
	at     int64
}

func (g *gatedMTP) Compute(i, j int32, deps []dpx10.Cell[int64]) int64 {
	n := g.count.Add(1)
	if n == g.at {
		close(g.gate)
	}
	if n >= g.at {
		<-g.resume
	}
	return g.inner.Compute(i, j, deps)
}

func (g *gatedMTP) AppFinished(dag *dpx10.Dag[int64]) { g.inner.AppFinished(dag) }

func TestTransposedPatternEndToEnd(t *testing.T) {
	// An app written for a transposed orientation must still verify: run
	// MTP's grid transposed with a compute that swaps coordinates back.
	base := apps.NewMTP(30, 44, 100, 12)
	tp := struct{ dpx10.Pattern }{dpx10.Pattern(transposedGrid{h: 44, w: 30})}
	dag, err := dpx10.Run[int64](&transposedMTP{inner: base}, tp.Pattern,
		dpx10.Places(3), dpx10.WithCodec[int64](dpx10.Int64Codec{}))
	if err != nil {
		t.Fatal(err)
	}
	want := base.Serial()
	for i := int32(0); i < 30; i++ {
		for j := int32(0); j < 44; j++ {
			if got := dag.Result(j, i); got != want[i][j] {
				t.Fatalf("transposed cell (%d,%d) = %d, want %d", j, i, got, want[i][j])
			}
		}
	}
}

// transposedGrid is MTP's Grid pattern with axes swapped, built on the
// pattern library's Transpose combinator via the public API surface.
type transposedGrid struct{ h, w int32 }

func (p transposedGrid) Bounds() (int32, int32) { return p.h, p.w }
func (p transposedGrid) Dependencies(i, j int32, buf []dpx10.VertexID) []dpx10.VertexID {
	if j > 0 {
		buf = append(buf, dpx10.VertexID{I: i, J: j - 1})
	}
	if i > 0 {
		buf = append(buf, dpx10.VertexID{I: i - 1, J: j})
	}
	return buf
}
func (p transposedGrid) AntiDependencies(i, j int32, buf []dpx10.VertexID) []dpx10.VertexID {
	if j+1 < p.w {
		buf = append(buf, dpx10.VertexID{I: i, J: j + 1})
	}
	if i+1 < p.h {
		buf = append(buf, dpx10.VertexID{I: i + 1, J: j})
	}
	return buf
}

// transposedMTP evaluates MTP at swapped coordinates.
type transposedMTP struct{ inner *apps.MTP }

func (m *transposedMTP) Compute(i, j int32, deps []dpx10.Cell[int64]) int64 {
	swapped := make([]dpx10.Cell[int64], len(deps))
	for k, d := range deps {
		swapped[k] = dpx10.Cell[int64]{ID: dpx10.VertexID{I: d.ID.J, J: d.ID.I}, Value: d.Value}
	}
	return m.inner.Compute(j, i, swapped)
}

func (m *transposedMTP) AppFinished(*dpx10.Dag[int64]) {}

// TestAggregationIsSelfClocked runs SWLAG over every producer path of the
// decrement aggregator: cyclic rows (every row crosses places; single-cell
// tiles), block rows (tile walks) and stealing (completions arrive through
// the steal-done handler, and lifeline pushes land in the inbox) over
// block columns and over cyclic rows. No timer backs the flusher, so
// each path must kick it itself; one that did not would sit on its last
// partial batch until the timeout below.
func TestAggregationIsSelfClocked(t *testing.T) {
	a := workload.Sequence(90, workload.DNA, 11)
	b := workload.Sequence(90, workload.DNA, 12)
	arms := map[string][]dpx10.Option[apps.AffineCell]{
		"cyclic-rows": {dpx10.WithDist(dpx10.CyclicRowDist)},
		"block-rows":  {},
		"steal":       {dpx10.WithStrategy(dpx10.StealScheduling), dpx10.WithDist(dpx10.BlockColDist)},
		"lifelines":   {dpx10.WithStrategy(dpx10.StealScheduling), dpx10.WithDist(dpx10.CyclicRowDist)},
	}
	for name, arm := range arms {
		arm := arm
		t.Run(name, func(t *testing.T) {
			app := apps.NewSWLAG(a, b)
			opts := append([]dpx10.Option[apps.AffineCell]{
				dpx10.Places(2), dpx10.Threads(2), dpx10.CacheSize(1024),
				dpx10.WithCodec[apps.AffineCell](app.Codec()),
			}, arm...)
			type result struct {
				dag *dpx10.Dag[apps.AffineCell]
				err error
			}
			done := make(chan result, 1)
			go func() {
				dag, err := dpx10.Run[apps.AffineCell](app, app.Pattern(), opts...)
				done <- result{dag, err}
			}()
			select {
			case r := <-done:
				if r.err != nil {
					t.Fatal(r.err)
				}
				if st := r.dag.Stats(); st.AggBatches == 0 {
					t.Fatal("no aggregated batch was sent: the arm did not exercise the aggregator")
				}
				if err := app.Verify(r.dag); err != nil {
					t.Fatal(err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("run still waiting after 60s: a producer path does not kick the flusher")
			}
		})
	}
}
