package dpx10_test

import (
	"testing"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/metrics"
)

// TestTraceCollectsUtilization reads the per-place load -trace reports from
// the metrics registry: cells computed per place, which sum to the run's,
// their imbalance, and busy time wherever cells ran.
func TestTraceCollectsUtilization(t *testing.T) {
	a, b := "ACGTACGTACGTACGTACGT", "TGCATGCATGCATGCA"
	app := &swApp{a: a, b: b}
	dag, err := dpx10.Run[int32](app, dpx10.DiagonalPattern(int32(len(a)+1), int32(len(b)+1)),
		dpx10.Places(3), dpx10.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	snaps := dag.Metrics()
	if len(snaps) != 3 {
		t.Fatalf("%d snapshots, want 3", len(snaps))
	}
	var total int64
	for _, s := range snaps {
		cells := s.Counters[metrics.SchedCellsExecuted]
		total += cells
		if busy := s.Counters[metrics.SchedBusyNs]; cells > 0 && busy <= 0 {
			t.Errorf("place %d computed %d cells in %dns busy", s.Place, cells, busy)
		}
	}
	if total != dag.Stats().ComputedCells {
		t.Fatalf("places counted %d cells, engine computed %d", total, dag.Stats().ComputedCells)
	}
	if imb := metrics.Imbalance(snaps); imb < 1 {
		t.Fatalf("imbalance %f < 1", imb)
	}
}
