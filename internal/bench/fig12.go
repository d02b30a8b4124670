package bench

import (
	"fmt"
	"math"
	"time"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/apps"
	"github.com/dpx10/dpx10/internal/native"
	"github.com/dpx10/dpx10/internal/workload"
)

// Fig12 reproduces Figure 12: the framework's overhead, measured by
// running SWLAG through DPX10 and through hand-written implementations on
// the same machine and sizes (cache disabled, identical configuration).
// The paper compares against a hand-written native X10 program and
// reports a DPX10/native ratio of 1.02–1.12.
//
// Two hand-written baselines bracket the comparison:
//
//   - native-vertex: a per-vertex wavefront with atomic progress counters
//     — hand-specialized code at the framework's scheduling granularity,
//     the closest analogue of the paper's native X10 program;
//   - native-strip: a strip-mined pipeline, the tightest hand coding,
//     which bounds from below what any per-vertex runtime can reach.
//
// Go's hand-written loops run a DP cell in tens of nanoseconds, while
// X10's per-activity cost is on the order of a microsecond — on both
// sides of the paper's comparison. The second table therefore sweeps a
// synthetic per-cell workload applied identically to all implementations:
// as the per-cell cost approaches the X10 regime, the DPX10/native ratio
// converges toward the paper's 1.02–1.12 band. EXPERIMENTS.md discusses
// the calibration.
func Fig12(quick bool) ([]Report, error) {
	baseCells := int64(1) * million
	if quick {
		baseCells = 40_000
	}
	sizeFactors := []int64{1, 2, 3, 4, 5}
	nodeCounts := []int{4, 8}

	sizeRep := Report{
		Title:  "Figure 12 — DPX10 vs hand-written SWLAG (real runtime, wall clock)",
		Header: []string{"nodes", "cells", "dpx10(s)", "native-vertex(s)", "native-strip(s)", "ratio(v)", "ratio(s)"},
	}
	for _, nodes := range nodeCounts {
		places := nodesToPlaces(nodes)
		for _, f := range sizeFactors {
			row, err := fig12Point(places, baseCells*f, 0, int64(nodes))
			if err != nil {
				return nil, fmt.Errorf("fig12 nodes=%d factor=%d: %w", nodes, f, err)
			}
			sizeRep.Add(row...)
		}
	}
	sizeRep.Notes = append(sizeRep.Notes,
		"cache disabled, as in the paper's overhead experiment",
		"paper reports DPX10/native-X10 = 1.02..1.12; see the work sweep below and EXPERIMENTS.md")

	workRep := Report{
		Title:  "Figure 12 (work sweep) — overhead ratio vs per-cell compute cost",
		Header: []string{"nodes", "cells", "work/cell", "dpx10(s)", "native-vertex(s)", "native-strip(s)", "ratio(v)", "ratio(s)"},
	}
	workCells := baseCells * 2
	for _, work := range []int{0, 50, 200, 800} {
		row, err := fig12Point(nodesToPlaces(4), workCells, work, 4)
		if err != nil {
			return nil, fmt.Errorf("fig12 work=%d: %w", work, err)
		}
		workRep.Add(append(row[:2], append([]string{d(int64(work))}, row[2:]...)...)...)
	}
	workRep.Notes = append(workRep.Notes,
		"work/cell = iterations of synthetic integer work added per cell to every implementation",
		"X10's per-activity cost (~1µs) corresponds to roughly the high end of this sweep")
	return []Report{sizeRep, workRep}, nil
}

// fig12Point measures one (places, cells, work) configuration and returns
// the formatted row [nodes, cells, dpx10, nativeV, nativeS, ratioV, ratioS].
func fig12Point(places int, cells int64, work int, nodes int64) ([]string, error) {
	side := int(math.Sqrt(float64(cells)))
	a := workload.Sequence(side, workload.DNA, 40+int64(work))
	b := workload.Sequence(side, workload.DNA, 80+int64(work))

	app := apps.NewSWLAG(a, b)
	app.Work = work
	dag, err := dpx10.Run[apps.AffineCell](app, app.Pattern(),
		append(typed[apps.AffineCell](ExtraRunOptions),
			dpx10.Places(places),
			dpx10.Threads(2),
			dpx10.WithCodec[apps.AffineCell](app.Codec()),
			dpx10.CacheSize(0))...)
	if err != nil {
		return nil, err
	}
	dpxSec := dag.Elapsed().Seconds()

	t0 := time.Now()
	if _, err := native.RunVertex(a, b, places, 2, work); err != nil {
		return nil, err
	}
	natVSec := time.Since(t0).Seconds()
	t0 = time.Now()
	if _, err := native.RunStrip(a, b, places, 256, work); err != nil {
		return nil, err
	}
	natSSec := time.Since(t0).Seconds()

	return []string{
		d(nodes), d(int64(side+1) * int64(side+1)),
		fmt.Sprintf("%.3f", dpxSec), fmt.Sprintf("%.3f", natVSec), fmt.Sprintf("%.3f", natSSec),
		f2(dpxSec / natVSec), f2(dpxSec / natSSec),
	}, nil
}
