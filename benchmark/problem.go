package main

import (
	"fmt"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/apps"
	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/native"
	gen "github.com/dpx10/dpx10/internal/workload"
)

// sampleCells is how many pseudo-random cells every timed rep checks
// against the serial table, on top of the best-score cell.
const sampleCells = 256

// problem is one generated input: the app the engine runs, the serial
// table its result must match, and the hand-written baseline that solves
// the same input without the framework.
type problem[T comparable] struct {
	app   dpx10.App[T]
	pat   dpx10.Pattern
	codec dpx10.Codec[T]
	want  [][]T
	// probe is the fixed cell sample of timed reps: the best-score cell
	// first, then sampleCells pseudo-random cells drawn from the seed.
	probe []dag.VertexID
	cells int64
	// baseline runs the hand-written solver on the same input and checks
	// its answer; strip is the tighter strip-pipelined variant (SWLAG
	// only, nil otherwise).
	baseline func(places, threads int) error
	strip    func(places int) error
}

func (p *problem[T]) finish(best dag.VertexID, seed int64) {
	h, w := p.pat.Bounds()
	p.cells = dag.ActiveCount(p.pat)
	p.probe = append(p.probe, best)
	for k := 0; len(p.probe) <= sampleCells; k++ {
		x := gen.Hash2(int32(k), int32(k>>16), seed)
		id := dag.VertexID{I: int32(x % uint64(h)), J: int32((x >> 32) % uint64(w))}
		if dag.IsActive(p.pat, id.I, id.J) {
			p.probe = append(p.probe, id)
		}
	}
}

// check compares cells read through get with the serial table: the probe
// sample, or every cell when full is set.
func (p *problem[T]) check(full bool, get func(i, j int32) (T, error)) error {
	one := func(i, j int32) error {
		got, err := get(i, j)
		if err != nil {
			return fmt.Errorf("read (%d,%d): %w", i, j, err)
		}
		if got != p.want[i][j] {
			return fmt.Errorf("cell (%d,%d) = %v, want %v", i, j, got, p.want[i][j])
		}
		return nil
	}
	if !full {
		for _, id := range p.probe {
			if err := one(id.I, id.J); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range p.want {
		for j := range p.want[i] {
			if !dag.IsActive(p.pat, int32(i), int32(j)) {
				continue
			}
			if err := one(int32(i), int32(j)); err != nil {
				return err
			}
		}
	}
	return nil
}

// argmax returns the first cell with the highest score.
func argmax[T any](want [][]T, score func(T) int64) (dag.VertexID, int64) {
	var at dag.VertexID
	best := score(want[0][0])
	for i := range want {
		for j := range want[i] {
			if s := score(want[i][j]); s > best {
				best, at = s, dag.VertexID{I: int32(i), J: int32(j)}
			}
		}
	}
	return at, best
}

// swlagProblem is Smith-Waterman with affine gaps over two seeded DNA
// sequences of length side; the baselines are internal/native's
// hand-written per-vertex wavefront and strip pipeline (paper Fig 12).
func swlagProblem(side int, seed int64) *problem[apps.AffineCell] {
	a := gen.Sequence(side, gen.DNA, seed)
	b := gen.Sequence(side, gen.DNA, seed+1)
	app := apps.NewSWLAG(a, b)
	p := &problem[apps.AffineCell]{app: app, pat: app.Pattern(), codec: app.Codec(), want: app.Serial()}
	at, best := argmax(p.want, func(c apps.AffineCell) int64 { return int64(c.H) })
	p.finish(at, seed)
	checkNative := func(r native.Result, err error) error {
		if err != nil {
			return err
		}
		if int64(r.BestH) != best || r.Cells != p.cells {
			return fmt.Errorf("native: best %d over %d cells, want %d over %d", r.BestH, r.Cells, best, p.cells)
		}
		return nil
	}
	p.baseline = func(places, threads int) error { return checkNative(native.RunVertex(a, b, places, threads, 0)) }
	p.strip = func(places int) error { return checkNative(native.RunStrip(a, b, places, 256, 0)) }
	return p
}

// swProblem is the linear-gap Smith-Waterman of the small-jobs workload;
// its hand-written baseline is the app's own nested-loop Serial.
func swProblem(side int, seed int64) *problem[int32] {
	a := gen.Sequence(side, gen.DNA, seed)
	b := gen.Sequence(side, gen.DNA, seed+1)
	app := apps.NewSW(a, b)
	p := &problem[int32]{app: app, pat: app.Pattern(), codec: codec.Int32{}, want: app.Serial()}
	at, best := argmax(p.want, func(v int32) int64 { return int64(v) })
	p.finish(at, seed)
	p.baseline = func(int, int) error {
		if _, got := argmax(app.Serial(), func(v int32) int64 { return int64(v) }); got != best {
			return fmt.Errorf("serial sw: best %d, want %d", got, best)
		}
		return nil
	}
	return p
}

// knapsackProblem is 0/1 knapsack over `items` items. The weights are a
// seeded shuffle of 1..maxW repeated as needed rather than independent
// draws: the number of cross-place dependencies under a column split is
// the sum of the weights; independent draws would move the fetch count by
// about 4% (one standard deviation) from seed to seed.
func knapsackProblem(items int, maxW, maxV, capacity int32, seed int64) (*problem[int64], error) {
	weights := make([]int32, items)
	for k := range weights {
		weights[k] = int32(k)%maxW + 1
	}
	for k := items - 1; k > 0; k-- {
		r := int(gen.Hash2(int32(k), 0, seed) % uint64(k+1))
		weights[k], weights[r] = weights[r], weights[k]
	}
	app, err := apps.NewKnapsack(weights, gen.Ints(items, maxV, seed+1), capacity)
	if err != nil {
		return nil, err
	}
	pat, err := app.Pattern()
	if err != nil {
		return nil, err
	}
	p := &problem[int64]{app: app, pat: pat, codec: codec.Int64{}, want: app.Serial()}
	corner := dag.VertexID{I: int32(items), J: capacity}
	best := p.want[corner.I][corner.J]
	p.finish(corner, seed)
	p.baseline = func(int, int) error {
		if got := app.Serial()[corner.I][corner.J]; got != best {
			return fmt.Errorf("serial knapsack: best %d, want %d", got, best)
		}
		return nil
	}
	return p, nil
}
