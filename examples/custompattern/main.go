// Custom pattern from scratch: the unbounded ("complete") knapsack.
//
// The paper's §V describes the contract for user-defined patterns: extend
// the Dag class and implement getDependency/getAntiDependency as exact
// mirror images. This example does the Go equivalent — implementing the
// dpx10.Pattern interface directly — for a recurrence none of the eight
// built-ins cover:
//
//	m(0,j) = 0
//	m(i,j) = max{ m(i-1,j), m(i, j-w_i) + v_i }   if w_i <= j
//	m(i,j) = m(i-1,j)                             otherwise
//
// Unlike 0/1 knapsack, the "take" edge stays in the SAME row (an item may
// be taken repeatedly), so the DAG mixes vertical edges with long
// horizontal ones — a shape worth validating with CheckPattern before
// trusting it.
//
// Run with: go run ./examples/custompattern
package main

import (
	"fmt"
	"log"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/workload"
)

// unboundedPattern is the DAG of the unbounded knapsack recurrence.
type unboundedPattern struct {
	weights  []int32 // weights[i-1] is item i's weight
	capacity int32
}

func (p unboundedPattern) Bounds() (int32, int32) {
	return int32(len(p.weights)) + 1, p.capacity + 1
}

// Dependencies: (i-1, j) always (for i > 0), plus (i, j-w_i) when item i
// fits — the same-row self-edge that distinguishes unbounded knapsack.
func (p unboundedPattern) Dependencies(i, j int32, buf []dpx10.VertexID) []dpx10.VertexID {
	if i == 0 {
		return buf
	}
	buf = append(buf, dpx10.VertexID{I: i - 1, J: j})
	if w := p.weights[i-1]; w <= j {
		buf = append(buf, dpx10.VertexID{I: i, J: j - w})
	}
	return buf
}

// AntiDependencies must mirror Dependencies exactly: (i,j) is needed by
// (i+1, j) and, within the row, by (i, j+w_i).
func (p unboundedPattern) AntiDependencies(i, j int32, buf []dpx10.VertexID) []dpx10.VertexID {
	if i+1 <= int32(len(p.weights)) {
		buf = append(buf, dpx10.VertexID{I: i + 1, J: j})
	}
	if i > 0 {
		if w := p.weights[i-1]; j+w <= p.capacity {
			buf = append(buf, dpx10.VertexID{I: i, J: j + w})
		}
	}
	return buf
}

// Offsets declares the pattern a stencil (dpx10.Stencil): row i's
// dependencies are the offsets (-1, 0) and (0, -w_i), in Dependencies'
// order, wherever they land in bounds. With it the engine counts and walks
// the edges by arithmetic instead of calling the two methods above per
// cell; CheckPattern holds the offsets to the methods.
func (p unboundedPattern) Offsets(i int32) []dpx10.Offset {
	if i == 0 {
		return nil
	}
	return []dpx10.Offset{{DI: -1}, {DJ: -p.weights[i-1]}}
}

// unboundedApp computes the recurrence over the pattern.
type unboundedApp struct {
	unboundedPattern
	values []int32
}

func (a *unboundedApp) Compute(i, j int32, deps []dpx10.Cell[int64]) int64 {
	if i == 0 {
		return 0
	}
	best := int64(0)
	for _, d := range deps {
		cand := d.Value
		if d.ID.I == i { // same-row edge: taking one more copy of item i
			cand += int64(a.values[i-1])
		}
		if cand > best {
			best = cand
		}
	}
	return best
}

func (a *unboundedApp) AppFinished(*dpx10.Dag[int64]) {}

// serial is the textbook 1-D unbounded knapsack, for verification.
func (a *unboundedApp) serial() int64 {
	dp := make([]int64, a.capacity+1)
	for j := int32(1); j <= a.capacity; j++ {
		for k, w := range a.weights {
			if w <= j {
				if v := dp[j-w] + int64(a.values[k]); v > dp[j] {
					dp[j] = v
				}
			}
		}
	}
	return dp[a.capacity]
}

func main() {
	const items, capacity = 20, 300
	app := &unboundedApp{
		unboundedPattern: unboundedPattern{
			weights:  workload.Ints(items, 40, 5),
			capacity: capacity,
		},
		values: workload.Ints(items, 90, 6),
	}

	// Validate the hand-written pattern before running anything on it.
	if err := dpx10.CheckPattern(app.unboundedPattern); err != nil {
		log.Fatalf("pattern inconsistent: %v", err)
	}
	fmt.Println("custom pattern validated: dependencies mirror anti-dependencies, DAG is acyclic")

	dag, err := dpx10.Run[int64](app, app.unboundedPattern,
		dpx10.Places(4))
	if err != nil {
		log.Fatal(err)
	}
	got := dag.Result(items, capacity)
	want := app.serial()
	fmt.Printf("unbounded knapsack best value: distributed=%d serial=%d\n", got, want)
	if got != want {
		log.Fatal("MISMATCH")
	}
	fmt.Println("distributed result matches the serial DP")
}
