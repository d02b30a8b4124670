package patterns

import (
	"fmt"

	"github.com/dpx10/dpx10/internal/dag"
)

// Knapsack is the custom DAG pattern of the paper's Figure 8 / §VII-B:
// the dependency structure of the 0/1 knapsack recurrence
//
//	m(i,j) = m(i-1,j)                              if w_i > j
//	m(i,j) = max{m(i-1,j), m(i-1,j-w_i) + v_i}     if w_i <= j
//
// over an (items+1)×(capacity+1) matrix. Unlike the fixed-shape built-ins,
// the edges depend on the item weights — the "nondeterministic
// dependencies" the paper blames for 0/1KP's weaker speedup in Figure 10.
type Knapsack struct {
	Weights  []int32 // Weights[i-1] is the weight of item i (1-based items)
	Capacity int32
}

// NewKnapsack builds the pattern for the given item weights and capacity.
// Weights must be strictly positive (the paper's assumption).
func NewKnapsack(weights []int32, capacity int32) (Knapsack, error) {
	if capacity < 0 {
		return Knapsack{}, fmt.Errorf("patterns: negative knapsack capacity %d", capacity)
	}
	for idx, w := range weights {
		if w <= 0 {
			return Knapsack{}, fmt.Errorf("patterns: item %d has non-positive weight %d", idx+1, w)
		}
	}
	return Knapsack{Weights: weights, Capacity: capacity}, nil
}

// Bounds: rows are items 0..n (row 0 is the empty prefix), columns are
// remaining capacities 0..Capacity.
func (p Knapsack) Bounds() (int32, int32) {
	return int32(len(p.Weights)) + 1, p.Capacity + 1
}

// Offsets makes Knapsack a row-dependent stencil (dag.Stencil).
func (p Knapsack) Offsets(i int32) []dag.Offset {
	if i == 0 {
		return nil
	}
	return []dag.Offset{{DI: -1}, {DI: -1, DJ: -p.Weights[i-1]}}
}

func (p Knapsack) Dependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if i == 0 {
		return buf
	}
	buf = append(buf, dag.VertexID{I: i - 1, J: j})
	if w := p.Weights[i-1]; w <= j {
		buf = append(buf, dag.VertexID{I: i - 1, J: j - w})
	}
	return buf
}

func (p Knapsack) AntiDependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if i >= int32(len(p.Weights)) { // last row: nothing depends on it
		return buf
	}
	buf = append(buf, dag.VertexID{I: i + 1, J: j})
	if w := p.Weights[i]; j+w <= p.Capacity {
		buf = append(buf, dag.VertexID{I: i + 1, J: j + w})
	}
	return buf
}
