package apps

import (
	"fmt"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/workload"
)

// Knapsack is the 0/1 knapsack problem, the paper's custom-pattern demo
// (§VII-B) and fourth evaluation application:
//
//	m(i,j) = m(i-1,j)                              if w_i > j
//	m(i,j) = max{ m(i-1,j), m(i-1,j-w_i) + v_i }   if w_i <= j
//
// over an (items+1)×(capacity+1) matrix with the weight-dependent
// KnapsackPattern of Figure 8.
type Knapsack struct {
	Weights  []int32
	Values   []int32
	Capacity int32
}

// NewKnapsack builds the app for explicit items.
func NewKnapsack(weights, values []int32, capacity int32) (*Knapsack, error) {
	if len(weights) != len(values) {
		return nil, fmt.Errorf("knapsack: %d weights vs %d values", len(weights), len(values))
	}
	if len(weights) == 0 {
		return nil, fmt.Errorf("knapsack: no items")
	}
	return &Knapsack{Weights: weights, Values: values, Capacity: capacity}, nil
}

// NewRandomKnapsack builds an n-item instance with weights in [1, maxW]
// and values in [1, maxV], deterministic in seed.
func NewRandomKnapsack(n int, maxW, maxV, capacity int32, seed int64) *Knapsack {
	return &Knapsack{
		Weights:  workload.Ints(n, maxW, seed),
		Values:   workload.Ints(n, maxV, seed+1),
		Capacity: capacity,
	}
}

// Pattern returns the weight-dependent custom pattern (Figure 8).
func (k *Knapsack) Pattern() (dpx10.Pattern, error) {
	return dpx10.KnapsackPattern(k.Weights, k.Capacity)
}

// Compute implements the knapsack recurrence; row 0 is zero.
func (k *Knapsack) Compute(i, j int32, deps []dpx10.Cell[int64]) int64 {
	if i == 0 {
		return 0
	}
	// The pattern's offsets: (i-1, j), then (i-1, j-w) where it is in bounds.
	skip := depAt(deps, 0, i-1, j)
	if w := k.Weights[i-1]; w <= j {
		take := depAt(deps, 1, i-1, j-w) + int64(k.Values[i-1])
		return max(skip, take)
	}
	return skip
}

// AppFinished is a no-op; use Best and Chosen.
func (k *Knapsack) AppFinished(*dpx10.Dag[int64]) {}

// Best returns the maximum attainable value.
func (k *Knapsack) Best(dag *dpx10.Dag[int64]) int64 {
	return dag.Result(int32(len(k.Weights)), k.Capacity)
}

// Chosen backtracks the selected item indexes (0-based), ascending.
func (k *Knapsack) Chosen(dag *dpx10.Dag[int64]) []int {
	var picked []int
	j := k.Capacity
	for i := int32(len(k.Weights)); i > 0; i-- {
		if dag.Result(i, j) != dag.Result(i-1, j) {
			picked = append(picked, int(i-1))
			j -= k.Weights[i-1]
		}
	}
	for a, b := 0, len(picked)-1; a < b; a, b = a+1, b-1 {
		picked[a], picked[b] = picked[b], picked[a]
	}
	return picked
}

// Serial computes the full table with nested loops.
func (k *Knapsack) Serial() [][]int64 {
	n := len(k.Weights)
	m := make([][]int64, n+1)
	for i := range m {
		m[i] = make([]int64, k.Capacity+1)
	}
	for i := 1; i <= n; i++ {
		for j := int32(0); j <= k.Capacity; j++ {
			m[i][j] = m[i-1][j]
			if w := k.Weights[i-1]; w <= j {
				if take := m[i-1][j-w] + int64(k.Values[i-1]); take > m[i][j] {
					m[i][j] = take
				}
			}
		}
	}
	return m
}

// Verify checks the distributed result cell by cell against Serial.
func (k *Knapsack) Verify(dag *dpx10.Dag[int64]) error {
	want := k.Serial()
	for i := 0; i <= len(k.Weights); i++ {
		for j := int32(0); j <= k.Capacity; j++ {
			if got := dag.Result(int32(i), j); got != want[i][j] {
				return fmt.Errorf("knapsack: m(%d,%d) = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
	return nil
}
