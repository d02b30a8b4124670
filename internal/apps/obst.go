package apps

import (
	"fmt"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/workload"
)

// OBST builds an optimal binary search tree — the second classic of the
// Triangle pattern's 2D/1D family (with matrix-chain multiplication):
// given access frequencies f_i for keys k_0 < ... < k_{n-1},
//
//	e(i,i) = f_i
//	e(i,j) = min_{i<=r<=j} { e(i,r-1) + e(r+1,j) } + Σ_{k=i..j} f_k
//
// where e(i,j) is the weighted search cost of an optimal tree over keys
// i..j (empty ranges cost 0). The per-vertex value packs the cost; the
// frequency prefix sums live in the app.
type OBST struct {
	Freq   []int64 // access frequency per key
	prefix []int64 // prefix[i] = Σ Freq[0..i-1]
}

// NewOBST builds the app for explicit key frequencies.
func NewOBST(freq []int64) (*OBST, error) {
	if len(freq) == 0 {
		return nil, fmt.Errorf("obst: no keys")
	}
	for k, f := range freq {
		if f < 0 {
			return nil, fmt.Errorf("obst: negative frequency %d at key %d", f, k)
		}
	}
	o := &OBST{Freq: freq, prefix: make([]int64, len(freq)+1)}
	for k, f := range freq {
		o.prefix[k+1] = o.prefix[k] + f
	}
	return o, nil
}

// NewRandomOBST builds an n-key instance with frequencies in [1, maxF],
// deterministic in seed.
func NewRandomOBST(n int, maxF int32, seed int64) *OBST {
	raw := workload.Ints(n, maxF, seed)
	freq := make([]int64, n)
	for k, v := range raw {
		freq[k] = int64(v)
	}
	o, err := NewOBST(freq)
	if err != nil {
		panic(err) // unreachable: generated frequencies are positive
	}
	return o
}

// N returns the number of keys.
func (o *OBST) N() int { return len(o.Freq) }

// weight is Σ Freq[i..j].
func (o *OBST) weight(i, j int32) int64 { return o.prefix[j+1] - o.prefix[i] }

// Pattern returns the Triangle pattern over n×n (Figure 5g).
func (o *OBST) Pattern() dpx10.Pattern { return dpx10.TrianglePattern(int32(o.N())) }

// Compute implements the recurrence. The Triangle pattern supplies the
// row segment (i, i..j-1) and column segment (i+1..j, j), in that order;
// the split at root r pairs e(i,r-1) at r-1-i (or 0 when r == i) with
// e(r+1,j) at (j-i)+(r-i) (or 0 when r == j).
func (o *OBST) Compute(i, j int32, deps []dpx10.Cell[int64]) int64 {
	if i == j {
		return o.Freq[i]
	}
	best := int64(1) << 62
	for r := i; r <= j; r++ {
		var left, right int64
		if r > i {
			left = depAt(deps, int(r-1-i), i, r-1)
		}
		if r < j {
			right = depAt(deps, int(j-i+r-i), r+1, j)
		}
		if cost := left + right; cost < best {
			best = cost
		}
	}
	return best + o.weight(i, j)
}

// AppFinished is a no-op; use Cost and Root.
func (o *OBST) AppFinished(*dpx10.Dag[int64]) {}

// Cost returns the optimal weighted search cost over all keys.
func (o *OBST) Cost(dag *dpx10.Dag[int64]) int64 {
	return dag.Result(0, int32(o.N())-1)
}

// Tree reconstructs the optimal tree as a parent vector: parent[k] is the
// parent key index of key k, with the root's parent -1.
func (o *OBST) Tree(dag *dpx10.Dag[int64]) []int {
	parent := make([]int, o.N())
	var build func(i, j int32, p int)
	build = func(i, j int32, p int) {
		if i > j {
			return
		}
		target := dag.Result(i, j) - o.weight(i, j)
		for r := i; r <= j; r++ {
			var left, right int64
			if r > i {
				left = dag.Result(i, r-1)
			}
			if r < j {
				right = dag.Result(r+1, j)
			}
			if left+right == target {
				parent[r] = p
				build(i, r-1, int(r))
				build(r+1, j, int(r))
				return
			}
		}
		panic("obst: no root reproduces the optimal cost")
	}
	build(0, int32(o.N())-1, -1)
	return parent
}

// Serial computes the table with the classic span-order loops.
func (o *OBST) Serial() [][]int64 {
	n := o.N()
	e := make([][]int64, n)
	for i := range e {
		e[i] = make([]int64, n)
		e[i][i] = o.Freq[i]
	}
	for span := 1; span < n; span++ {
		for i := 0; i+span < n; i++ {
			j := i + span
			best := int64(1) << 62
			for r := i; r <= j; r++ {
				var left, right int64
				if r > i {
					left = e[i][r-1]
				}
				if r < j {
					right = e[r+1][j]
				}
				if cost := left + right; cost < best {
					best = cost
				}
			}
			e[i][j] = best + o.weight(int32(i), int32(j))
		}
	}
	return e
}

// Verify checks the active cells against Serial.
func (o *OBST) Verify(dag *dpx10.Dag[int64]) error {
	want := o.Serial()
	n := o.N()
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if got := dag.Result(int32(i), int32(j)); got != want[i][j] {
				return fmt.Errorf("obst: e(%d,%d) = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
	return nil
}
