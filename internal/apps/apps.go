// Package apps implements the dynamic-programming applications used by
// the paper: the two demo applications of §VII (Smith-Waterman, 0/1
// Knapsack) and the four evaluation applications of §VIII (SWLAG —
// Smith-Waterman with linear and affine gap penalties, Manhattan Tourists,
// Longest Palindromic Subsequence, 0/1 Knapsack), plus LCS (the paper's
// running example in §IV) and edit distance.
//
// Every application is written against the public dpx10 API — exactly as
// a framework user would write it — and carries a serial reference
// implementation plus a Verify method, so the distributed runs are checked
// end to end. Where the paper's result processing is "a backtracking
// method", the backtrack is implemented too.
package apps

import (
	"fmt"

	"github.com/dpx10/dpx10"
)

// Verifier is implemented by every app in this package: it recomputes the
// result serially and compares it with the distributed Dag.
type Verifier[T any] interface {
	Verify(dag *dpx10.Dag[T]) error
}

// cellsByID indexes dependency cells for recurrences that address
// neighbours by coordinates, as the paper's Figure 7 does with its loop
// over `vertices`.
func depValue[T any](deps []dpx10.Cell[T], i, j int32) (T, bool) {
	for _, d := range deps {
		if d.ID.I == i && d.ID.J == j {
			return d.Value, true
		}
	}
	var zero T
	return zero, false
}

func mustDep[T any](deps []dpx10.Cell[T], i, j int32) T {
	v, ok := depValue(deps, i, j)
	if !ok {
		panic(fmt.Sprintf("apps: dependency (%d,%d) not provided", i, j))
	}
	return v
}

// depAt is mustDep for a pattern whose Dependencies order fixes each
// dependency's position, such as a stencil (dpx10.Stencil), whose deps[k]
// is the k-th offset in bounds, or Triangle's row then column segment: it
// reads position k and checks that it holds (i, j).
func depAt[T any](deps []dpx10.Cell[T], k int, i, j int32) T {
	if k >= len(deps) || deps[k].ID != (dpx10.VertexID{I: i, J: j}) {
		panic(depMissing{i, j, k})
	}
	return deps[k].Value
}

// depMissing is depAt's panic value. It formats its message only when
// printed: a call to a formatting helper would cost depAt more than the
// inliner's budget, and depAt runs for every dependency a compute reads.
type depMissing struct {
	i, j int32
	k    int
}

func (e depMissing) Error() string {
	return fmt.Sprintf("apps: dependency (%d,%d) not provided at position %d", e.i, e.j, e.k)
}
