// Quickstart: the paper's three steps for writing a DPX10 application
// (§VII), on its running example — longest common subsequence (§IV).
//
//  1. Choose a DAG pattern: LCS depends on the left, top and top-left
//     neighbours, which is the built-in Diagonal pattern (Figure 5b).
//  2. Implement the App interface: Compute and AppFinished.
//  3. Run it.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/dpx10/dpx10"
)

// lcsApp computes F[i,j], the LCS length of prefixes a[:i] and b[:j].
type lcsApp struct {
	a, b string
}

// Compute is invoked once per vertex with its dependencies resolved —
// the framework already moved remote values here (paper §V).
func (l *lcsApp) Compute(i, j int32, deps []dpx10.Cell[int32]) int32 {
	if i == 0 || j == 0 {
		return 0 // first row and column are the empty-prefix base case
	}
	var diag, top, left int32
	for _, d := range deps {
		switch {
		case d.ID.I == i-1 && d.ID.J == j-1:
			diag = d.Value
		case d.ID.I == i-1:
			top = d.Value
		default:
			left = d.Value
		}
	}
	if l.a[i-1] == l.b[j-1] {
		return diag + 1
	}
	return max(top, left)
}

// AppFinished runs once, after every vertex completed (paper Figure 2).
func (l *lcsApp) AppFinished(dag *dpx10.Dag[int32]) {
	fmt.Printf("LCS(%q, %q) = %d\n", l.a, l.b,
		dag.Result(int32(len(l.a)), int32(len(l.b))))
}

func main() {
	app := &lcsApp{a: "DYNAMICPROGRAMMING", b: "DISTRIBUTEDRUNTIME"}
	h := int32(len(app.a)) + 1
	w := int32(len(app.b)) + 1

	dag, err := dpx10.Run[int32](app, dpx10.DiagonalPattern(h, w),
		dpx10.Places(4),  // X10_NPLACES
		dpx10.Threads(2)) // X10_NTHREADS
	if err != nil {
		log.Fatal(err)
	}

	s := dag.Stats()
	fmt.Printf("computed %d vertices on %d places in %v (%d values moved between places)\n",
		s.ComputedCells, s.Places, dag.Elapsed().Round(0), s.RemoteFetches)
}
