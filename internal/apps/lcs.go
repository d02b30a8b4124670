package apps

import (
	"fmt"

	"github.com/dpx10/dpx10"
)

// LCS computes the longest common subsequence of two strings — the
// paper's running example (§IV, Figure 1) with the recurrence of §VI-B:
//
//	F[i,j] = F[i-1,j-1] + 1              if x_i == y_j
//	F[i,j] = max(F[i-1,j], F[i,j-1])     otherwise
//
// over a (len(A)+1)×(len(B)+1) matrix with the Diagonal pattern.
type LCS struct {
	A, B string
}

// NewLCS builds the app for the two input strings.
func NewLCS(a, b string) *LCS { return &LCS{A: a, B: b} }

// Pattern returns the DAG pattern of the computation (Figure 5b).
func (l *LCS) Pattern() dpx10.Pattern {
	return dpx10.DiagonalPattern(int32(len(l.A))+1, int32(len(l.B))+1)
}

// Compute implements the LCS recurrence; row 0 and column 0 are zero.
func (l *LCS) Compute(i, j int32, deps []dpx10.Cell[int32]) int32 {
	if i == 0 || j == 0 {
		return 0
	}
	if l.A[i-1] == l.B[j-1] {
		return mustDep(deps, i-1, j-1) + 1
	}
	return max(mustDep(deps, i-1, j), mustDep(deps, i, j-1))
}

// AppFinished is a no-op; results are pulled via Length and Backtrack.
func (l *LCS) AppFinished(*dpx10.Dag[int32]) {}

// Length returns the LCS length from a completed run.
func (l *LCS) Length(dag *dpx10.Dag[int32]) int32 {
	return dag.Result(int32(len(l.A)), int32(len(l.B)))
}

// Backtrack reconstructs one longest common subsequence from the finished
// matrix — the paper's "backtracking method" result processing.
func (l *LCS) Backtrack(dag *dpx10.Dag[int32]) string {
	var out []byte
	i, j := int32(len(l.A)), int32(len(l.B))
	for i > 0 && j > 0 {
		switch {
		case l.A[i-1] == l.B[j-1]:
			out = append(out, l.A[i-1])
			i, j = i-1, j-1
		case dag.Result(i-1, j) >= dag.Result(i, j-1):
			i--
		default:
			j--
		}
	}
	for a, b := 0, len(out)-1; a < b; a, b = a+1, b-1 {
		out[a], out[b] = out[b], out[a]
	}
	return string(out)
}

// Serial computes the full matrix with nested loops.
func (l *LCS) Serial() [][]int32 {
	f := make([][]int32, len(l.A)+1)
	for i := range f {
		f[i] = make([]int32, len(l.B)+1)
	}
	for i := 1; i <= len(l.A); i++ {
		for j := 1; j <= len(l.B); j++ {
			if l.A[i-1] == l.B[j-1] {
				f[i][j] = f[i-1][j-1] + 1
			} else {
				f[i][j] = max(f[i-1][j], f[i][j-1])
			}
		}
	}
	return f
}

// Verify checks every cell of the distributed result against Serial.
func (l *LCS) Verify(dag *dpx10.Dag[int32]) error {
	want := l.Serial()
	for i := 0; i <= len(l.A); i++ {
		for j := 0; j <= len(l.B); j++ {
			if got := dag.Result(int32(i), int32(j)); got != want[i][j] {
				return fmt.Errorf("lcs: F(%d,%d) = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
	return nil
}
