package apps

import (
	"fmt"

	"github.com/dpx10/dpx10"
)

// LPS computes the Longest Palindromic Subsequence, the paper's third
// evaluation application (§VIII):
//
//	D(i,i)   = 1
//	D(i,j)   = 2                     if x_i == x_j and j == i+1
//	D(i,j)   = D(i+1,j-1) + 2        if x_i == x_j and j >  i+1
//	D(i,j)   = max{ D(i+1,j), D(i,j-1) }   otherwise
//
// over the upper triangle of an n×n matrix — the Interval pattern
// (Figure 5d). Cell (0, n-1) holds the answer.
type LPS struct {
	S string
}

// NewLPS builds the app for string s (must be non-empty).
func NewLPS(s string) *LPS { return &LPS{S: s} }

// Pattern returns the Interval pattern over |S|×|S|.
func (l *LPS) Pattern() dpx10.Pattern { return dpx10.IntervalPattern(int32(len(l.S))) }

// Compute implements the LPS recurrence. 0-based: cell (i,j) covers the
// substring S[i..j].
func (l *LPS) Compute(i, j int32, deps []dpx10.Cell[int32]) int32 {
	switch {
	case i == j:
		return 1
	case l.S[i] == l.S[j] && j == i+1:
		return 2
	case l.S[i] == l.S[j]:
		return mustDep(deps, i+1, j-1) + 2
	default:
		return max(mustDep(deps, i+1, j), mustDep(deps, i, j-1))
	}
}

// AppFinished is a no-op; use Length and Subsequence.
func (l *LPS) AppFinished(*dpx10.Dag[int32]) {}

// Length returns the LPS length of the whole string.
func (l *LPS) Length(dag *dpx10.Dag[int32]) int32 {
	return dag.Result(0, int32(len(l.S))-1)
}

// Subsequence backtracks one longest palindromic subsequence.
func (l *LPS) Subsequence(dag *dpx10.Dag[int32]) string {
	var left, right []byte
	i, j := int32(0), int32(len(l.S))-1
	for i < j {
		switch {
		case l.S[i] == l.S[j]:
			left = append(left, l.S[i])
			right = append(right, l.S[j])
			i, j = i+1, j-1
		case dag.Result(i+1, j) >= dag.Result(i, j-1):
			i++
		default:
			j--
		}
	}
	if i == j {
		left = append(left, l.S[i])
	}
	reverse(right)
	return string(append(left, right...))
}

// Serial computes the upper triangle with the standard length-order loop.
func (l *LPS) Serial() [][]int32 {
	n := len(l.S)
	d := make([][]int32, n)
	for i := range d {
		d[i] = make([]int32, n)
		d[i][i] = 1
	}
	for span := 1; span < n; span++ {
		for i := 0; i+span < n; i++ {
			j := i + span
			switch {
			case l.S[i] == l.S[j] && span == 1:
				d[i][j] = 2
			case l.S[i] == l.S[j]:
				d[i][j] = d[i+1][j-1] + 2
			default:
				d[i][j] = max(d[i+1][j], d[i][j-1])
			}
		}
	}
	return d
}

// Verify checks the active cells of the distributed result against Serial.
func (l *LPS) Verify(dag *dpx10.Dag[int32]) error {
	want := l.Serial()
	n := len(l.S)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if got := dag.Result(int32(i), int32(j)); got != want[i][j] {
				return fmt.Errorf("lps: D(%d,%d) = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
	return nil
}
