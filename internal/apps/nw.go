package apps

import (
	"fmt"

	"github.com/dpx10/dpx10"
)

// NW is Needleman-Wunsch global sequence alignment — Smith-Waterman's
// global counterpart, on the same Diagonal pattern but without the
// clamp at zero and with gap-scaled borders:
//
//	D(i,0) = i·gap, D(0,j) = j·gap
//	D(i,j) = max{ D(i-1,j-1) + s(a_i,b_j), D(i-1,j) + gap, D(i,j-1) + gap }
type NW struct {
	A, B                 string
	Match, Mismatch, Gap int32
}

// NewNW builds the app with the default scoring (+2 / -1 / -1).
func NewNW(a, b string) *NW {
	return &NW{A: a, B: b, Match: 2, Mismatch: -1, Gap: -1}
}

// Pattern returns the Diagonal pattern sized for the sequences.
func (s *NW) Pattern() dpx10.Pattern {
	return dpx10.DiagonalPattern(int32(len(s.A))+1, int32(len(s.B))+1)
}

func (s *NW) score(i, j int32) int32 {
	if s.A[i-1] == s.B[j-1] {
		return s.Match
	}
	return s.Mismatch
}

// Compute implements the global-alignment recurrence.
func (s *NW) Compute(i, j int32, deps []dpx10.Cell[int32]) int32 {
	if i == 0 {
		return j * s.Gap
	}
	if j == 0 {
		return i * s.Gap
	}
	return max(
		mustDep(deps, i-1, j-1)+s.score(i, j),
		mustDep(deps, i-1, j)+s.Gap,
		mustDep(deps, i, j-1)+s.Gap,
	)
}

// AppFinished is a no-op; use Score and Backtrack.
func (s *NW) AppFinished(*dpx10.Dag[int32]) {}

// Score returns the optimal global alignment score.
func (s *NW) Score(dag *dpx10.Dag[int32]) int32 {
	return dag.Result(int32(len(s.A)), int32(len(s.B)))
}

// Backtrack reconstructs one optimal global alignment.
func (s *NW) Backtrack(dag *dpx10.Dag[int32]) (alignedA, alignedB string) {
	var ra, rb []byte
	i, j := int32(len(s.A)), int32(len(s.B))
	for i > 0 || j > 0 {
		v := dag.Result(i, j)
		switch {
		case i > 0 && j > 0 && v == dag.Result(i-1, j-1)+s.score(i, j):
			ra = append(ra, s.A[i-1])
			rb = append(rb, s.B[j-1])
			i, j = i-1, j-1
		case i > 0 && v == dag.Result(i-1, j)+s.Gap:
			ra = append(ra, s.A[i-1])
			rb = append(rb, '-')
			i--
		default:
			ra = append(ra, '-')
			rb = append(rb, s.B[j-1])
			j--
		}
	}
	reverse(ra)
	reverse(rb)
	return string(ra), string(rb)
}

// Serial computes the full matrix with nested loops.
func (s *NW) Serial() [][]int32 {
	d := make([][]int32, len(s.A)+1)
	for i := range d {
		d[i] = make([]int32, len(s.B)+1)
		d[i][0] = int32(i) * s.Gap
	}
	for j := 0; j <= len(s.B); j++ {
		d[0][j] = int32(j) * s.Gap
	}
	for i := 1; i <= len(s.A); i++ {
		for j := 1; j <= len(s.B); j++ {
			d[i][j] = max(
				d[i-1][j-1]+s.score(int32(i), int32(j)),
				d[i-1][j]+s.Gap,
				d[i][j-1]+s.Gap,
			)
		}
	}
	return d
}

// Verify checks the distributed result cell by cell against Serial.
func (s *NW) Verify(dag *dpx10.Dag[int32]) error {
	want := s.Serial()
	for i := 0; i <= len(s.A); i++ {
		for j := 0; j <= len(s.B); j++ {
			if got := dag.Result(int32(i), int32(j)); got != want[i][j] {
				return fmt.Errorf("nw: D(%d,%d) = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
	return nil
}
