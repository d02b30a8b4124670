package apps

import (
	"fmt"

	"github.com/dpx10/dpx10"
)

// Default Smith-Waterman scoring, matching the paper's Figure 7.
const (
	SWMatch    int32 = 2
	SWMismatch int32 = -1
	SWGap      int32 = -1
)

// SW is the simplified Smith-Waterman local alignment of the paper's
// §VII-A: linear gap penalty, adjacent-cell dependencies only
// (Diagonal pattern), scoring matrix
//
//	H(i,j) = max{ 0,
//	              H(i-1,j-1) + s(a_i, b_j),
//	              H(i-1,j) + p, H(i,j-1) + p }
type SW struct {
	A, B                 string
	Match, Mismatch, Gap int32
}

// NewSW builds the app with the paper's default scoring.
func NewSW(a, b string) *SW {
	return &SW{A: a, B: b, Match: SWMatch, Mismatch: SWMismatch, Gap: SWGap}
}

// Pattern returns the Diagonal pattern sized for the two sequences.
func (s *SW) Pattern() dpx10.Pattern {
	return dpx10.DiagonalPattern(int32(len(s.A))+1, int32(len(s.B))+1)
}

func (s *SW) score(i, j int32) int32 {
	if s.A[i-1] == s.B[j-1] {
		return s.Match
	}
	return s.Mismatch
}

// Compute implements the recurrence exactly as the paper's Figure 7 does:
// scan the provided vertices for the three neighbours.
func (s *SW) Compute(i, j int32, deps []dpx10.Cell[int32]) int32 {
	if i == 0 || j == 0 {
		return 0
	}
	var lefttop, left, top int32
	for _, v := range deps {
		switch {
		case v.ID.I == i-1 && v.ID.J == j-1:
			lefttop = v.Value + s.score(i, j)
		case v.ID.I == i-1 && v.ID.J == j:
			top = v.Value + s.Gap
		case v.ID.I == i && v.ID.J == j-1:
			left = v.Value + s.Gap
		}
	}
	return max(0, lefttop, left, top)
}

// AppFinished is a no-op, as in Figure 7.
func (s *SW) AppFinished(*dpx10.Dag[int32]) {}

// Best returns the maximum similarity score and its cell.
func (s *SW) Best(dag *dpx10.Dag[int32]) (score int32, at dpx10.VertexID) {
	for i := int32(0); i <= int32(len(s.A)); i++ {
		for j := int32(0); j <= int32(len(s.B)); j++ {
			if v := dag.Result(i, j); v > score {
				score, at = v, dpx10.VertexID{I: i, J: j}
			}
		}
	}
	return score, at
}

// Backtrack reconstructs the best local alignment as two gapped strings.
func (s *SW) Backtrack(dag *dpx10.Dag[int32]) (alignedA, alignedB string) {
	_, at := s.Best(dag)
	var ra, rb []byte
	i, j := at.I, at.J
	for i > 0 && j > 0 && dag.Result(i, j) > 0 {
		v := dag.Result(i, j)
		switch {
		case v == dag.Result(i-1, j-1)+s.score(i, j):
			ra = append(ra, s.A[i-1])
			rb = append(rb, s.B[j-1])
			i, j = i-1, j-1
		case v == dag.Result(i-1, j)+s.Gap:
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

func reverse(b []byte) {
	for a, z := 0, len(b)-1; a < z; a, z = a+1, z-1 {
		b[a], b[z] = b[z], b[a]
	}
}

// Serial computes the full scoring matrix with nested loops.
func (s *SW) Serial() [][]int32 {
	h := make([][]int32, len(s.A)+1)
	for i := range h {
		h[i] = make([]int32, len(s.B)+1)
	}
	for i := 1; i <= len(s.A); i++ {
		for j := 1; j <= len(s.B); j++ {
			h[i][j] = max(0,
				h[i-1][j-1]+s.score(int32(i), int32(j)),
				h[i-1][j]+s.Gap,
				h[i][j-1]+s.Gap)
		}
	}
	return h
}

// Verify checks the distributed result cell by cell against Serial.
func (s *SW) Verify(dag *dpx10.Dag[int32]) error {
	want := s.Serial()
	for i := 0; i <= len(s.A); i++ {
		for j := 0; j <= len(s.B); j++ {
			if got := dag.Result(int32(i), int32(j)); got != want[i][j] {
				return fmt.Errorf("sw: H(%d,%d) = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
	return nil
}
