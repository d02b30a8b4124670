package apps

import (
	"fmt"

	"github.com/dpx10/dpx10"
)

// diagOnlyPattern is the dependency structure of the longest common
// substring recurrence: each cell needs only its top-left neighbour.
// None of the eight built-ins has this minimal shape (Diagonal would
// over-constrain with left/top edges and triple the traffic), so the app
// carries its own pattern — a compact demonstration of §V's custom
// pattern API inside the application library.
type diagOnlyPattern struct{ h, w int32 }

func (p diagOnlyPattern) Bounds() (int32, int32) { return p.h, p.w }

func (p diagOnlyPattern) Offsets(int32) []dpx10.Offset { return []dpx10.Offset{{DI: -1, DJ: -1}} }

func (p diagOnlyPattern) Dependencies(i, j int32, buf []dpx10.VertexID) []dpx10.VertexID {
	if i > 0 && j > 0 {
		buf = append(buf, dpx10.VertexID{I: i - 1, J: j - 1})
	}
	return buf
}

func (p diagOnlyPattern) AntiDependencies(i, j int32, buf []dpx10.VertexID) []dpx10.VertexID {
	if i+1 < p.h && j+1 < p.w {
		buf = append(buf, dpx10.VertexID{I: i + 1, J: j + 1})
	}
	return buf
}

// LCSubstr computes the longest common *substring* (contiguous) of two
// strings — the problem of the paper's Figure 1 walk-through:
//
//	F(i,j) = F(i-1,j-1) + 1   if a_i == b_j
//	F(i,j) = 0                otherwise
type LCSubstr struct {
	A, B string
}

// NewLCSubstr builds the app for the two strings.
func NewLCSubstr(a, b string) *LCSubstr { return &LCSubstr{A: a, B: b} }

// Pattern returns the minimal diagonal-only custom pattern.
func (l *LCSubstr) Pattern() dpx10.Pattern {
	return diagOnlyPattern{h: int32(len(l.A)) + 1, w: int32(len(l.B)) + 1}
}

// Compute implements the recurrence.
func (l *LCSubstr) Compute(i, j int32, deps []dpx10.Cell[int32]) int32 {
	if i == 0 || j == 0 || l.A[i-1] != l.B[j-1] {
		return 0
	}
	if len(deps) == 0 { // (1,1) matching cells with no diagonal ancestor
		return 1
	}
	return deps[0].Value + 1
}

// AppFinished is a no-op; use Longest.
func (l *LCSubstr) AppFinished(*dpx10.Dag[int32]) {}

// Longest returns the longest common substring and its length.
func (l *LCSubstr) Longest(dag *dpx10.Dag[int32]) (string, int32) {
	var best int32
	var endI int32
	for i := int32(1); i <= int32(len(l.A)); i++ {
		for j := int32(1); j <= int32(len(l.B)); j++ {
			if v := dag.Result(i, j); v > best {
				best, endI = v, i
			}
		}
	}
	return l.A[endI-best : endI], best
}

// Serial computes the full matrix with nested loops.
func (l *LCSubstr) Serial() [][]int32 {
	f := make([][]int32, len(l.A)+1)
	for i := range f {
		f[i] = make([]int32, len(l.B)+1)
	}
	for i := 1; i <= len(l.A); i++ {
		for j := 1; j <= len(l.B); j++ {
			if l.A[i-1] == l.B[j-1] {
				f[i][j] = f[i-1][j-1] + 1
			}
		}
	}
	return f
}

// Verify checks the distributed result cell by cell against Serial.
func (l *LCSubstr) Verify(dag *dpx10.Dag[int32]) error {
	want := l.Serial()
	for i := 0; i <= len(l.A); i++ {
		for j := 0; j <= len(l.B); j++ {
			if got := dag.Result(int32(i), int32(j)); got != want[i][j] {
				return fmt.Errorf("lcsubstr: F(%d,%d) = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
	return nil
}
