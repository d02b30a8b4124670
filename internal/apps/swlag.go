package apps

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/workload"
)

// workSink keeps the synthetic work observable to the compiler; atomic
// because Compute runs concurrently across workers.
var workSink atomic.Uint64

// Default SWLAG scoring: affine gaps cost GapOpen to start and GapExtend
// per additional position.
const (
	SWLAGMatch    int32 = 2
	SWLAGMismatch int32 = -1
	SWLAGOpen     int32 = -2
	SWLAGExtend   int32 = -1
)

// AffineCell is the per-vertex value of SWLAG: the three Gotoh matrices
// collapsed into one value per cell, since DPX10 manages exactly one value
// per vertex (paper §V). H is the local-alignment score, E the best score
// ending in a gap in A (horizontal), F in B (vertical).
type AffineCell struct {
	H, E, F int32
}

// AffineCodec is the fixed-width 12-byte codec for AffineCell — the kind
// of hot-path custom codec the framework's Codec extension point exists
// for.
type AffineCodec struct{}

var _ codec.Codec[AffineCell] = AffineCodec{}

func (AffineCodec) Encode(dst []byte, v AffineCell) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(v.H))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(v.E))
	return binary.LittleEndian.AppendUint32(dst, uint32(v.F))
}

func (AffineCodec) Decode(src []byte) (AffineCell, int, error) {
	if len(src) < 12 {
		return AffineCell{}, 0, codec.ErrShortBuffer
	}
	return AffineCell{
		H: int32(binary.LittleEndian.Uint32(src)),
		E: int32(binary.LittleEndian.Uint32(src[4:])),
		F: int32(binary.LittleEndian.Uint32(src[8:])),
	}, 12, nil
}

// SWLAG is Smith-Waterman with linear and affine gap penalty — the paper's
// first evaluation application (§VIII). With GapExtend == GapOpen it
// degenerates to the linear-penalty algorithm; the affine form is Gotoh's:
//
//	E(i,j) = max{ H(i,j-1) + open, E(i,j-1) + extend }
//	F(i,j) = max{ H(i-1,j) + open, F(i-1,j) + extend }
//	H(i,j) = max{ 0, H(i-1,j-1) + s(a_i,b_j), E(i,j), F(i,j) }
//
// Dependencies are still the three adjacent cells, so the DAG pattern is
// the same Diagonal as LCS (Figure 5b).
type SWLAG struct {
	A, B                                string
	Match, Mismatch, GapOpen, GapExtend int32
	// Work adds Work iterations of synthetic integer work per cell — the
	// overhead experiment's knob for matching the paper's per-activity
	// compute cost (see bench.Fig12).
	Work int
}

// NewSWLAG builds the app with the default affine scoring.
func NewSWLAG(a, b string) *SWLAG {
	return &SWLAG{
		A: a, B: b,
		Match: SWLAGMatch, Mismatch: SWLAGMismatch,
		GapOpen: SWLAGOpen, GapExtend: SWLAGExtend,
	}
}

// Pattern returns the Diagonal pattern sized for the sequences.
func (s *SWLAG) Pattern() dpx10.Pattern {
	return dpx10.DiagonalPattern(int32(len(s.A))+1, int32(len(s.B))+1)
}

// Codec returns the fixed-width cell codec.
func (s *SWLAG) Codec() dpx10.Codec[AffineCell] { return AffineCodec{} }

func (s *SWLAG) score(i, j int32) int32 {
	if s.A[i-1] == s.B[j-1] {
		return s.Match
	}
	return s.Mismatch
}

// negInf is low enough never to win a max yet safe from underflow.
const negInf int32 = -(1 << 28)

// Compute implements the Gotoh recurrence for one cell.
func (s *SWLAG) Compute(i, j int32, deps []dpx10.Cell[AffineCell]) AffineCell {
	if s.Work > 0 {
		workSink.Store(workload.Spin(s.Work))
	}
	if i == 0 || j == 0 {
		return AffineCell{H: 0, E: negInf, F: negInf}
	}
	// Diagonal's offsets, all in bounds here: top, left, top-left.
	top := depAt(deps, 0, i-1, j)
	left := depAt(deps, 1, i, j-1)
	diag := depAt(deps, 2, i-1, j-1)
	e := max(left.H+s.GapOpen, left.E+s.GapExtend)
	f := max(top.H+s.GapOpen, top.F+s.GapExtend)
	h := max(0, diag.H+s.score(i, j), e, f)
	return AffineCell{H: h, E: e, F: f}
}

// AppFinished is a no-op; use Best/Verify for result processing.
func (s *SWLAG) AppFinished(*dpx10.Dag[AffineCell]) {}

// Best returns the maximum local-alignment score.
func (s *SWLAG) Best(dag *dpx10.Dag[AffineCell]) int32 {
	var best int32
	for i := int32(0); i <= int32(len(s.A)); i++ {
		for j := int32(0); j <= int32(len(s.B)); j++ {
			if v := dag.Result(i, j).H; v > best {
				best = v
			}
		}
	}
	return best
}

// Serial computes the full Gotoh matrices with nested loops.
func (s *SWLAG) Serial() [][]AffineCell {
	m := make([][]AffineCell, len(s.A)+1)
	for i := range m {
		m[i] = make([]AffineCell, len(s.B)+1)
		for j := range m[i] {
			m[i][j] = AffineCell{H: 0, E: negInf, F: negInf}
		}
	}
	for i := 1; i <= len(s.A); i++ {
		for j := 1; j <= len(s.B); j++ {
			e := max(m[i][j-1].H+s.GapOpen, m[i][j-1].E+s.GapExtend)
			f := max(m[i-1][j].H+s.GapOpen, m[i-1][j].F+s.GapExtend)
			h := max(0, m[i-1][j-1].H+s.score(int32(i), int32(j)), e, f)
			m[i][j] = AffineCell{H: h, E: e, F: f}
		}
	}
	return m
}

// Verify checks all three matrices cell by cell.
func (s *SWLAG) Verify(dag *dpx10.Dag[AffineCell]) error {
	want := s.Serial()
	for i := 0; i <= len(s.A); i++ {
		for j := 0; j <= len(s.B); j++ {
			if got := dag.Result(int32(i), int32(j)); got != want[i][j] {
				return fmt.Errorf("swlag: cell (%d,%d) = %+v, want %+v", i, j, got, want[i][j])
			}
		}
	}
	return nil
}

// Backtrack reconstructs the best local alignment from the three Gotoh
// matrices, including multi-position affine gaps.
func (s *SWLAG) Backtrack(dag *dpx10.Dag[AffineCell]) (alignedA, alignedB string) {
	// Find the best cell.
	var bi, bj int32
	var best int32
	for i := int32(0); i <= int32(len(s.A)); i++ {
		for j := int32(0); j <= int32(len(s.B)); j++ {
			if v := dag.Result(i, j).H; v > best {
				best, bi, bj = v, i, j
			}
		}
	}
	if best == 0 {
		return "", ""
	}
	var ra, rb []byte
	i, j := bi, bj
	const (
		stM = iota // in H: match/mismatch context
		stE        // in E: gap in A (consuming B)
		stF        // in F: gap in B (consuming A)
	)
	state := stM
	for i > 0 || j > 0 {
		cell := dag.Result(i, j)
		switch state {
		case stM:
			if cell.H == 0 {
				i, j = 0, 0 // local alignment start
				continue
			}
			switch {
			case cell.H == cell.E:
				state = stE
			case cell.H == cell.F:
				state = stF
			default:
				ra = append(ra, s.A[i-1])
				rb = append(rb, s.B[j-1])
				i, j = i-1, j-1
			}
		case stE:
			ra = append(ra, '-')
			rb = append(rb, s.B[j-1])
			left := dag.Result(i, j-1)
			if cell.E == left.H+s.GapOpen {
				state = stM
			}
			j--
		case stF:
			ra = append(ra, s.A[i-1])
			rb = append(rb, '-')
			top := dag.Result(i-1, j)
			if cell.F == top.H+s.GapOpen {
				state = stM
			}
			i--
		}
		if state == stM && dag.Result(i, j).H == 0 {
			break
		}
	}
	reverse(ra)
	reverse(rb)
	return string(ra), string(rb)
}
