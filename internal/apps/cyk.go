package apps

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/codec"
)

// CYK recognizes a string against a context-free grammar in Chomsky
// normal form — the classic 2D/1D parsing DP on the Triangle pattern
// (Figure 5g): cell (i,j) is the set of nonterminals deriving the span
// [i..j], and needs every split point's (i,k) and (k+1,j):
//
//	P(i,i) = { A : A -> terminal s_i }
//	P(i,j) = { A : A -> B C, B ∈ P(i,k), C ∈ P(k+1,j), i <= k < j }
//
// The per-vertex value is a uint64 bitmask of nonterminals (up to 64),
// showing a non-scalar fixed-width value type on the hot path.
type CYK struct {
	// Grammar in CNF over nonterminals 0..NT-1 (0 is the start symbol).
	NT        int
	Binary    []CYKBinaryRule // A -> B C
	Terminals map[byte]uint64 // terminal -> bitmask of A with A -> terminal
	Input     string
}

// CYKBinaryRule is one production A -> B C.
type CYKBinaryRule struct{ A, B, C int }

// NewRandomCYK builds a random CNF grammar with nt nonterminals over the
// DNA alphabet and a random input of length n, deterministic in seed.
func NewRandomCYK(nt, nRules, n int, seed int64) *CYK {
	rng := rand.New(rand.NewSource(seed))
	g := &CYK{NT: nt, Terminals: map[byte]uint64{}}
	alphabet := "ACGT"
	// Every terminal derivable by at least one nonterminal.
	for k := 0; k < len(alphabet); k++ {
		g.Terminals[alphabet[k]] |= 1 << uint(rng.Intn(nt))
	}
	for r := 0; r < nRules; r++ {
		g.Binary = append(g.Binary, CYKBinaryRule{
			A: rng.Intn(nt), B: rng.Intn(nt), C: rng.Intn(nt),
		})
	}
	buf := make([]byte, n)
	for k := range buf {
		buf[k] = alphabet[rng.Intn(len(alphabet))]
	}
	g.Input = string(buf)
	return g
}

// Pattern returns the Triangle pattern over |Input|×|Input|.
func (g *CYK) Pattern() dpx10.Pattern { return dpx10.TrianglePattern(int32(len(g.Input))) }

// Codec returns the fixed-width bitmask codec.
func (g *CYK) Codec() dpx10.Codec[uint64] { return cykCodec{} }

type cykCodec struct{}

var _ codec.Codec[uint64] = cykCodec{}

func (cykCodec) Encode(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func (cykCodec) Decode(src []byte) (uint64, int, error) {
	if len(src) < 8 {
		return 0, 0, codec.ErrShortBuffer
	}
	return binary.LittleEndian.Uint64(src), 8, nil
}

// combine applies the binary rules to a (left, right) mask pair.
func (g *CYK) combine(left, right uint64) uint64 {
	var out uint64
	for _, r := range g.Binary {
		if left&(1<<uint(r.B)) != 0 && right&(1<<uint(r.C)) != 0 {
			out |= 1 << uint(r.A)
		}
	}
	return out
}

// Compute implements the CYK recurrence; deps carry the row segment
// (i, i..j-1) then the column segment (i+1..j, j), in Triangle's order, so
// the split at k pairs deps[k-i] = (i,k) with deps[(j-i)+(k-i)] = (k+1, j).
func (g *CYK) Compute(i, j int32, deps []dpx10.Cell[uint64]) uint64 {
	if i == j {
		return g.Terminals[g.Input[i]]
	}
	var mask uint64
	for k := i; k < j; k++ {
		left := depAt(deps, int(k-i), i, k)
		right := depAt(deps, int(j-i+k-i), k+1, j)
		mask |= g.combine(left, right)
	}
	return mask
}

// AppFinished is a no-op; use Accepts and Parseable.
func (g *CYK) AppFinished(*dpx10.Dag[uint64]) {}

// Accepts reports whether the start symbol derives the whole input.
func (g *CYK) Accepts(dag *dpx10.Dag[uint64]) bool {
	return dag.Result(0, int32(len(g.Input))-1)&1 != 0
}

// Parseable counts the spans derivable by at least one nonterminal.
func (g *CYK) Parseable(dag *dpx10.Dag[uint64]) int {
	n := int32(len(g.Input))
	count := 0
	for i := int32(0); i < n; i++ {
		for j := i; j < n; j++ {
			if dag.Result(i, j) != 0 {
				count++
			}
		}
	}
	return count
}

// Serial computes the full chart with the classic span-order loops.
func (g *CYK) Serial() [][]uint64 {
	n := len(g.Input)
	p := make([][]uint64, n)
	for i := range p {
		p[i] = make([]uint64, n)
		p[i][i] = g.Terminals[g.Input[i]]
	}
	for span := 1; span < n; span++ {
		for i := 0; i+span < n; i++ {
			j := i + span
			var mask uint64
			for k := i; k < j; k++ {
				mask |= g.combine(p[i][k], p[k+1][j])
			}
			p[i][j] = mask
		}
	}
	return p
}

// Verify checks the chart's active cells against Serial.
func (g *CYK) Verify(dag *dpx10.Dag[uint64]) error {
	want := g.Serial()
	n := len(g.Input)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if got := dag.Result(int32(i), int32(j)); got != want[i][j] {
				return fmt.Errorf("cyk: P(%d,%d) = %x, want %x", i, j, got, want[i][j])
			}
		}
	}
	return nil
}
