package apps

import (
	"fmt"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/workload"
)

// MTP is the Manhattan Tourists Problem, the paper's second evaluation
// application (§VIII):
//
//	D(i,j) = max{ D(i-1,j) + w(i-1,j,i,j), D(i,j-1) + w(i,j-1,i,j) }
//
// on the Grid pattern (Figure 5a). Edge weights are a pure function of
// the endpoints (hash-based), so the grid never has to be materialized —
// exactly how the paper can run 1-billion-vertex instances.
type MTP struct {
	H, W int32
	MaxW int64
	Seed int64
}

// NewMTP builds an h×w tourist grid with weights in [0, maxW).
func NewMTP(h, w int32, maxW, seed int64) *MTP {
	if maxW <= 0 {
		maxW = 100
	}
	return &MTP{H: h, W: w, MaxW: maxW, Seed: seed}
}

// Pattern returns the Grid pattern (Figure 5a).
func (m *MTP) Pattern() dpx10.Pattern { return dpx10.GridPattern(m.H, m.W) }

// Weight returns the length of the edge (i1,j1) -> (i2,j2).
func (m *MTP) Weight(i1, j1, i2, j2 int32) int64 {
	return workload.EdgeWeight(i1, j1, i2, j2, m.MaxW, m.Seed)
}

// Compute implements the MTP recurrence; the origin scores zero.
func (m *MTP) Compute(i, j int32, deps []dpx10.Cell[int64]) int64 {
	if i == 0 && j == 0 {
		return 0
	}
	best := int64(-1 << 62)
	if i > 0 {
		best = max(best, mustDep(deps, i-1, j)+m.Weight(i-1, j, i, j))
	}
	if j > 0 {
		best = max(best, mustDep(deps, i, j-1)+m.Weight(i, j-1, i, j))
	}
	return best
}

// AppFinished is a no-op; use Best and Path.
func (m *MTP) AppFinished(*dpx10.Dag[int64]) {}

// Best returns the weight of the heaviest monotone path to the sink.
func (m *MTP) Best(dag *dpx10.Dag[int64]) int64 {
	return dag.Result(m.H-1, m.W-1)
}

// Path backtracks the optimal route from the sink to the origin and
// returns it origin-first.
func (m *MTP) Path(dag *dpx10.Dag[int64]) []dpx10.VertexID {
	var rev []dpx10.VertexID
	i, j := m.H-1, m.W-1
	for {
		rev = append(rev, dpx10.VertexID{I: i, J: j})
		if i == 0 && j == 0 {
			break
		}
		v := dag.Result(i, j)
		if i > 0 && dag.Result(i-1, j)+m.Weight(i-1, j, i, j) == v {
			i--
		} else {
			j--
		}
	}
	for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
		rev[a], rev[b] = rev[b], rev[a]
	}
	return rev
}

// Serial computes the full matrix with nested loops.
func (m *MTP) Serial() [][]int64 {
	d := make([][]int64, m.H)
	for i := range d {
		d[i] = make([]int64, m.W)
	}
	for i := int32(0); i < m.H; i++ {
		for j := int32(0); j < m.W; j++ {
			if i == 0 && j == 0 {
				continue
			}
			best := int64(-1 << 62)
			if i > 0 {
				best = max(best, d[i-1][j]+m.Weight(i-1, j, i, j))
			}
			if j > 0 {
				best = max(best, d[i][j-1]+m.Weight(i, j-1, i, j))
			}
			d[i][j] = best
		}
	}
	return d
}

// Verify checks the distributed result cell by cell against Serial.
func (m *MTP) Verify(dag *dpx10.Dag[int64]) error {
	want := m.Serial()
	for i := int32(0); i < m.H; i++ {
		for j := int32(0); j < m.W; j++ {
			if got := dag.Result(i, j); got != want[i][j] {
				return fmt.Errorf("mtp: D(%d,%d) = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
	return nil
}
