// Package sched implements DPX10's vertex scheduling strategies
// (paper §VI-C, §VI-E).
//
// When a vertex becomes ready, its owning place decides where the
// compute() call runs:
//
//   - Local: on the owner itself — the paper's default, no extra decision
//     cost, dependencies may need remote fetches.
//   - Random: on a uniformly random alive place — a load-scattering
//     baseline, usually worse, kept faithful to the paper.
//   - MinComm: on the place minimizing the total bytes moved — the sum of
//     fetches for dependencies not resident at the execution place plus,
//     when executing away from the owner, the write-back of the result.
//     The paper notes this "introduces some extra overhead and should be
//     used in appropriate scenarios".
package sched

import (
	"fmt"
	"math/rand/v2"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dist"
)

// Strategy selects which scheduling policy a run uses.
type Strategy int

const (
	// Local executes every vertex at its owning place (default).
	Local Strategy = iota
	// Random executes each vertex at a uniformly random alive place.
	Random
	// MinComm executes each vertex at the place that minimizes the
	// modeled communication volume.
	MinComm
	// Steal keeps owner-local execution and balances load with GLB
	// lifelines: idle places probe, then park on lifeline buddies that
	// push them surplus ready tiles — the work-stealing direction the paper
	// cites as future work (SLAW, X10's work-stealing scheduler).
	Steal
)

// ParseStrategy maps a CLI name to a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "local":
		return Local, nil
	case "random":
		return Random, nil
	case "mincomm":
		return MinComm, nil
	case "steal":
		return Steal, nil
	}
	return 0, fmt.Errorf("sched: unknown strategy %q (have local, random, mincomm, steal)", name)
}

func (s Strategy) String() string {
	switch s {
	case Local:
		return "local"
	case Random:
		return "random"
	case MinComm:
		return "mincomm"
	case Steal:
		return "steal"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Picker makes execution-place decisions for one place's worker. It is not safe for concurrent use; each worker thread owns one.
type Picker struct {
	strategy  Strategy
	d         dist.Dist
	alive     func(p int) bool
	valueSize int        // modeled bytes to move one vertex value
	rng       *rand.Rand // Random only

	// MinComm's scratch: external dependencies per owning place, and the
	// owning places in order of first appearance.
	owned []int
	cands []int
}

// NewPicker builds a Picker. valueSize is the encoded width of one vertex
// value; seed makes Random reproducible per worker. Only Random draws, so
// only Random gets a source.
func NewPicker(s Strategy, d dist.Dist, alive func(p int) bool, valueSize int, seed int64) *Picker {
	if valueSize <= 0 {
		valueSize = 1
	}
	pk := &Picker{strategy: s, d: d, alive: alive, valueSize: valueSize}
	if s == Random {
		pk.rng = rand.New(rand.NewPCG(uint64(seed), 0))
	}
	return pk
}

// Rebind points the picker at a new distribution (after recovery).
func (pk *Picker) Rebind(d dist.Dist) { pk.d = d }

// PickTile returns the place where a ready tile of n cells, owned by
// owner, should execute — one decision for the whole tile; a single vertex
// is a tile of one. extDeps are the tile's distinct external dependencies
// (cells outside the tile); only MinComm consults them, so other strategies
// may pass nil. MinComm evaluates the owner and every dependency owner as
// candidates; ties favor the owner (no migration), then lower place ids for
// determinism.
func (pk *Picker) PickTile(owner, n int, extDeps []dag.VertexID) int {
	switch pk.strategy {
	case Random:
		places := pk.d.Places()
		// Try a few times to land on an alive place; fall back to owner.
		for t := 0; t < 4; t++ {
			p := places[pk.rng.IntN(len(places))]
			if pk.alive(p) {
				return p
			}
		}
		return owner
	case MinComm:
		// One pass counts the dependencies each place owns; a candidate's
		// cost is then arithmetic. The bytes moved when the tile runs at exec:
		// one transfer per external dependency not resident there, plus —
		// away from the owner — one result write-back per cell. Intra-tile
		// values stay in the executing worker's hands either way.
		pk.cands = pk.cands[:0]
		for _, dep := range extDeps {
			p := pk.d.Place(dep.I, dep.J)
			if p >= len(pk.owned) {
				pk.owned = append(pk.owned, make([]int, p+1-len(pk.owned))...)
			}
			if pk.owned[p]++; pk.owned[p] == 1 {
				pk.cands = append(pk.cands, p)
			}
		}
		cost := func(exec int) int {
			c := len(extDeps) * pk.valueSize
			if exec < len(pk.owned) {
				c -= pk.owned[exec] * pk.valueSize
			}
			if exec != owner {
				c += n * pk.valueSize
			}
			return c
		}
		best, bestCost := owner, cost(owner)
		for _, cand := range pk.cands {
			if cand == best || !pk.alive(cand) {
				continue
			}
			c := cost(cand)
			if c < bestCost || (c == bestCost && cand != owner && best != owner && cand < best) {
				best, bestCost = cand, c
			}
		}
		for _, p := range pk.cands {
			pk.owned[p] = 0
		}
		return best
	default:
		return owner
	}
}
