// Package dist maps the 2-D vertex index space of a DAG onto places.
//
// A Dist is the Go analogue of X10's Dist structure (paper §VI-B): it
// decides which place owns each cell (i,j) of the h×w matrix and how a
// cell is addressed inside its owner's contiguous local chunk. The engine
// and the distributed array are written purely against this interface, so
// the partitioning strategy (paper §VI-E "Distribution of DAG") is a
// plug-in decision.
//
// Every Dist supports Restrict, which rebuilds the same partitioning shape
// over a subset of the original places. Restrict is the geometric half of
// the paper's recovery mechanism (§VI-D): after a place dies, the engine
// creates a new distributed array laid out by dist.Restrict(survivors).
package dist

import (
	"fmt"
	"sort"
)

// Dist assigns each cell of an h×w index space to an owning place and a
// dense offset within that place's chunk.
//
// Conventions: i is the row index in [0,h), j is the column index in
// [0,w). Offsets at each place are dense in [0, LocalCount(p)).
type Dist interface {
	// Name identifies the distribution strategy, e.g. "blockrow".
	Name() string
	// Bounds returns the height (rows) and width (columns) of the space.
	Bounds() (h, w int32)
	// Places returns the owning place ids in ascending order. A freshly
	// built Dist over n places returns 0..n-1; a restricted Dist returns
	// the survivors.
	Places() []int
	// Place returns the place id owning cell (i,j).
	Place(i, j int32) int
	// LocalCount returns how many cells place p owns (0 if p owns none).
	LocalCount(p int) int
	// LocalBox returns the index box place p's offsets are laid out in
	// (the zero Box if p owns none).
	LocalBox(p int) Box
	// LocalOffset returns the dense offset of (i,j) within its owner's
	// chunk. Calling it for a cell and a non-owner is undefined.
	LocalOffset(i, j int32) int
	// PlaceOffset returns Place(i,j) and LocalOffset(i,j) together. The
	// engine's per-edge hot paths always need both, and Grid resolves
	// them from one split per axis.
	PlaceOffset(i, j int32) (place int, off int)
	// CellAt is the inverse of LocalOffset for place p.
	CellAt(p int, off int) (i, j int32)
	// Restrict rebuilds this distribution shape over only the places for
	// which alive[p] is true. It fails if no owner survives.
	Restrict(alive func(p int) bool) (Dist, error)
}

// Axis says what a Dist does to one axis of the grid.
type Axis uint8

const (
	// Whole: every place holds the full extent of the axis.
	Whole Axis = iota
	// Block: the axis is cut into contiguous blocks, so neighbouring local
	// indexes are neighbouring global ones.
	Block
	// Dealt: the axis is dealt out round-robin, so the global neighbour of
	// a local index is on another place.
	Dealt
	// Scattered: the box lists cells with no grid shape (Func's one row).
	Scattered
)

// Box is one place's dense local index box: Rows × Cols cells, the cell
// in local row r and local column c at offset r*Cols + c. The engine cuts
// its tiles out of it. Along a Whole or Block axis it is a translation of the grid.
type Box struct {
	Rows, Cols       int
	RowAxis, ColAxis Axis
}

func survivors(places []int, alive func(p int) bool) ([]int, error) {
	var out []int
	for _, p := range places {
		if alive(p) {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dist: no surviving places")
	}
	sort.Ints(out)
	return out, nil
}

func checkArgs(h, w int32, places []int) {
	if h <= 0 || w <= 0 {
		panic(fmt.Sprintf("dist: non-positive bounds %dx%d", h, w))
	}
	if len(places) == 0 {
		panic("dist: need at least one place")
	}
}

// identityPlaces returns [0, 1, ..., n-1].
func identityPlaces(n int) []int {
	ps := make([]int, n)
	for i := range ps {
		ps[i] = i
	}
	return ps
}

// rowColOf splits a dense offset into (off/w, off%w) without the integer
// divide: a reciprocal estimate refined by exact multiply comparisons.
// CellAt runs once per cell in the tile walk, where a hardware divide by a
// non-constant width is measurable.
func rowColOf(off, w int, invW float64) (int, int) {
	r := int(float64(off) * invW)
	for (r+1)*w <= off {
		r++
	}
	for r*w > off {
		r--
	}
	return r, off - r*w
}
