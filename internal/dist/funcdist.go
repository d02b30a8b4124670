package dist

import "fmt"

// Func is a fully custom distribution defined by a user function from cell
// to place (paper §VI-E: "the user can define the partition and
// distribution of the DAG using a Dist structure to realize a better
// locality"). It materializes an explicit index at construction time —
// about twelve bytes per cell — so it suits moderate problem sizes; the
// structured distributions in this package index in O(1) space.
type Func struct {
	h, w   int32
	fn     func(i, j int32) int
	places []int
	offset []int32   // linear cell index -> offset within owner chunk
	cells  [][]int64 // place rank -> owned linear cell indexes, scan order
	ranks  map[int]int
}

// NewFunc builds a custom distribution from fn, which must return a valid
// place id in places for every cell of the h×w space.
func NewFunc(h, w int32, places []int, fn func(i, j int32) int) (*Func, error) {
	checkArgs(h, w, places)
	d := &Func{
		h: h, w: w, fn: fn, places: places,
		offset: make([]int32, int64(h)*int64(w)),
		cells:  make([][]int64, len(places)),
		ranks:  make(map[int]int, len(places)),
	}
	for k, p := range places {
		d.ranks[p] = k
	}
	var lin int64
	for i := int32(0); i < h; i++ {
		for j := int32(0); j < w; j++ {
			p := fn(i, j)
			k, ok := d.ranks[p]
			if !ok {
				return nil, fmt.Errorf("dist: func mapped (%d,%d) to unknown place %d", i, j, p)
			}
			d.offset[lin] = int32(len(d.cells[k]))
			d.cells[k] = append(d.cells[k], lin)
			lin++
		}
	}
	return d, nil
}

func (d *Func) Name() string           { return "func" }
func (d *Func) Bounds() (int32, int32) { return d.h, d.w }
func (d *Func) Places() []int          { return d.places }

func (d *Func) Place(i, j int32) int { return d.fn(i, j) }

func (d *Func) LocalCount(p int) int { return d.LocalBox(p).Cols }

// LocalBox is one row of the place's cells in scan order: a custom
// ownership function promises no structure a taller box could describe.
func (d *Func) LocalBox(p int) Box {
	k, ok := d.ranks[p]
	if !ok {
		return Box{}
	}
	return Box{Rows: 1, Cols: len(d.cells[k]), ColAxis: Scattered}
}

func (d *Func) LocalOffset(i, j int32) int {
	return int(d.offset[int64(i)*int64(d.w)+int64(j)])
}

func (d *Func) PlaceOffset(i, j int32) (int, int) {
	return d.fn(i, j), int(d.offset[int64(i)*int64(d.w)+int64(j)])
}

func (d *Func) CellAt(p int, off int) (int32, int32) {
	lin := d.cells[d.ranks[p]][off]
	return int32(lin / int64(d.w)), int32(lin % int64(d.w))
}

// Restrict reassigns cells owned by dead places to the survivors
// round-robin, preserving survivor-owned cells in place.
func (d *Func) Restrict(alive func(p int) bool) (Dist, error) {
	ps, err := survivors(d.places, alive)
	if err != nil {
		return nil, fmt.Errorf("func: %w", err)
	}
	next := 0
	newFn := func(i, j int32) int {
		p := d.fn(i, j)
		if alive(p) {
			return p
		}
		p = ps[next%len(ps)]
		next++
		return p
	}
	// The wrapped fn is stateful, so materialize it into a stable table
	// before handing it out: Place must be a pure function of (i,j).
	owner := make([]int32, int64(d.h)*int64(d.w))
	var lin int64
	for i := int32(0); i < d.h; i++ {
		for j := int32(0); j < d.w; j++ {
			owner[lin] = int32(newFn(i, j))
			lin++
		}
	}
	w := d.w
	return NewFunc(d.h, d.w, ps, func(i, j int32) int {
		return int(owner[int64(i)*int64(w)+int64(j)])
	})
}
