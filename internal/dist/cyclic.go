package dist

import "fmt"

// CyclicRow deals rows round-robin across the places: row i goes to the
// place of rank i mod n. For wavefront DAGs this keeps every place busy
// throughout the anti-diagonal sweep at the cost of more cross-place
// dependency traffic — the locality/balance trade-off §VI-E exposes to
// the user.
type CyclicRow struct {
	h, w   int32
	places []int
}

// NewCyclicRow builds a row-cyclic distribution over n places.
func NewCyclicRow(h, w int32, n int) *CyclicRow {
	return newCyclicRowOver(h, w, identityPlaces(n))
}

func newCyclicRowOver(h, w int32, places []int) *CyclicRow {
	checkArgs(h, w, places)
	return &CyclicRow{h: h, w: w, places: places}
}

func (d *CyclicRow) Name() string           { return "cyclicrow" }
func (d *CyclicRow) Bounds() (int32, int32) { return d.h, d.w }
func (d *CyclicRow) Places() []int          { return d.places }

func (d *CyclicRow) Place(i, j int32) int {
	return d.places[int(i)%len(d.places)]
}

// localRows returns how many rows the place of rank k owns.
func (d *CyclicRow) localRows(k int) int {
	n := len(d.places)
	rows := int(d.h) / n
	if int(d.h)%n > k {
		rows++
	}
	return rows
}

func (d *CyclicRow) LocalCount(p int) int { b := d.LocalBox(p); return b.Rows * b.Cols }

func (d *CyclicRow) LocalBox(p int) Box {
	k := rankOf(d.places, p)
	if k < 0 {
		return Box{}
	}
	return Box{Rows: d.localRows(k), Cols: int(d.w), RowAxis: Dealt}
}

func (d *CyclicRow) LocalOffset(i, j int32) int {
	return int(i)/len(d.places)*int(d.w) + int(j)
}

func (d *CyclicRow) PlaceOffset(i, j int32) (int, int) {
	return d.Place(i, j), d.LocalOffset(i, j)
}

func (d *CyclicRow) CellAt(p int, off int) (int32, int32) {
	k := rankOf(d.places, p)
	localRow := off / int(d.w)
	return int32(localRow*len(d.places) + k), int32(off % int(d.w))
}

func (d *CyclicRow) Restrict(alive func(p int) bool) (Dist, error) {
	ps, err := survivors(d.places, alive)
	if err != nil {
		return nil, fmt.Errorf("cyclicrow: %w", err)
	}
	return newCyclicRowOver(d.h, d.w, ps), nil
}

// CyclicCol deals columns round-robin across the places.
type CyclicCol struct {
	h, w   int32
	places []int
}

// NewCyclicCol builds a column-cyclic distribution over n places.
func NewCyclicCol(h, w int32, n int) *CyclicCol {
	return newCyclicColOver(h, w, identityPlaces(n))
}

func newCyclicColOver(h, w int32, places []int) *CyclicCol {
	checkArgs(h, w, places)
	return &CyclicCol{h: h, w: w, places: places}
}

func (d *CyclicCol) Name() string           { return "cycliccol" }
func (d *CyclicCol) Bounds() (int32, int32) { return d.h, d.w }
func (d *CyclicCol) Places() []int          { return d.places }

func (d *CyclicCol) Place(i, j int32) int {
	return d.places[int(j)%len(d.places)]
}

func (d *CyclicCol) localCols(k int) int {
	n := len(d.places)
	cols := int(d.w) / n
	if int(d.w)%n > k {
		cols++
	}
	return cols
}

func (d *CyclicCol) LocalCount(p int) int { b := d.LocalBox(p); return b.Rows * b.Cols }

func (d *CyclicCol) LocalBox(p int) Box {
	k := rankOf(d.places, p)
	if k < 0 {
		return Box{}
	}
	return Box{Rows: int(d.h), Cols: d.localCols(k), ColAxis: Dealt}
}

func (d *CyclicCol) LocalOffset(i, j int32) int {
	k := int(j) % len(d.places)
	return int(i)*d.localCols(k) + int(j)/len(d.places)
}

func (d *CyclicCol) PlaceOffset(i, j int32) (int, int) {
	return d.Place(i, j), d.LocalOffset(i, j)
}

func (d *CyclicCol) CellAt(p int, off int) (int32, int32) {
	k := rankOf(d.places, p)
	cols := d.localCols(k)
	return int32(off / cols), int32(off%cols*len(d.places) + k)
}

func (d *CyclicCol) Restrict(alive func(p int) bool) (Dist, error) {
	ps, err := survivors(d.places, alive)
	if err != nil {
		return nil, fmt.Errorf("cycliccol: %w", err)
	}
	return newCyclicColOver(d.h, d.w, ps), nil
}
