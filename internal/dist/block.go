package dist

import "fmt"

// BlockRow splits the rows into contiguous balanced blocks, one per place.
// The paper's example in Figure 6 uses this layout ("divided by the row");
// it is the layout the four evaluation applications run with.
type BlockRow struct {
	h, w   int32
	places []int
	starts []int32 // row boundaries, len(places)+1
	look   blockLookup
	rank   []int16
	invW   float64
}

// NewBlockRow builds a row-block distribution of an h×w space over n
// places numbered 0..n-1.
func NewBlockRow(h, w int32, n int) *BlockRow {
	return newBlockRowOver(h, w, identityPlaces(n))
}

func newBlockRowOver(h, w int32, places []int) *BlockRow {
	checkArgs(h, w, places)
	look := newBlockLookup(h, len(places))
	return &BlockRow{h: h, w: w, places: places, starts: look.starts,
		look: look, rank: rankTable(places), invW: 1 / float64(w)}
}

func (d *BlockRow) Name() string           { return "blockrow" }
func (d *BlockRow) Bounds() (int32, int32) { return d.h, d.w }
func (d *BlockRow) Places() []int          { return d.places }

func (d *BlockRow) Place(i, j int32) int {
	return d.places[d.look.index(i)]
}

func (d *BlockRow) LocalCount(p int) int { b := d.LocalBox(p); return b.Rows * b.Cols }

func (d *BlockRow) LocalBox(p int) Box {
	k := rankIn(d.rank, p)
	if k < 0 {
		return Box{}
	}
	return Box{Rows: int(d.starts[k+1] - d.starts[k]), Cols: int(d.w), RowAxis: Block}
}

func (d *BlockRow) LocalOffset(i, j int32) int {
	k := d.look.index(i)
	return int(i-d.starts[k])*int(d.w) + int(j)
}

func (d *BlockRow) PlaceOffset(i, j int32) (int, int) {
	k := d.look.index(i)
	return d.places[k], int(i-d.starts[k])*int(d.w) + int(j)
}

func (d *BlockRow) CellAt(p int, off int) (int32, int32) {
	k := rankIn(d.rank, p)
	r, c := rowColOf(off, int(d.w), d.invW)
	return d.starts[k] + int32(r), int32(c)
}

func (d *BlockRow) Restrict(alive func(p int) bool) (Dist, error) {
	ps, err := survivors(d.places, alive)
	if err != nil {
		return nil, fmt.Errorf("blockrow: %w", err)
	}
	return newBlockRowOver(d.h, d.w, ps), nil
}

// BlockCol splits the columns into contiguous balanced blocks, one per
// place — the paper's default ("by default vertices are spliced and
// distributed along with column", §VI-B).
type BlockCol struct {
	h, w   int32
	places []int
	starts []int32 // column boundaries
	look   blockLookup
	rank   []int16
	cols   []int     // per-rank block width
	invCol []float64 // per-rank 1/width
}

// NewBlockCol builds a column-block distribution over n places.
func NewBlockCol(h, w int32, n int) *BlockCol {
	return newBlockColOver(h, w, identityPlaces(n))
}

func newBlockColOver(h, w int32, places []int) *BlockCol {
	checkArgs(h, w, places)
	look := newBlockLookup(w, len(places))
	d := &BlockCol{h: h, w: w, places: places, starts: look.starts,
		look: look, rank: rankTable(places),
		cols: make([]int, len(places)), invCol: make([]float64, len(places))}
	for k := range places {
		c := int(d.starts[k+1] - d.starts[k])
		d.cols[k] = c
		if c > 0 {
			d.invCol[k] = 1 / float64(c)
		}
	}
	return d
}

func (d *BlockCol) Name() string           { return "blockcol" }
func (d *BlockCol) Bounds() (int32, int32) { return d.h, d.w }
func (d *BlockCol) Places() []int          { return d.places }

func (d *BlockCol) Place(i, j int32) int {
	return d.places[d.look.index(j)]
}

func (d *BlockCol) LocalCount(p int) int { b := d.LocalBox(p); return b.Rows * b.Cols }

func (d *BlockCol) LocalBox(p int) Box {
	k := rankIn(d.rank, p)
	if k < 0 {
		return Box{}
	}
	return Box{Rows: int(d.h), Cols: d.cols[k], ColAxis: Block}
}

func (d *BlockCol) LocalOffset(i, j int32) int {
	k := d.look.index(j)
	return int(i)*d.cols[k] + int(j-d.starts[k])
}

func (d *BlockCol) PlaceOffset(i, j int32) (int, int) {
	k := d.look.index(j)
	return d.places[k], int(i)*d.cols[k] + int(j-d.starts[k])
}

func (d *BlockCol) CellAt(p int, off int) (int32, int32) {
	k := rankIn(d.rank, p)
	r, c := rowColOf(off, d.cols[k], d.invCol[k])
	return int32(r), d.starts[k] + int32(c)
}

func (d *BlockCol) Restrict(alive func(p int) bool) (Dist, error) {
	ps, err := survivors(d.places, alive)
	if err != nil {
		return nil, fmt.Errorf("blockcol: %w", err)
	}
	return newBlockColOver(d.h, d.w, ps), nil
}
