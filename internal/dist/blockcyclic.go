package dist

import "fmt"

// BlockCyclicRow deals fixed-size blocks of rows to the places round-robin
// — the classic HPC compromise between BlockRow's locality (cheap
// neighbour dependencies within a block) and CyclicRow's balance (every
// place keeps work throughout a wavefront sweep). Block size 1 degenerates
// to CyclicRow; block size >= h/n degenerates to BlockRow.
type BlockCyclicRow struct {
	h, w   int32
	block  int32
	places []int
}

// NewBlockCyclicRow builds the distribution with the given row-block size
// over n places.
func NewBlockCyclicRow(h, w, block int32, n int) *BlockCyclicRow {
	return newBlockCyclicRowOver(h, w, block, identityPlaces(n))
}

func newBlockCyclicRowOver(h, w, block int32, places []int) *BlockCyclicRow {
	checkArgs(h, w, places)
	if block <= 0 {
		panic(fmt.Sprintf("dist: blockcyclic block size %d", block))
	}
	return &BlockCyclicRow{h: h, w: w, block: block, places: places}
}

func (d *BlockCyclicRow) Name() string           { return fmt.Sprintf("blockcyclicrow(%d)", d.block) }
func (d *BlockCyclicRow) Bounds() (int32, int32) { return d.h, d.w }
func (d *BlockCyclicRow) Places() []int          { return d.places }

// rank of the place owning row i.
func (d *BlockCyclicRow) rowRank(i int32) int {
	return int(i/d.block) % len(d.places)
}

func (d *BlockCyclicRow) Place(i, j int32) int {
	return d.places[d.rowRank(i)]
}

// localRowIndex maps global row i to the owner's dense local row number.
func (d *BlockCyclicRow) localRowIndex(i int32) int32 {
	turn := i / d.block / int32(len(d.places)) // how many full deals preceded
	return turn*d.block + i%d.block
}

// rowsOwned counts the rows owned by the place of rank k.
func (d *BlockCyclicRow) rowsOwned(k int) int32 {
	n := int32(len(d.places))
	fullDeals := d.h / (d.block * n)
	rows := fullDeals * d.block
	rem := d.h - fullDeals*d.block*n // rows in the final partial deal
	start := int32(k) * d.block
	switch {
	case rem > start+d.block:
		rows += d.block
	case rem > start:
		rows += rem - start
	}
	return rows
}

func (d *BlockCyclicRow) LocalCount(p int) int { b := d.LocalBox(p); return b.Rows * b.Cols }

// LocalBox deals whole row blocks, but local rows on either side of a
// block's edge are not neighbours in the grid: the axis counts as dealt.
func (d *BlockCyclicRow) LocalBox(p int) Box {
	k := rankOf(d.places, p)
	if k < 0 {
		return Box{}
	}
	return Box{Rows: int(d.rowsOwned(k)), Cols: int(d.w), RowAxis: Dealt}
}

func (d *BlockCyclicRow) LocalOffset(i, j int32) int {
	return int(d.localRowIndex(i))*int(d.w) + int(j)
}

func (d *BlockCyclicRow) PlaceOffset(i, j int32) (int, int) {
	return d.Place(i, j), d.LocalOffset(i, j)
}

func (d *BlockCyclicRow) CellAt(p int, off int) (int32, int32) {
	k := rankOf(d.places, p)
	localRow := int32(off / int(d.w))
	turn := localRow / d.block
	within := localRow % d.block
	i := (turn*int32(len(d.places))+int32(k))*d.block + within
	return i, int32(off % int(d.w))
}

func (d *BlockCyclicRow) Restrict(alive func(p int) bool) (Dist, error) {
	ps, err := survivors(d.places, alive)
	if err != nil {
		return nil, fmt.Errorf("blockcyclicrow: %w", err)
	}
	return newBlockCyclicRowOver(d.h, d.w, d.block, ps), nil
}
