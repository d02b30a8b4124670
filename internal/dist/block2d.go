package dist

import "fmt"

// Block2D tiles the matrix into a pr×pc grid of contiguous blocks and
// assigns the grid cells to places in row-major order. It trades the
// one-dimensional layouts' long boundaries for shorter per-place borders
// in both directions, which lowers communication for diagonal-dependency
// patterns.
type Block2D struct {
	h, w      int32
	pr, pc    int
	places    []int
	rowStarts []int32
	colStarts []int32
	rowLook   blockLookup
	colLook   blockLookup
	rank      []int16
	cols      []int     // per-rank block width
	invCol    []float64 // per-rank 1/width
}

// NewBlock2D builds a pr×pc block grid over pr*pc places numbered 0..n-1.
func NewBlock2D(h, w int32, pr, pc int) *Block2D {
	return newBlock2DOver(h, w, pr, pc, identityPlaces(pr*pc))
}

func newBlock2DOver(h, w int32, pr, pc int, places []int) *Block2D {
	if pr <= 0 || pc <= 0 || pr*pc != len(places) {
		panic(fmt.Sprintf("dist: block2d grid %dx%d does not match %d places", pr, pc, len(places)))
	}
	checkArgs(h, w, places)
	d := &Block2D{
		h: h, w: w, pr: pr, pc: pc, places: places,
		rowLook: newBlockLookup(h, pr),
		colLook: newBlockLookup(w, pc),
		rank:    rankTable(places),
		cols:    make([]int, len(places)),
		invCol:  make([]float64, len(places)),
	}
	d.rowStarts, d.colStarts = d.rowLook.starts, d.colLook.starts
	for k := range places {
		bc := k % pc
		c := int(d.colStarts[bc+1] - d.colStarts[bc])
		d.cols[k] = c
		if c > 0 {
			d.invCol[k] = 1 / float64(c)
		}
	}
	return d
}

func (d *Block2D) Name() string           { return fmt.Sprintf("block2d(%dx%d)", d.pr, d.pc) }
func (d *Block2D) Bounds() (int32, int32) { return d.h, d.w }
func (d *Block2D) Places() []int          { return d.places }

// Grid returns the block-grid shape (rows of places, columns of places).
func (d *Block2D) Grid() (pr, pc int) { return d.pr, d.pc }

func (d *Block2D) gridCell(i, j int32) (br, bc int) {
	return d.rowLook.index(i), d.colLook.index(j)
}

func (d *Block2D) Place(i, j int32) int {
	br, bc := d.gridCell(i, j)
	return d.places[br*d.pc+bc]
}

func (d *Block2D) blockDims(k int) (rows, cols int) {
	br := k / d.pc
	return int(d.rowStarts[br+1] - d.rowStarts[br]), d.cols[k]
}

func (d *Block2D) LocalCount(p int) int { b := d.LocalBox(p); return b.Rows * b.Cols }

func (d *Block2D) LocalBox(p int) Box {
	k := rankIn(d.rank, p)
	if k < 0 {
		return Box{}
	}
	rows, cols := d.blockDims(k)
	return Box{Rows: rows, Cols: cols, RowAxis: Block, ColAxis: Block}
}

func (d *Block2D) LocalOffset(i, j int32) int {
	br, bc := d.gridCell(i, j)
	return int(i-d.rowStarts[br])*d.cols[br*d.pc+bc] + int(j-d.colStarts[bc])
}

func (d *Block2D) PlaceOffset(i, j int32) (int, int) {
	br, bc := d.gridCell(i, j)
	k := br*d.pc + bc
	return d.places[k], int(i-d.rowStarts[br])*d.cols[k] + int(j-d.colStarts[bc])
}

func (d *Block2D) CellAt(p int, off int) (int32, int32) {
	k := rankIn(d.rank, p)
	br, bc := k/d.pc, k%d.pc
	r, c := rowColOf(off, d.cols[k], d.invCol[k])
	return d.rowStarts[br] + int32(r), d.colStarts[bc] + int32(c)
}

// Restrict rebuilds the grid over the survivors. The 2-D grid shape cannot
// generally be preserved for an arbitrary survivor count, so the restricted
// distribution degenerates to the widest grid that still divides evenly,
// falling back to a 1×k row of blocks (column blocks) when nothing else
// fits — mirroring how the paper's recovery simply re-partitions the array
// over the remaining places.
func (d *Block2D) Restrict(alive func(p int) bool) (Dist, error) {
	ps, err := survivors(d.places, alive)
	if err != nil {
		return nil, fmt.Errorf("block2d: %w", err)
	}
	n := len(ps)
	// Choose the most square pr'×pc' factorization of n.
	bestPr := 1
	for f := 1; f*f <= n; f++ {
		if n%f == 0 {
			bestPr = f
		}
	}
	return newBlock2DOver(d.h, d.w, bestPr, n/bestPr, ps), nil
}
