package dist

import "fmt"

// cut is what a Grid does to one axis: leave it Whole, cut it into n
// balanced contiguous Blocks, or deal it out round-robin in blocks of
// deal indexes (Dealt).
type cut struct {
	kind   Axis
	n      int32   // parts
	deal   int32   // Dealt: indexes in each dealt block
	ext    int32   // extent of the axis
	starts []int32 // Block: part k covers [starts[k], starts[k+1])
	scale  float64 // Block: just under n/ext, for a first guess at a part
}

func newCut(kind Axis, ext int32, n int, deal int32) cut {
	c := cut{kind: kind, n: int32(n), deal: deal, ext: ext}
	if kind == Block {
		// Blocks differ in size by at most one.
		c.starts = make([]int32, n+1)
		for k := range c.starts {
			c.starts[k] = int32(int64(k) * int64(ext) / int64(n))
		}
		// Shaded down so that x·scale never rounds up past x·n/ext, whose
		// floor is never past x's part.
		c.scale = float64(n) / float64(ext) * (1 - 0x1p-40)
	}
	return c
}

// split returns the part holding index x and x's index within the part.
// It sits on the engine's per-edge hot paths, so it stays inlinable and
// divides only in unsigned 32 bits. A Block part starts from a float
// multiply that never overshoots and steps up to the answer, a step or
// two unless some blocks are empty.
func (c *cut) split(x int32) (int, int32) {
	if c.kind == Block {
		k := int(float64(x) * c.scale)
		for c.starts[k+1] <= x {
			k++
		}
		return k, x - c.starts[k]
	}
	b := uint32(x) // dealt block
	if c.deal > 1 {
		b /= uint32(c.deal)
	}
	n := uint32(c.n) // b/n full deals came before
	return int(b % n), x - int32(b-b/n)*c.deal
}

// join is the inverse of split: index x of part k.
func (c *cut) join(k int, x int32) int32 {
	switch c.kind {
	case Whole:
		return x
	case Block:
		return c.starts[k] + x
	}
	if c.deal == 1 {
		return x*c.n + int32(k)
	}
	q := x / c.deal
	return (q*c.n+int32(k))*c.deal + x - q*c.deal
}

// size returns how many indexes part k holds.
func (c *cut) size(k int) int32 {
	switch c.kind {
	case Whole:
		return c.ext
	case Block:
		return c.starts[k+1] - c.starts[k]
	}
	round := c.deal * c.n
	full := c.ext / round
	last := c.ext - full*round - int32(k)*c.deal // part k's share of the last deal
	return full*c.deal + min(max(last, 0), c.deal)
}

// Grid is the structured distribution: a cut of the rows into pr parts
// and a cut of the columns into pc parts (paper §VI-E: block or cyclic, by
// row or by column). The place of rank rowPart·pc + colPart owns the cells
// of both parts, laid out row-major in its local box.
type Grid struct {
	row, col cut
	places   []int
	cols     []int   // column part -> its width
	local    []share // place id -> its share, up to the largest owner
	family   string  // Name without its parameters
	name     string
}

// share is one place's parts of a Grid, so that CellAt and LocalBox find
// them with one load.
type share struct {
	owner   bool
	rp, cp  int     // row and column part
	cols    int     // width of the box
	invCols float64 // 1/cols, for CellAt's divide
}

// NewBlockRow splits the rows into contiguous balanced blocks, one per
// place. The paper's example in Figure 6 uses this layout ("divided by the
// row"); it is the layout the four evaluation applications run with.
func NewBlockRow(h, w int32, n int) *Grid {
	return newGrid("blockrow", h, w, Block, Whole, 1, identityPlaces(n), n, 1)
}

// NewBlockCol splits the columns into contiguous balanced blocks, one per
// place — the paper's default ("by default vertices are spliced and
// distributed along with column", §VI-B).
func NewBlockCol(h, w int32, n int) *Grid {
	return newGrid("blockcol", h, w, Whole, Block, 1, identityPlaces(n), 1, n)
}

// NewCyclicRow deals rows round-robin: row i goes to the place of rank
// i mod n. For wavefront DAGs this keeps every place busy throughout the
// anti-diagonal sweep at the cost of more cross-place dependency traffic —
// the locality/balance trade-off §VI-E exposes to the user.
func NewCyclicRow(h, w int32, n int) *Grid {
	return newGrid("cyclicrow", h, w, Dealt, Whole, 1, identityPlaces(n), n, 1)
}

// NewCyclicCol deals columns round-robin across n places.
func NewCyclicCol(h, w int32, n int) *Grid {
	return newGrid("cycliccol", h, w, Whole, Dealt, 1, identityPlaces(n), 1, n)
}

// Named returns the constructor of the whole-axis layout called name —
// "blockrow", "blockcol", "cyclicrow" or "cycliccol" — or nil for any
// other name.
func Named(name string) func(h, w int32, n int) Dist {
	switch name {
	case "blockrow":
		return func(h, w int32, n int) Dist { return NewBlockRow(h, w, n) }
	case "blockcol":
		return func(h, w int32, n int) Dist { return NewBlockCol(h, w, n) }
	case "cyclicrow":
		return func(h, w int32, n int) Dist { return NewCyclicRow(h, w, n) }
	case "cycliccol":
		return func(h, w int32, n int) Dist { return NewCyclicCol(h, w, n) }
	}
	return nil
}

// NewBlockCyclicRow deals blocks of block rows round-robin over n places —
// the classic HPC compromise between block rows' locality and cyclic rows'
// balance. Block size 1 owns the cells cyclic rows do; block size ≥ h/n
// owns the cells block rows do, or leaves the last places empty.
func NewBlockCyclicRow(h, w, block int32, n int) *Grid {
	if block <= 0 {
		panic(fmt.Sprintf("dist: blockcyclic block size %d", block))
	}
	return newGrid("blockcyclicrow", h, w, Dealt, Whole, block, identityPlaces(n), n, 1)
}

// NewBlock2D tiles the matrix into a pr×pc grid of contiguous blocks over
// pr·pc places. It trades the one-axis layouts' long boundaries for
// shorter borders in both directions, which lowers communication for
// diagonal-dependency patterns.
func NewBlock2D(h, w int32, pr, pc int) *Grid {
	return newGrid("block2d", h, w, Block, Block, 1, identityPlaces(pr*pc), pr, pc)
}

func newGrid(family string, h, w int32, rows, cols Axis, deal int32, places []int, pr, pc int) *Grid {
	checkArgs(h, w, places)
	if pr <= 0 || pc <= 0 || pr*pc != len(places) {
		panic(fmt.Sprintf("dist: %s grid %dx%d does not match %d places", family, pr, pc, len(places)))
	}
	g := &Grid{row: newCut(rows, h, pr, deal), col: newCut(cols, w, pc, deal),
		places: places, family: family, name: family,
		cols: make([]int, pc), local: make([]share, places[len(places)-1]+1)}
	for k := range g.cols {
		g.cols[k] = int(g.col.size(k))
	}
	for k, p := range places {
		sh := share{owner: true, rp: k / pc, cp: k % pc}
		if sh.cols = g.cols[sh.cp]; sh.cols > 0 {
			sh.invCols = 1 / float64(sh.cols)
		}
		g.local[p] = sh
	}
	switch family {
	case "blockcyclicrow":
		g.name = fmt.Sprintf("%s(%d)", family, deal)
	case "block2d":
		g.name = fmt.Sprintf("%s(%dx%d)", family, pr, pc)
	}
	return g
}

func (g *Grid) Name() string           { return g.name }
func (g *Grid) Bounds() (int32, int32) { return g.row.ext, g.col.ext }
func (g *Grid) Places() []int          { return g.places }

func (g *Grid) Place(i, j int32) int { p, _ := g.PlaceOffset(i, j); return p }

func (g *Grid) LocalOffset(i, j int32) int { _, off := g.PlaceOffset(i, j); return off }

func (g *Grid) PlaceOffset(i, j int32) (int, int) {
	if g.col.kind == Whole {
		rp, r := g.row.split(i)
		return g.places[rp], int(r)*int(g.col.ext) + int(j)
	}
	cp, c := g.col.split(j)
	if g.row.kind == Whole {
		return g.places[cp], int(i)*g.cols[cp] + int(c)
	}
	rp, r := g.row.split(i)
	return g.places[rp*len(g.cols)+cp], int(r)*g.cols[cp] + int(c)
}

func (g *Grid) CellAt(p int, off int) (int32, int32) {
	sh := &g.local[p]
	r, c := rowColOf(off, sh.cols, sh.invCols)
	return g.row.join(sh.rp, int32(r)), g.col.join(sh.cp, int32(c))
}

func (g *Grid) LocalCount(p int) int { b := g.LocalBox(p); return b.Rows * b.Cols }

func (g *Grid) LocalBox(p int) Box {
	if p < 0 || p >= len(g.local) || !g.local[p].owner {
		return Box{}
	}
	sh := &g.local[p]
	return Box{Rows: int(g.row.size(sh.rp)), Cols: g.cols[sh.cp], RowAxis: g.row.kind, ColAxis: g.col.kind}
}

// Restrict re-cuts the split axis over the survivors. A grid split both
// ways takes the most square pr×pc factorization of the survivor count,
// which is a 1×n row of column blocks when the count is prime — as the
// paper's recovery simply re-partitions the array over the remaining
// places.
func (g *Grid) Restrict(alive func(p int) bool) (Dist, error) {
	ps, err := survivors(g.places, alive)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", g.family, err)
	}
	n := len(ps)
	pr, pc := n, 1
	switch {
	case g.row.kind == Whole:
		pr, pc = 1, n
	case g.col.kind != Whole:
		for f := 1; f*f <= n; f++ {
			if n%f == 0 {
				pr = f
			}
		}
		pc = n / pr
	}
	return newGrid(g.family, g.row.ext, g.col.ext, g.row.kind, g.col.kind, g.row.deal, ps, pr, pc), nil
}
