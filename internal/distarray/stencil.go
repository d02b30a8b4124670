package distarray

import (
	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dist"
)

// Stencil finds a chunk's cells' neighbours under a dense stencil
// (dag.Stencil): by arithmetic where the box is a translation of the grid,
// through the dist across a box edge or along a dealt axis. The activation
// scan builds it when the tile grid is the dist's non-empty box and no axis
// of the box is dist.Scattered.
type Stencil struct {
	*dag.StencilTable
	RowOf, ColOf []int32 // global row of each local row, column of each local column
	// A cell this far inside every edge of its tile has all its edges in it;
	// along a dealt axis that is the whole box.
	ReachRows, ReachCols int

	d              dist.Dist
	place          int
	rows, cols     int
	dealtI, dealtJ bool
	boxCols        []int // place id -> the width of its box
}

func newStencil(pat dag.Pattern, d dist.Dist, place int, g *TileGrid) *Stencil {
	box := d.LocalBox(place)
	if box.RowAxis == dist.Scattered || box.ColAxis == dist.Scattered || g.rows != box.Rows || g.cols != box.Cols || g.rows*g.cols == 0 {
		return nil
	}
	t := dag.TabulateStencil(pat)
	if t == nil {
		return nil
	}
	// An axis dealt over one place is whole: the box is the grid.
	ps := d.Places()
	s := &Stencil{StencilTable: t, d: d, place: place, rows: box.Rows, cols: box.Cols,
		RowOf: make([]int32, box.Rows), ColOf: make([]int32, box.Cols),
		dealtI: box.RowAxis == dist.Dealt && len(ps) > 1, dealtJ: box.ColAxis == dist.Dealt && len(ps) > 1,
		ReachRows: int(t.ReachI), ReachCols: int(t.ReachJ), boxCols: make([]int, ps[len(ps)-1]+1)}
	for _, p := range ps {
		s.boxCols[p] = d.LocalBox(p).Cols
	}
	for r := range s.RowOf {
		s.RowOf[r], _ = d.CellAt(place, r*box.Cols)
	}
	for c := range s.ColOf {
		_, s.ColOf[c] = d.CellAt(place, c)
	}
	if s.dealtI && t.ReachI > 0 {
		s.ReachRows = box.Rows
	}
	if s.dealtJ && t.ReachJ > 0 {
		s.ReachCols = box.Cols
	}
	return s
}

// CellRef is a dist.PlaceOffset resolution: the owning place and the dense
// local offset of a cell within it.
type CellRef struct {
	Owner int32
	Off   int32
}

// Locate finds (i+di, j+dj), the neighbour of the cell in local row r and
// column c, global (i, j); ok is false when it lies outside the grid.
func (s *Stencil) Locate(r, c int, i, j, di, dj int32) (ref CellRef, ok bool) {
	h, w := s.Bounds()
	if ti, tj := i+di, j+dj; ti < 0 || tj < 0 || ti >= h || tj >= w {
		return ref, false
	}
	if (di == 0 || !s.dealtI) && (dj == 0 || !s.dealtJ) {
		if rr, cc := r+int(di), c+int(dj); uint(rr) < uint(s.rows) && uint(cc) < uint(s.cols) {
			return CellRef{Owner: int32(s.place), Off: int32(rr*s.cols + cc)}, true
		}
	}
	p, off := s.d.PlaceOffset(i+di, j+dj)
	return CellRef{Owner: int32(p), Off: int32(off)}, true
}

// DealtCols reports whether every place's column axis is dist.Dealt.
func (s *Stencil) DealtCols() bool { return s.dealtJ }

// RowEnd is where the run of place p's local offsets from off that lie at
// consecutive columns of one global row ends: with p's box row, or along a
// dealt column axis at off+1.
func (s *Stencil) RowEnd(p, off int) int {
	if s.dealtJ {
		return off + 1
	}
	return off + s.boxCols[p] - off%s.boxCols[p]
}

// Stencil is the last activation scan's stencil view, nil on the generic arm.
func (c *Chunk[T]) Stencil() *Stencil { return c.sten.Load() }
