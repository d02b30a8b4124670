package distarray

import (
	"fmt"
	"slices"
	"testing"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dist"
)

// offsetRows is a dense stencil's offsets per row, the input TabulateStencil
// turns into a StencilTable, which is then the pattern itself.
type offsetRows struct {
	h, w int32
	rows [][]dag.Offset
}

func (p *offsetRows) Bounds() (int32, int32)                                         { return p.h, p.w }
func (p *offsetRows) Offsets(i int32) []dag.Offset                                   { return p.rows[i] }
func (p *offsetRows) Dependencies(_, _ int32, buf []dag.VertexID) []dag.VertexID     { return buf }
func (p *offsetRows) AntiDependencies(_, _ int32, buf []dag.VertexID) []dag.VertexID { return buf }

// offsetTable builds an h × w stencil from base offsets the way core's
// FuzzStencilSettlement does: each byte pair one offset (DI in 0 … -3, DJ in
// 0 … -7, not both 0; repeats dropped), and with rowDep row i scales every DJ
// by 1 + i%3, which leaves gaps between them as Knapsack's weights do.
func offsetTable(h, w int32, base []byte, rowDep bool) *dag.StencilTable {
	p := &offsetRows{h: h, w: w, rows: make([][]dag.Offset, h)}
	for i := range p.rows {
		scale := int32(1)
		if rowDep {
			scale += int32(i % 3)
		}
		for k := 0; k+1 < len(base) && k < 8; k += 2 {
			o := dag.Offset{DI: -int32(base[k] % 4), DJ: -int32(base[k+1]%8) * scale}
			if o != (dag.Offset{}) && !slices.Contains(p.rows[i], o) {
				p.rows[i] = append(p.rows[i], o)
			}
		}
	}
	return dag.TabulateStencil(p)
}

// boxDist makes the k-th of the six box dists (dist.Grid's families).
func boxDist(k int, h, w int32, n int) dist.Dist {
	switch k % 6 {
	case 0:
		return dist.NewBlockRow(h, w, n)
	case 1:
		return dist.NewBlockCol(h, w, n)
	case 2:
		return dist.NewCyclicRow(h, w, n)
	case 3:
		return dist.NewCyclicCol(h, w, n)
	case 4:
		return dist.NewBlockCyclicRow(h, w, 3, n)
	}
	if n%2 == 0 {
		return dist.NewBlock2D(h, w, 2, n/2)
	}
	return dist.NewBlock2D(h, w, n, 1)
}

// FuzzStencilActivation holds the stencil arm's run-wise activation count to
// bruteForce: every place's counters and ready set. The inputs pick the
// offsets (optionally row-dependent), one of the six box dists over 1–5
// places, optionally with one restricted away, a tile shape, and a phase of
// restore: fresh, half restored or scattered.
func FuzzStencilActivation(f *testing.F) {
	diagonal := []byte{1, 1, 1, 0, 0, 1} // (-1,-1) (-1,0) (0,-1): SWLAG
	for dk := range uint8(6) {
		f.Add(uint8(30), uint8(44), dk, uint8(1), uint8(0), uint8(4), uint8(9), uint8(0), false, diagonal)
		f.Add(uint8(17), uint8(19), dk, uint8(3), uint8(2), uint8(2), uint8(3), uint8(2), false, []byte{2, 1, 0, 2, 1, 0})
	}
	// Knapsack's (-1,0) (-1,-w_i), half restored, on block columns and cyclic rows.
	f.Add(uint8(21), uint8(60), uint8(1), uint8(2), uint8(0), uint8(1), uint8(8), uint8(1), true, []byte{1, 0, 1, 3})
	f.Add(uint8(21), uint8(60), uint8(2), uint8(3), uint8(4), uint8(3), uint8(5), uint8(1), true, []byte{1, 0, 1, 3})
	// A row-dependent (0, -5k) reaching across several tiles of a row.
	f.Add(uint8(35), uint8(44), uint8(0), uint8(4), uint8(5), uint8(0), uint8(2), uint8(2), true, []byte{0, 5})
	f.Fuzz(func(t *testing.T, h, w, dk, places, dead, bi, bj, phase uint8, rowDep bool, offs []byte) {
		pl := 1 + int(places)%5
		hh, ww := int32(max(int(h)%40, 2*pl)), int32(max(int(w)%80, 2*pl))
		pat := offsetTable(hh, ww, offs, rowDep)
		d := boxDist(int(dk), hh, ww, pl)
		if x := int(dead) % (pl + 1); pl > 1 && x > 0 {
			var err error
			if d, err = d.Restrict(func(p int) bool { return p != x-1 }); err != nil {
				t.Fatal(err)
			}
		}
		ph := []string{"fresh", "half restored", "scattered"}[int(phase)%3]
		for _, p := range d.Places() {
			box := d.LocalBox(p)
			if box.Rows*box.Cols == 0 {
				continue
			}
			g := NewTileGrid(box.Rows, box.Cols, 1+int(bi)%12, 1+int(bj)%64)
			c := NewChunk[int32](p, d)
			c.ConfigureGrid(g)
			c.InitFlags(pat)
			fin := restore(c, ph)
			ready := c.ActivateTiles(pat)
			name := fmt.Sprintf("%s, %d places, place %d, %v, %s", d.Name(), pl, p, g, ph)
			if c.Stencil() == nil {
				t.Fatalf("%s: not the stencil arm", name)
			}
			edges, live := bruteForce(pat, d, p, &g, fin)
			var want []int
			for tl, n := range edges {
				if !live[tl] {
					n = retiredTile
				} else if n == 0 {
					want = append(want, tl)
				}
				if got := c.tileIndeg[tl].Load(); got != n {
					t.Fatalf("%s: tile %d counter %d, brute force %d", name, tl, got, n)
				}
			}
			if !slices.Equal(ready, want) {
				t.Fatalf("%s: ready %v, brute force %v", name, ready, want)
			}
		}
	})
}
