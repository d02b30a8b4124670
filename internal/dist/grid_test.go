package dist

import (
	"fmt"
	"slices"
	"testing"
)

// gridKinds are the structured layouts, in the order FuzzGrid's kind byte
// picks them.
var gridKinds = []string{"blockrow", "blockcol", "cyclicrow", "cycliccol", "blockcyclicrow", "block2d"}

// buildGrid builds layout kind over a pr×pc grid of places; for the
// one-axis kinds one of pr and pc is 1.
func buildGrid(kind int, h, w, block int32, pr, pc int) Dist {
	switch gridKinds[kind] {
	case "blockrow":
		return NewBlockRow(h, w, pr)
	case "blockcol":
		return NewBlockCol(h, w, pc)
	case "cyclicrow":
		return NewCyclicRow(h, w, pr)
	case "cycliccol":
		return NewCyclicCol(h, w, pc)
	case "blockcyclicrow":
		return NewBlockCyclicRow(h, w, block, pr)
	default:
		return NewBlock2D(h, w, pr, pc)
	}
}

// gridSplit is how kind cuts n places into a pr×pc grid: rows for the row
// kinds, columns for the column kinds, the most-square factorization with
// pr ≤ pc for block2d after a restriction.
func gridSplit(kind, n int) (pr, pc int) {
	switch gridKinds[kind] {
	case "blockcol", "cycliccol":
		return 1, n
	case "block2d":
		for f := 1; f*f <= n; f++ {
			if n%f == 0 {
				pr = f
			}
		}
		return pr, n / pr
	}
	return n, 1
}

// blk is the part of x when [0,total) is cut into n balanced contiguous
// blocks, part k starting at ⌊k·total/n⌋.
func blk(x, total int32, n int) int {
	return int(((int64(x)+1)*int64(n) - 1) / int64(total))
}

// gridOracle is a layout in closed form: the cell (i,j) belongs to the
// place of rank rowPart(i)·pc + colPart(j), its offsets laid out in
// row-major scan order, which is what Func does with the same owner map.
type gridOracle struct {
	name             string
	pr, pc           int
	rowAxis, colAxis Axis
	rowPart, colPart func(x int32) int
	fn               *Func
}

func newGridOracle(t *testing.T, kind int, h, w, block int32, pr, pc int, places []int) gridOracle {
	whole := func(int32) int { return 0 }
	o := gridOracle{name: gridKinds[kind], pr: pr, pc: pc, rowPart: whole, colPart: whole}
	switch o.name {
	case "blockrow":
		o.rowAxis, o.rowPart = Block, func(i int32) int { return blk(i, h, pr) }
	case "blockcol":
		o.colAxis, o.colPart = Block, func(j int32) int { return blk(j, w, pc) }
	case "cyclicrow":
		o.rowAxis, o.rowPart = Dealt, func(i int32) int { return int(i) % pr }
	case "cycliccol":
		o.colAxis, o.colPart = Dealt, func(j int32) int { return int(j) % pc }
	case "blockcyclicrow":
		o.name = fmt.Sprintf("blockcyclicrow(%d)", block)
		o.rowAxis, o.rowPart = Dealt, func(i int32) int { return int(i/block) % pr }
	case "block2d":
		o.name = fmt.Sprintf("block2d(%dx%d)", pr, pc)
		o.rowAxis, o.rowPart = Block, func(i int32) int { return blk(i, h, pr) }
		o.colAxis, o.colPart = Block, func(j int32) int { return blk(j, w, pc) }
	}
	var err error
	o.fn, err = NewFunc(h, w, places, func(i, j int32) int {
		return places[o.rowPart(i)*pc+o.colPart(j)]
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// check compares d with the oracle on every cell and every place.
func (o gridOracle) check(t *testing.T, d Dist) {
	t.Helper()
	h, w := o.fn.Bounds()
	if dh, dw := d.Bounds(); dh != h || dw != w {
		t.Fatalf("%s: bounds %dx%d, want %dx%d", o.name, dh, dw, h, w)
	}
	if d.Name() != o.name {
		t.Fatalf("name %q, want %q", d.Name(), o.name)
	}
	places := o.fn.Places()
	if !slices.Equal(d.Places(), places) {
		t.Fatalf("%s: places %v, want %v", o.name, d.Places(), places)
	}
	for i := int32(0); i < h; i++ {
		for j := int32(0); j < w; j++ {
			p, off := o.fn.PlaceOffset(i, j)
			if got := d.Place(i, j); got != p {
				t.Fatalf("%s: Place(%d,%d) = %d, want %d", o.name, i, j, got, p)
			}
			if got := d.LocalOffset(i, j); got != off {
				t.Fatalf("%s: LocalOffset(%d,%d) = %d, want %d", o.name, i, j, got, off)
			}
			if gp, goff := d.PlaceOffset(i, j); gp != p || goff != off {
				t.Fatalf("%s: PlaceOffset(%d,%d) = (%d,%d), want (%d,%d)", o.name, i, j, gp, goff, p, off)
			}
			if ci, cj := d.CellAt(p, off); ci != i || cj != j {
				t.Fatalf("%s: CellAt(%d,%d) = (%d,%d), want (%d,%d)", o.name, p, off, ci, cj, i, j)
			}
		}
	}
	for k, p := range places {
		want := Box{RowAxis: o.rowAxis, ColAxis: o.colAxis}
		for i := int32(0); i < h; i++ {
			if o.rowPart(i) == k/o.pc {
				want.Rows++
			}
		}
		for j := int32(0); j < w; j++ {
			if o.colPart(j) == k%o.pc {
				want.Cols++
			}
		}
		if got := d.LocalBox(p); got != want {
			t.Fatalf("%s: LocalBox(%d) = %+v, want %+v", o.name, p, got, want)
		}
		if got, n := d.LocalCount(p), o.fn.LocalCount(p); got != n || n != want.Rows*want.Cols {
			t.Fatalf("%s: LocalCount(%d) = %d, func %d, box %d", o.name, p, got, n, want.Rows*want.Cols)
		}
	}
	for _, p := range []int{-1, 0, places[len(places)-1] + 1} {
		if !slices.Contains(places, p) && (d.LocalBox(p) != Box{} || d.LocalCount(p) != 0) {
			t.Fatalf("%s: non-owner %d has box %+v, count %d", o.name, p, d.LocalBox(p), d.LocalCount(p))
		}
	}
}

// FuzzGrid pins every structured layout to its one-line owner formula:
// each cell's owner and offset, each place's box, and the same after a
// restriction to the survivors of a mask.
//
// The seed corpus in testdata/fuzz/FuzzGrid covers each kind, one place,
// more places than rows or columns, blocks taller than the table, 1×n and
// n×1 grids and a mask with no survivors.
func FuzzGrid(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind, hb, wb, nb, prb, bb, mask uint8) {
		k := int(kind) % len(gridKinds)
		h, w := 1+int32(hb)%64, 1+int32(wb)%64
		block := 1 + int32(bb)%70
		n := 1 + int(nb)%8
		pr, pc := gridSplit(k, n)
		if gridKinds[k] == "block2d" {
			pr = 1 + int(prb)%n
			pc = n / pr
			n = pr * pc
		}
		d := buildGrid(k, h, w, block, pr, pc)
		newGridOracle(t, k, h, w, block, pr, pc, identityPlaces(n)).check(t, d)

		alive := func(p int) bool { return p >= 0 && p < 8 && mask>>p&1 == 1 }
		var ps []int
		for p := range n {
			if alive(p) {
				ps = append(ps, p)
			}
		}
		rd, err := d.Restrict(alive)
		if len(ps) == 0 {
			if err == nil {
				t.Fatalf("%s: Restrict with no survivors succeeded", d.Name())
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: Restrict: %v", d.Name(), err)
		}
		pr, pc = gridSplit(k, len(ps))
		newGridOracle(t, k, h, w, block, pr, pc, ps).check(t, rd)
	})
}

var lookupSink int

// BenchmarkDistLookup times the two per-edge lookups of the engine's hot
// paths, one cell a call: PlaceOffset in scan order and CellAt over each
// place's offsets in turn, for every structured layout at 1400² on 4
// places (2×2 for block2d).
func BenchmarkDistLookup(b *testing.B) {
	const side = 1400
	for k, name := range gridKinds {
		pr, pc := gridSplit(k, 4)
		d := buildGrid(k, side, side, 8, pr, pc)
		b.Run(name+"/PlaceOffset", func(b *testing.B) {
			var i, j int32
			sink := 0
			for range b.N {
				p, off := d.PlaceOffset(i, j)
				sink += p + off
				if j++; j == side {
					if j, i = 0, i+1; i == side {
						i = 0
					}
				}
			}
			lookupSink = sink
		})
		b.Run(name+"/CellAt", func(b *testing.B) {
			ps := d.Places()
			r, p, off, n := 0, ps[0], 0, d.LocalCount(ps[0])
			sink := int32(0)
			for range b.N {
				i, j := d.CellAt(p, off)
				sink += i + j
				for off++; off >= n; off, n = 0, d.LocalCount(p) {
					r = (r + 1) % len(ps)
					p = ps[r]
				}
			}
			lookupSink = int(sink)
		})
	}
}
