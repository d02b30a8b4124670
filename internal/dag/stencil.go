package dag

// Offset is one dependency of a stencil: cell (i, j) depends on (i+DI, j+DJ).
type Offset struct{ DI, DJ int32 }

// Stencil is implemented by dense patterns whose dependencies are a few
// offsets per row (the paper's §V patterns), so the engine can find edges by
// arithmetic, not by a call per cell. Check enforces the contract:
// Dependencies(i, j) is exactly Offsets(i)'s in-bounds targets, in order;
// every offset is non-zero with DI <= 0 and DJ <= 0, so row-major order in
// any rectangle is topological; and the pattern is not Sparse.
type Stencil interface {
	Offsets(i int32) []Offset
}

// StencilTable is a dense stencil's offsets per row, and the same Pattern
// computed from them.
type StencilTable struct {
	h, w           int32
	rows           [][]Offset
	ReachI, ReachJ int32 // the largest -DI and -DJ of any offset
}

// TabulateStencil calls Offsets once per row; nil unless p is a dense stencil.
func TabulateStencil(p Pattern) *StencilTable {
	s, ok := p.(Stencil)
	if _, sparse := p.(Sparse); !ok || sparse {
		return nil
	}
	h, w := p.Bounds()
	t := &StencilTable{h: h, w: w, rows: make([][]Offset, max(h, 0))}
	for i := range t.rows {
		t.rows[i] = s.Offsets(int32(i))
		for _, o := range t.rows[i] {
			t.ReachI, t.ReachJ = max(t.ReachI, -o.DI), max(t.ReachJ, -o.DJ)
		}
	}
	return t
}

func (t *StencilTable) Bounds() (int32, int32) { return t.h, t.w }

func (t *StencilTable) Offsets(i int32) []Offset { return t.rows[i] }

func (t *StencilTable) Dependencies(i, j int32, buf []VertexID) []VertexID {
	for _, o := range t.rows[i] {
		if i+o.DI >= 0 && j+o.DJ >= 0 {
			buf = append(buf, VertexID{I: i + o.DI, J: j + o.DJ})
		}
	}
	return buf
}

// AntiDependencies: the offsets of rows i … i+ReachI that land on (i, j).
func (t *StencilTable) AntiDependencies(i, j int32, buf []VertexID) []VertexID {
	for i2 := i; i2 <= min(i+t.ReachI, t.h-1); i2++ {
		for _, o := range t.rows[i2] {
			if i2+o.DI == i && j-o.DJ < t.w {
				buf = append(buf, VertexID{I: i2, J: j - o.DJ})
			}
		}
	}
	return buf
}
