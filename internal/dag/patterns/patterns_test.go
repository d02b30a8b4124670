package patterns

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/dpx10/dpx10/internal/dag"
)

// builtins returns one instance of every library pattern at the given
// square-ish size.
func builtins(n int32) map[string]dag.Pattern {
	ks, err := NewKnapsack([]int32{3, 1, 4, 2, 5}, n)
	if err != nil {
		panic(err)
	}
	return map[string]dag.Pattern{
		"grid":     NewGrid(n, n+2),
		"diagonal": NewDiagonal(n, n+1),
		"rowwave":  NewRowWave(n, n),
		"interval": NewInterval(n),
		"colwave":  NewColWave(n, n+3),
		"chain":    NewChain(n, n),
		"triangle": NewTriangle(n),
		"banded":   NewBanded(n, n, 2),
		"knapsack": ks,
	}
}

func TestAllPatternsConsistent(t *testing.T) {
	for _, n := range []int32{1, 2, 3, 7, 12} {
		for name, p := range builtins(n) {
			name, p := name, p
			t.Run(fmt.Sprintf("%s/n%d", name, n), func(t *testing.T) {
				if err := dag.Check(p); err != nil {
					t.Fatalf("dag.Check: %v", err)
				}
			})
		}
	}
}

func TestPatternsConsistentQuick(t *testing.T) {
	// Property: consistency holds at arbitrary small sizes, including
	// degenerate 1×k shapes.
	f := func(hs, ws uint8) bool {
		h := int32(hs%12) + 1
		w := int32(ws%12) + 1
		ps := []dag.Pattern{
			NewGrid(h, w), NewDiagonal(h, w), NewRowWave(h, w),
			NewColWave(h, w), NewChain(h, w), NewBanded(h, w, w/3+1),
			NewInterval(h), NewTriangle(h),
		}
		for _, p := range ps {
			if err := dag.Check(p); err != nil {
				t.Logf("h=%d w=%d: %v", h, w, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestKnapsackConsistentRandomWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		nItems := rng.Intn(6) + 1
		capacity := int32(rng.Intn(15) + 1)
		weights := make([]int32, nItems)
		for i := range weights {
			weights[i] = int32(rng.Intn(int(capacity)+3) + 1) // may exceed capacity
		}
		p, err := NewKnapsack(weights, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if err := dag.Check(p); err != nil {
			t.Fatalf("weights=%v cap=%d: %v", weights, capacity, err)
		}
	}
}

func TestKnapsackRejectsBadInput(t *testing.T) {
	if _, err := NewKnapsack([]int32{1, 0, 2}, 5); err == nil {
		t.Fatal("accepted zero weight")
	}
	if _, err := NewKnapsack([]int32{1}, -1); err == nil {
		t.Fatal("accepted negative capacity")
	}
}

func TestGridZeroIndegreeIsOrigin(t *testing.T) {
	p := NewGrid(4, 4)
	var buf []dag.VertexID
	for i := int32(0); i < 4; i++ {
		for j := int32(0); j < 4; j++ {
			buf = p.Dependencies(i, j, buf[:0])
			if (len(buf) == 0) != (i == 0 && j == 0) {
				t.Fatalf("(%d,%d) has %d deps; only (0,0) may be a source", i, j, len(buf))
			}
		}
	}
}

func TestIntervalDiagonalIsSource(t *testing.T) {
	p := NewInterval(5)
	var buf []dag.VertexID
	for i := int32(0); i < 5; i++ {
		buf = p.Dependencies(i, i, buf[:0])
		if len(buf) != 0 {
			t.Fatalf("diagonal cell (%d,%d) has dependencies %v", i, i, buf)
		}
	}
	if got := dag.ActiveCount(p); got != 15 {
		t.Fatalf("active cells = %d, want 15 (upper triangle of 5x5)", got)
	}
}

func TestTriangleDependencyCount(t *testing.T) {
	p := NewTriangle(6)
	var buf []dag.VertexID
	// (i,j) with j>i has (j-i) row deps + (j-i) column deps.
	for i := int32(0); i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			buf = p.Dependencies(i, j, buf[:0])
			if want := int(2 * (j - i)); len(buf) != want {
				t.Fatalf("(%d,%d): %d deps, want %d", i, j, len(buf), want)
			}
		}
	}
}

func TestBandedActiveBand(t *testing.T) {
	p := NewBanded(10, 10, 2)
	if p.Active(0, 3) || !p.Active(0, 2) || !p.Active(5, 5) || p.Active(9, 6) {
		t.Fatal("band membership wrong")
	}
	if got, want := dag.ActiveCount(p), int64(0); got == want {
		t.Fatal("no active cells in band")
	}
}

func TestChainRowsIndependent(t *testing.T) {
	p := NewChain(3, 5)
	var buf []dag.VertexID
	for i := int32(0); i < 3; i++ {
		for j := int32(0); j < 5; j++ {
			buf = p.Dependencies(i, j, buf[:0])
			for _, d := range buf {
				if d.I != i {
					t.Fatalf("(%d,%d) depends on other row: %v", i, j, d)
				}
			}
		}
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 8 {
		t.Fatalf("registry has %d patterns, want the 8 built-ins: %v", len(names), names)
	}
	for _, name := range names {
		obj, err := ByName(name, 6, 6)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		p, ok := obj.(dag.Pattern)
		if !ok {
			t.Fatalf("ByName(%s) is not a dag.Pattern", name)
		}
		if err := dag.Check(p); err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
	}
	if _, err := ByName("nope", 4, 4); err == nil {
		t.Fatal("ByName accepted unknown pattern")
	}
	if _, err := ByName("interval", 4, 5); err == nil {
		t.Fatal("interval accepted non-square bounds")
	}
}

// brokenPattern deliberately violates the mirror property to prove Check
// catches it.
type brokenPattern struct{ Grid }

func (b brokenPattern) AntiDependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	return buf // never reports anti-dependencies
}

type selfLoop struct{ Grid }

func (s selfLoop) Dependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	return append(buf, dag.VertexID{I: i, J: j})
}

func TestCheckCatchesViolations(t *testing.T) {
	if err := dag.Check(brokenPattern{NewGrid(3, 3)}); err == nil {
		t.Fatal("Check missed asymmetric anti-dependencies")
	}
	if err := dag.Check(selfLoop{NewGrid(2, 2)}); err == nil {
		t.Fatal("Check missed self-dependency")
	}
}

// upRight depends on its upper-right neighbour: a sound pattern, but not a
// stencil, whose offsets stay in the closed lower-left quadrant.
type upRight struct{ H, W int32 }

func (p upRight) Bounds() (int32, int32) { return p.H, p.W }
func (p upRight) Offsets(int32) []dag.Offset {
	return []dag.Offset{{DI: -1, DJ: 1}}
}
func (p upRight) Dependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if i > 0 && j+1 < p.W {
		buf = append(buf, dag.VertexID{I: i - 1, J: j + 1})
	}
	return buf
}
func (p upRight) AntiDependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	if i+1 < p.H && j > 0 {
		buf = append(buf, dag.VertexID{I: i + 1, J: j - 1})
	}
	return buf
}

// leftFirst lists Diagonal's offsets in another order than its Dependencies.
type leftFirst struct{ Diagonal }

func (p leftFirst) Offsets(int32) []dag.Offset {
	return []dag.Offset{{DJ: -1}, {DI: -1}, {DI: -1, DJ: -1}}
}

// sparseDiagonal claims to be a stencil and sparse at once.
type sparseDiagonal struct{ Diagonal }

func (p sparseDiagonal) Active(i, j int32) bool { return true }

// TestStencilContract: dag.Check holds every stencil of the library to its
// offsets — Knapsack with weights above the capacity, whose second offset
// never lands — and rejects the three ways of breaking the contract. The
// patterns whose dependencies are not a few offsets a row do not declare it.
func TestStencilContract(t *testing.T) {
	ks, err := NewKnapsack([]int32{3, 9, 1, 12}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]dag.Pattern{"grid": NewGrid(5, 7), "diagonal": NewDiagonal(6, 4), "chain": NewChain(3, 8), "knapsack": ks} {
		if _, ok := p.(dag.Stencil); !ok {
			t.Fatalf("%s does not declare its offsets", name)
		}
		if err := dag.Check(p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for name, p := range map[string]dag.Pattern{"interval": NewInterval(5), "banded": NewBanded(5, 5, 1),
		"rowwave": NewRowWave(4, 4), "colwave": NewColWave(4, 4), "triangle": NewTriangle(5), "transposed": Transpose(NewDiagonal(3, 4))} {
		if _, ok := p.(dag.Stencil); ok {
			t.Fatalf("%s declares offsets", name)
		}
	}
	for name, p := range map[string]dag.Pattern{"offset with DJ > 0": upRight{4, 5}, "order mismatch": leftFirst{NewDiagonal(4, 5)}, "sparse stencil": sparseDiagonal{NewDiagonal(4, 5)}} {
		if err := dag.Check(p); err == nil || !strings.Contains(err.Error(), "stencil") {
			t.Fatalf("%s: Check = %v, want a stencil contract violation", name, err)
		}
	}
}

func TestTransposeConsistent(t *testing.T) {
	for name, p := range builtins(7) {
		name, p := name, p
		t.Run(name, func(t *testing.T) {
			tp := Transpose(p)
			if err := dag.Check(tp); err != nil {
				t.Fatalf("transposed %s: %v", name, err)
			}
			h, w := p.Bounds()
			th, tw := tp.Bounds()
			if th != w || tw != h {
				t.Fatalf("bounds not swapped: %dx%d -> %dx%d", h, w, th, tw)
			}
			if dag.ActiveCount(tp) != dag.ActiveCount(p) {
				t.Fatal("transpose changed the active cell count")
			}
		})
	}
}

func TestTransposeTwiceIsIdentity(t *testing.T) {
	p := NewGrid(5, 9)
	tt := Transpose(Transpose(p))
	if tt != dag.Pattern(p) {
		t.Fatal("double transpose did not unwrap to the original")
	}
}

func TestTransposeStructure(t *testing.T) {
	// Grid's deps are top+left; transposed they must still be top+left in
	// the new coordinates (the grid is self-transpose up to shape).
	tp := Transpose(NewGrid(3, 7)) // 7x3 transposed space
	var buf []dag.VertexID
	buf = tp.Dependencies(2, 1, buf)
	want := map[dag.VertexID]bool{{I: 1, J: 1}: true, {I: 2, J: 0}: true}
	if len(buf) != 2 || !want[buf[0]] || !want[buf[1]] {
		t.Fatalf("transposed grid deps = %v", buf)
	}
}
