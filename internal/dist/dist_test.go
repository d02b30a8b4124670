package dist

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// checkDist verifies the Dist contract exhaustively over the index space:
// counts sum to h*w, offsets are dense per place, and CellAt inverts
// LocalOffset.
func checkDist(t *testing.T, d Dist) {
	t.Helper()
	h, w := d.Bounds()
	total := 0
	for _, p := range d.Places() {
		total += d.LocalCount(p)
	}
	if total != int(h)*int(w) {
		t.Fatalf("%s: local counts sum to %d, want %d", d.Name(), total, int(h)*int(w))
	}
	seen := make(map[int]map[int]bool) // place -> offsets used
	for _, p := range d.Places() {
		seen[p] = make(map[int]bool, d.LocalCount(p))
	}
	for i := int32(0); i < h; i++ {
		for j := int32(0); j < w; j++ {
			p := d.Place(i, j)
			offs, ok := seen[p]
			if !ok {
				t.Fatalf("%s: cell (%d,%d) owned by %d, not in Places()=%v", d.Name(), i, j, p, d.Places())
			}
			off := d.LocalOffset(i, j)
			if off < 0 || off >= d.LocalCount(p) {
				t.Fatalf("%s: cell (%d,%d) offset %d out of [0,%d)", d.Name(), i, j, off, d.LocalCount(p))
			}
			if offs[off] {
				t.Fatalf("%s: offset %d at place %d assigned twice", d.Name(), off, p)
			}
			offs[off] = true
			ri, rj := d.CellAt(p, off)
			if ri != i || rj != j {
				t.Fatalf("%s: CellAt(%d,%d) = (%d,%d), want (%d,%d)", d.Name(), p, off, ri, rj, i, j)
			}
		}
	}
}

func allDists(h, w int32, n int) []Dist {
	ds := []Dist{
		NewBlockRow(h, w, n),
		NewBlockCol(h, w, n),
		NewCyclicRow(h, w, n),
		NewCyclicCol(h, w, n),
		NewBlockCyclicRow(h, w, 1, n),
		NewBlockCyclicRow(h, w, 2, n),
		NewBlockCyclicRow(h, w, h+3, n),
	}
	// A 2-D grid needs a factorization of n.
	for f := 1; f*f <= n; f++ {
		if n%f == 0 {
			ds = append(ds, NewBlock2D(h, w, f, n/f))
		}
	}
	fd, err := NewFunc(h, w, identityPlaces(n), func(i, j int32) int {
		return int((i*7 + j*13) % int32(n))
	})
	if err != nil {
		panic(err)
	}
	ds = append(ds, fd)
	return ds
}

func TestDistContract(t *testing.T) {
	shapes := []struct {
		h, w int32
		n    int
	}{
		{1, 1, 1}, {5, 7, 1}, {8, 8, 3}, {7, 13, 4}, {13, 7, 6}, {3, 50, 5}, {50, 3, 5}, {20, 20, 20},
	}
	for _, s := range shapes {
		for _, d := range allDists(s.h, s.w, s.n) {
			d := d
			t.Run(fmt.Sprintf("%s/%dx%d/p%d", d.Name(), s.h, s.w, s.n), func(t *testing.T) {
				checkDist(t, d)
			})
		}
	}
}

func TestDistContractQuick(t *testing.T) {
	// Property: the Dist contract holds for arbitrary small shapes.
	f := func(hs, ws uint8, ns uint8) bool {
		h := int32(hs%30) + 1
		w := int32(ws%30) + 1
		n := int(ns%8) + 1
		for _, d := range allDists(h, w, n) {
			ht := &testing.T{}
			checkDist(ht, d)
			if ht.Failed() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRestrictDropsDeadAndCovers(t *testing.T) {
	for _, d := range allDists(12, 9, 4) {
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			alive := func(p int) bool { return p != 2 }
			rd, err := d.Restrict(alive)
			if err != nil {
				t.Fatalf("Restrict: %v", err)
			}
			for _, p := range rd.Places() {
				if p == 2 {
					t.Fatalf("restricted dist still lists dead place 2: %v", rd.Places())
				}
			}
			checkDist(t, rd)
			h, w := rd.Bounds()
			if oh, ow := d.Bounds(); h != oh || w != ow {
				t.Fatalf("bounds changed: %dx%d -> %dx%d", oh, ow, h, w)
			}
			for i := int32(0); i < h; i++ {
				for j := int32(0); j < w; j++ {
					if rd.Place(i, j) == 2 {
						t.Fatalf("cell (%d,%d) still owned by dead place", i, j)
					}
				}
			}
		})
	}
}

func TestRestrictAllDeadFails(t *testing.T) {
	for _, d := range allDists(6, 6, 3) {
		if _, err := d.Restrict(func(int) bool { return false }); err == nil {
			t.Fatalf("%s: Restrict with no survivors should fail", d.Name())
		}
	}
}

func TestRestrictChain(t *testing.T) {
	// Two successive failures, as would happen with two faults in one run.
	d := Dist(NewBlockRow(30, 10, 5))
	for _, dead := range []int{3, 1} {
		dead := dead
		var err error
		d, err = d.Restrict(func(p int) bool { return p != dead })
		if err != nil {
			t.Fatalf("Restrict(-%d): %v", dead, err)
		}
		checkDist(t, d)
	}
	if got := len(d.Places()); got != 3 {
		t.Fatalf("places after two failures = %d, want 3", got)
	}
}

func TestBlockRowContiguity(t *testing.T) {
	d := NewBlockRow(10, 4, 3)
	prev := -1
	for i := int32(0); i < 10; i++ {
		p := d.Place(i, 0)
		if p < prev {
			t.Fatalf("row owners not monotone at row %d: %d after %d", i, p, prev)
		}
		prev = p
		for j := int32(1); j < 4; j++ {
			if d.Place(i, j) != p {
				t.Fatalf("row %d split across places", i)
			}
		}
	}
}

func TestCyclicRowBalance(t *testing.T) {
	d := NewCyclicRow(10, 3, 4)
	counts := map[int]int{}
	for i := int32(0); i < 10; i++ {
		counts[d.Place(i, 0)]++
	}
	for p, c := range counts {
		if c < 2 || c > 3 {
			t.Fatalf("place %d owns %d rows; cyclic balance broken", p, c)
		}
	}
}

func TestBlockCyclicDegenerateCases(t *testing.T) {
	// Block size 1 must match CyclicRow ownership; block >= h must match
	// BlockRow's "first places own everything" shape.
	h, w := int32(17), int32(5)
	bc1 := NewBlockCyclicRow(h, w, 1, 4)
	cy := NewCyclicRow(h, w, 4)
	for i := int32(0); i < h; i++ {
		if bc1.Place(i, 0) != cy.Place(i, 0) {
			t.Fatalf("block=1 row %d: owner %d != cyclic %d", i, bc1.Place(i, 0), cy.Place(i, 0))
		}
	}
	bcBig := NewBlockCyclicRow(h, w, h, 4)
	for i := int32(0); i < h; i++ {
		if bcBig.Place(i, 0) != 0 {
			t.Fatalf("block>=h: row %d owned by %d, want 0", i, bcBig.Place(i, 0))
		}
	}
}

func TestBlockCyclicRejectsBadBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("block size 0 accepted")
		}
	}()
	NewBlockCyclicRow(4, 4, 0, 2)
}

func TestBlock2DGrid(t *testing.T) {
	d := NewBlock2D(8, 8, 2, 2)
	corners := map[int]bool{
		d.Place(0, 0): true, d.Place(0, 7): true,
		d.Place(7, 0): true, d.Place(7, 7): true,
	}
	if len(corners) != 4 {
		t.Fatalf("2x2 grid corners map to %d distinct places, want 4", len(corners))
	}
}

func TestFuncDistRejectsUnknownPlace(t *testing.T) {
	_, err := NewFunc(4, 4, []int{0, 1}, func(i, j int32) int { return 7 })
	if err == nil {
		t.Fatal("NewFunc accepted a mapping to an unknown place")
	}
}

func TestBlockIndexExact(t *testing.T) {
	// A Block cut's split must invert its boundaries, and join invert
	// split, for many (total, n) combinations.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		total := int32(rng.Intn(1000) + 1)
		n := rng.Intn(16) + 1
		c := newCut(Block, total, n, 1)
		for x := int32(0); x < total; x++ {
			k, local := c.split(x)
			if x < c.starts[k] || x >= c.starts[k+1] || c.join(k, local) != x {
				t.Fatalf("split(%d) over (%d, %d) = (%d, %d), bounds [%d,%d)", x, total, n, k, local, c.starts[k], c.starts[k+1])
			}
		}
	}
}
