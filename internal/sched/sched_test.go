package sched

import (
	"math/rand"
	"testing"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dist"
)

func allAlive(int) bool { return true }

func deps(ids ...[2]int32) []dag.VertexID {
	out := make([]dag.VertexID, len(ids))
	for k, id := range ids {
		out[k] = dag.VertexID{I: id[0], J: id[1]}
	}
	return out
}

func TestParseStrategy(t *testing.T) {
	for _, name := range []string{"local", "random", "mincomm"} {
		s, err := ParseStrategy(name)
		if err != nil {
			t.Fatalf("ParseStrategy(%s): %v", name, err)
		}
		if s.String() != name {
			t.Fatalf("round trip %s -> %s", name, s)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Fatal("accepted bogus strategy")
	}
}

func TestLocalAlwaysOwner(t *testing.T) {
	d := dist.NewBlockRow(8, 8, 4)
	pk := NewPicker(Local, d, allAlive, 4, 1)
	for i := int32(0); i < 8; i++ {
		owner := d.Place(i, 0)
		if got := pk.PickTile(owner, 1, deps([2]int32{0, 0})); got != owner {
			t.Fatalf("Local picked %d, owner %d", got, owner)
		}
	}
}

func TestRandomStaysAlive(t *testing.T) {
	d := dist.NewBlockRow(8, 8, 4)
	alive := func(p int) bool { return p != 2 }
	pk := NewPicker(Random, d, alive, 4, 7)
	counts := map[int]int{}
	for n := 0; n < 400; n++ {
		p := pk.PickTile(1, 1, nil)
		counts[p]++
		if p == 2 {
			t.Fatal("Random picked a dead place")
		}
	}
	if len(counts) < 3 {
		t.Fatalf("Random only used places %v; expected spread over survivors", counts)
	}
}

func TestMinCommPrefersDependencyCluster(t *testing.T) {
	// Rows 0..1 -> place 0, rows 2..3 -> place 1 etc.
	d := dist.NewBlockRow(8, 8, 4)
	pk := NewPicker(MinComm, d, allAlive, 4, 1)
	// Vertex owned by place 3 with both dependencies on place 0: executing
	// at place 0 costs one write-back (4 bytes) vs two fetches (8 bytes).
	got := pk.PickTile(3, 1, deps([2]int32{0, 0}, [2]int32{1, 1}))
	if got != 0 {
		t.Fatalf("MinComm picked %d, want 0 (dependency cluster)", got)
	}
}

func TestMinCommPrefersOwnerOnTie(t *testing.T) {
	d := dist.NewBlockRow(8, 8, 4)
	pk := NewPicker(MinComm, d, allAlive, 4, 1)
	// One dependency on place 0, owner place 1: both choices move exactly
	// one value (fetch vs write-back), so the owner must win the tie.
	got := pk.PickTile(1, 1, deps([2]int32{0, 0}))
	if got != 1 {
		t.Fatalf("MinComm picked %d on a tie, want owner 1", got)
	}
}

func TestMinCommAllLocalStaysHome(t *testing.T) {
	d := dist.NewBlockRow(8, 8, 2)
	pk := NewPicker(MinComm, d, allAlive, 4, 1)
	owner := d.Place(1, 1)
	got := pk.PickTile(owner, 1, deps([2]int32{0, 1}, [2]int32{1, 0}, [2]int32{0, 0}))
	if got != owner {
		t.Fatalf("MinComm migrated a fully local vertex to %d", got)
	}
}

func TestMinCommSkipsDeadCandidates(t *testing.T) {
	d := dist.NewBlockRow(8, 8, 4)
	alive := func(p int) bool { return p != 0 }
	pk := NewPicker(MinComm, d, alive, 4, 1)
	got := pk.PickTile(3, 1, deps([2]int32{0, 0}, [2]int32{1, 1}))
	if got == 0 {
		t.Fatal("MinComm picked the dead place")
	}
}

// tileCost is the cost model as PickTile used to evaluate it, one dist
// lookup per external dependency per candidate: the bytes moved when an
// n-cell tile owned by owner executes at exec.
func (pk *Picker) tileCost(exec, owner, n int, extDeps []dag.VertexID) int {
	cost := 0
	for _, dep := range extDeps {
		if pk.d.Place(dep.I, dep.J) != exec {
			cost += pk.valueSize
		}
	}
	if exec != owner {
		cost += n * pk.valueSize
	}
	return cost
}

// refMinComm is MinComm's choice as PickTile used to make it: every
// dependency's owner a candidate, in dependency order, each costed in full.
func (pk *Picker) refMinComm(owner, n int, extDeps []dag.VertexID) int {
	best, bestCost := owner, pk.tileCost(owner, owner, n, extDeps)
	for _, dep := range extDeps {
		cand := pk.d.Place(dep.I, dep.J)
		if cand == best || !pk.alive(cand) {
			continue
		}
		cost := pk.tileCost(cand, owner, n, extDeps)
		if cost < bestCost || (cost == bestCost && cand != owner && best != owner && cand < best) {
			best, bestCost = cand, cost
		}
	}
	return best
}

// TestMinCommMatchesReference: counting the dependencies per place once
// picks exactly what costing every candidate over every dependency did, on
// seeded random tiles over 1–8 places with some dead, duplicate
// dependencies, and value sizes and tile sizes that force ties.
func TestMinCommMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 4000; trial++ {
		places := 1 + rng.Intn(8)
		var d dist.Dist = dist.NewBlockRow(16, 16, places)
		if trial%2 == 1 {
			d = dist.NewCyclicCol(16, 16, places)
		}
		dead := rng.Intn(1 << places)
		owner := rng.Intn(places)
		dead &^= 1 << owner
		alive := func(p int) bool { return dead&(1<<p) == 0 }
		valueSize, n := 1+rng.Intn(3), rng.Intn(4)
		if trial%3 == 0 {
			n = 0 // no write-back: costs tie whenever two places own as many dependencies
		}
		ext := make([]dag.VertexID, rng.Intn(12))
		for k := range ext {
			ext[k] = dag.VertexID{I: int32(rng.Intn(16)), J: int32(rng.Intn(16))}
		}
		pk := NewPicker(MinComm, d, alive, valueSize, 1)
		want := pk.refMinComm(owner, n, ext)
		if got := pk.PickTile(owner, n, ext); got != want {
			t.Fatalf("trial %d: %d places, dead %b, owner %d, n %d, value size %d, deps %v: picked %d, reference %d",
				trial, places, dead, owner, n, valueSize, ext, got, want)
		}
	}
}

func TestCommCostModel(t *testing.T) {
	d := dist.NewBlockRow(8, 8, 4)
	pk := NewPicker(MinComm, d, allAlive, 10, 1)
	ds := deps([2]int32{0, 0}, [2]int32{2, 0}) // owners: 0 and 1
	if got := pk.tileCost(0, 3, 1, ds); got != 20 {
		t.Fatalf("cost at 0 = %d, want 20 (one fetch + write-back)", got)
	}
	if got := pk.tileCost(3, 3, 1, ds); got != 20 {
		t.Fatalf("cost at owner = %d, want 20 (two fetches)", got)
	}
	if got := pk.tileCost(1, 3, 1, ds); got != 20 {
		t.Fatalf("cost at 1 = %d, want 20", got)
	}
}

func TestRebind(t *testing.T) {
	d := dist.NewBlockRow(8, 8, 4)
	pk := NewPicker(MinComm, d, allAlive, 4, 1)
	rd, err := d.Restrict(func(p int) bool { return p != 3 })
	if err != nil {
		t.Fatal(err)
	}
	pk.Rebind(rd)
	got := pk.PickTile(2, 1, deps([2]int32{0, 0}))
	if got == 3 {
		t.Fatal("picker still routes to a place absent from the new dist")
	}
}
