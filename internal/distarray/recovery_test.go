package distarray

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/dist"
)

// miniCluster drives chunks for every place of a distribution through the
// DP execution protocol sequentially — the same bookkeeping the concurrent
// engine performs, without goroutines or transports, on one-cell tiles (a
// tile's index is its cell's offset). It doubles as an executable
// specification of the recovery algorithm.
type miniCluster struct {
	pat    dag.Pattern
	d      dist.Dist
	chunks map[int]*Chunk[int64]
	ready  []dag.VertexID
}

// computeCell is a deterministic stand-in for user compute(): a function
// of the cell id and its dependency values, so recomputation after
// recovery must reproduce identical results.
func computeCell(pat dag.Pattern, cl map[int]*Chunk[int64], d dist.Dist, v dag.VertexID) int64 {
	var buf []dag.VertexID
	buf = pat.Dependencies(v.I, v.J, buf)
	sum := int64(v.I)*31 + int64(v.J)*17
	for _, dep := range buf {
		owner := d.Place(dep.I, dep.J)
		c := cl[owner]
		off := d.LocalOffset(dep.I, dep.J)
		if !c.Finished(off) {
			panic("dependency not finished at compute time")
		}
		sum += c.Value(off)
	}
	return sum
}

func newMiniCluster(pat dag.Pattern, d dist.Dist) *miniCluster {
	mc := &miniCluster{pat: pat, d: d, chunks: map[int]*Chunk[int64]{}}
	for _, p := range d.Places() {
		c := NewChunk[int64](p, d)
		c.ConfigureTiles(1)
		mc.chunks[p] = c
		mc.seed(p, c.InitActivateTiles(pat))
	}
	return mc
}

// seed queues place p's cells at the ready offsets.
func (mc *miniCluster) seed(p int, ready []int) {
	for _, off := range ready {
		i, j := mc.d.CellAt(p, off)
		mc.ready = append(mc.ready, dag.VertexID{I: i, J: j})
	}
}

// step executes one ready vertex; returns false when nothing is ready.
func (mc *miniCluster) step() bool {
	if len(mc.ready) == 0 {
		return false
	}
	v := mc.ready[0]
	mc.ready = mc.ready[1:]
	owner := mc.d.Place(v.I, v.J)
	c := mc.chunks[owner]
	off := mc.d.LocalOffset(v.I, v.J)
	c.SetResult(off, computeCell(mc.pat, mc.chunks, mc.d, v))
	var buf []dag.VertexID
	buf = mc.pat.AntiDependencies(v.I, v.J, buf)
	for _, a := range buf {
		ao, aoff := mc.d.PlaceOffset(a.I, a.J)
		ac := mc.chunks[ao]
		// After a recovery a restored-finished vertex's local edges were
		// never counted, so they send nothing; its remote ones are applied to
		// its tile, which the scan retired (one vertex per tile, all finished),
		// so they never schedule it.
		if ao == owner && ac.Finished(aoff) {
			continue
		}
		if _, ready := ac.TileDecrement(aoff); ready {
			if ac.Finished(aoff) {
				panic("a restored vertex was reported ready")
			}
			mc.ready = append(mc.ready, a)
		}
	}
	return true
}

func (mc *miniCluster) runToCompletion(t *testing.T) {
	t.Helper()
	for mc.step() {
	}
	for p, c := range mc.chunks {
		if !c.AllFinished() {
			t.Fatalf("place %d stalled: %d/%d finished", p, c.FinishedCount(), c.ActiveCount())
		}
	}
}

// recover applies the full recovery protocol after killing place dead.
func (mc *miniCluster) recover(t *testing.T, dead int, restoreRemote bool) {
	t.Helper()
	nd, err := mc.d.Restrict(func(p int) bool { return p != dead })
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	newChunks := map[int]*Chunk[int64]{}
	outs := map[int][]Transfer[int64]{}
	for p, c := range mc.chunks {
		if p == dead {
			continue // its state is lost with the place
		}
		nc, out := RebuildChunk(c, mc.pat, nd, restoreRemote)
		nc.ConfigureTiles(1)
		newChunks[p], outs[p] = nc, out
	}
	// Each place counts its replay from its new chunk and what it hands over,
	// before any value moves: an edge whose ends have one new owner sends
	// nothing (the activation scan reads the source's flag), and every other
	// one is one decrement of the target's tile, finished target included
	// (its owner's scan counted it) — whether it leaves this place or comes
	// back from a handed-over cell.
	for p, c := range newChunks {
		ReplayDecrements(c, outs[p], mc.pat, func(_, owner, off, n int) {
			for k := off; k < off+n; k++ {
				if _, ready := newChunks[owner].TileDecrement(k); ready {
					i, j := nd.CellAt(owner, k)
					t.Fatalf("replayed decrement into (%d,%d) made it ready before activation", i, j)
				}
			}
		})
	}
	for _, out := range outs {
		for _, tr := range out {
			for k, v := range tr.Values {
				newChunks[tr.To].SetResult(nd.LocalOffset(tr.ID.I, tr.ID.J+int32(k)), v)
			}
		}
	}
	mc.d, mc.chunks, mc.ready = nd, newChunks, nil
	for p, c := range newChunks {
		mc.seed(p, c.ActivateTiles(mc.pat))
	}
}

func (mc *miniCluster) valueOf(v dag.VertexID) int64 {
	owner := mc.d.Place(v.I, v.J)
	return mc.chunks[owner].Value(mc.d.LocalOffset(v.I, v.J))
}

// serialReference computes the same recurrence with a plain nested loop.
func serialReference(pat dag.Pattern, h, w int32) map[dag.VertexID]int64 {
	out := make(map[dag.VertexID]int64)
	d := dist.NewBlockRow(h, w, 1)
	mc := newMiniCluster(pat, d)
	for mc.step() {
	}
	for i := int32(0); i < h; i++ {
		for j := int32(0); j < w; j++ {
			if dag.IsActive(pat, i, j) {
				out[dag.VertexID{I: i, J: j}] = mc.valueOf(dag.VertexID{I: i, J: j})
			}
		}
	}
	return out
}

func checkAgainstSerial(t *testing.T, mc *miniCluster, pat dag.Pattern, h, w int32) {
	t.Helper()
	want := serialReference(pat, h, w)
	for id, wv := range want {
		if got := mc.valueOf(id); got != wv {
			t.Fatalf("cell %v = %d, want %d", id, got, wv)
		}
	}
}

func TestMidRunRecoveryRecomputesCorrectly(t *testing.T) {
	for _, restoreRemote := range []bool{false, true} {
		for _, deadPlace := range []int{1, 2, 3} {
			pat := patterns.NewDiagonal(12, 9)
			d := dist.NewBlockRow(12, 9, 4)
			mc := newMiniCluster(pat, d)
			// Run halfway, then fail a place.
			for n := 0; n < 54; n++ {
				if !mc.step() {
					t.Fatal("stalled before fault injection")
				}
			}
			mc.recover(t, deadPlace, restoreRemote)
			mc.runToCompletion(t)
			checkAgainstSerial(t, mc, pat, 12, 9)
		}
	}
}

func TestRecoveryDropsDeadPlaceResults(t *testing.T) {
	pat := patterns.NewGrid(8, 4)
	d := dist.NewBlockRow(8, 4, 4) // place 2 owns rows 4-5
	mc := newMiniCluster(pat, d)
	for n := 0; n < 24; n++ {
		mc.step()
	}
	// Record which vertices were finished on place 2 before the fault.
	var deadFinished []dag.VertexID
	mc.chunks[2].ForEachFinished(pat, func(i, j int32, _ int, _ int64) {
		deadFinished = append(deadFinished, dag.VertexID{I: i, J: j})
	})
	if len(deadFinished) == 0 {
		t.Fatal("fault injected before place 2 finished anything; adjust the schedule")
	}
	mc.recover(t, 2, false)
	for _, id := range deadFinished {
		owner := mc.d.Place(id.I, id.J)
		if mc.chunks[owner].Finished(mc.d.LocalOffset(id.I, id.J)) {
			t.Fatalf("vertex %v survived the death of its place", id)
		}
	}
}

func TestRecoveryKeepsOnlyUnmovedWithoutRestore(t *testing.T) {
	pat := patterns.NewGrid(12, 4)
	d := dist.NewBlockRow(12, 4, 4)
	mc := newMiniCluster(pat, d)
	for n := 0; n < 30; n++ {
		mc.step()
	}
	type cellVal struct {
		id dag.VertexID
		v  int64
	}
	var before []cellVal
	for p, c := range mc.chunks {
		if p == 1 {
			continue
		}
		c.ForEachFinished(pat, func(i, j int32, _ int, v int64) {
			before = append(before, cellVal{dag.VertexID{I: i, J: j}, v})
		})
	}
	oldDist := mc.d
	mc.recover(t, 1, false)
	for _, cv := range before {
		oldOwner := oldDist.Place(cv.id.I, cv.id.J)
		newOwner := mc.d.Place(cv.id.I, cv.id.J)
		off := mc.d.LocalOffset(cv.id.I, cv.id.J)
		finished := mc.chunks[newOwner].Finished(off)
		if oldOwner == newOwner {
			if !finished {
				t.Fatalf("unmoved finished vertex %v was dropped", cv.id)
			}
			if got := mc.chunks[newOwner].Value(off); got != cv.v {
				t.Fatalf("vertex %v value changed across recovery: %d != %d", cv.id, got, cv.v)
			}
		} else if finished {
			t.Fatalf("moved vertex %v kept without restore-remote (paper default discards it)", cv.id)
		}
	}
}

func TestRecoveryRestoreRemoteKeepsMoved(t *testing.T) {
	pat := patterns.NewGrid(12, 4)
	d := dist.NewBlockRow(12, 4, 4)
	mc := newMiniCluster(pat, d)
	for n := 0; n < 30; n++ {
		mc.step()
	}
	var beforeCount int
	for p, c := range mc.chunks {
		if p != 1 {
			beforeCount += int(c.FinishedCount())
		}
	}
	mc.recover(t, 1, true)
	var afterCount int
	for _, c := range mc.chunks {
		afterCount += int(c.FinishedCount())
	}
	if afterCount != beforeCount {
		t.Fatalf("restore-remote kept %d finished vertices, want all %d from alive places", afterCount, beforeCount)
	}
	mc.runToCompletion(t)
	checkAgainstSerial(t, mc, pat, 12, 4)
}

func TestDoubleFaultRecovery(t *testing.T) {
	pat := patterns.NewDiagonal(16, 8)
	d := dist.NewBlockRow(16, 8, 5)
	mc := newMiniCluster(pat, d)
	for n := 0; n < 40; n++ {
		mc.step()
	}
	mc.recover(t, 4, false)
	for n := 0; n < 20; n++ {
		mc.step()
	}
	mc.recover(t, 2, true)
	mc.runToCompletion(t)
	checkAgainstSerial(t, mc, pat, 16, 8)
}

func TestRecoveryQuick(t *testing.T) {
	// Property: for random pattern/shape/fault-point combinations, a
	// mid-run recovery still converges to the serial result.
	f := func(hs, ws, steps uint8, deadSel uint8, restore bool) bool {
		h := int32(hs%10) + 2
		w := int32(ws%10) + 2
		places := 3
		var pat dag.Pattern
		switch deadSel % 3 {
		case 0:
			pat = patterns.NewGrid(h, w)
		case 1:
			pat = patterns.NewDiagonal(h, w)
		default:
			pat = patterns.NewInterval(h)
			w = h
		}
		d := dist.NewBlockRow(h, w, places)
		mc := newMiniCluster(pat, d)
		limit := int(steps) % (int(h)*int(w) + 1)
		for n := 0; n < limit; n++ {
			if !mc.step() {
				break
			}
		}
		dead := 1 + int(deadSel)%2 // place 1 or 2 (never 0)
		mc.recover(t, dead, restore)
		for mc.step() {
		}
		want := serialReference(pat, h, w)
		for id, wv := range want {
			if mc.valueOf(id) != wv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotStoreRoundTrip(t *testing.T) {
	pat := patterns.NewGrid(6, 4)
	d := dist.NewBlockRow(6, 4, 2)
	mc := newMiniCluster(pat, d)
	for n := 0; n < 12; n++ {
		mc.step()
	}
	store := NewSnapshotStore[int64](8)
	for _, c := range mc.chunks {
		store.Save(c, pat)
	}
	store.Commit()
	if store.Len() != 12 {
		t.Fatalf("store holds %d values, want 12", store.Len())
	}
	snaps, bytes := store.Stats()
	if snaps != 1 || bytes != 12*8 {
		t.Fatalf("stats = (%d,%d), want (1,96)", snaps, bytes)
	}

	// Fresh chunks restored from the snapshot hold exactly the saved set.
	restored := 0
	for _, p := range d.Places() {
		c := NewChunk[int64](p, d)
		c.InitFlags(pat)
		restored += store.RestoreInto(c, pat)
	}
	if restored != 12 {
		t.Fatalf("restored %d values, want 12", restored)
	}

	// A second snapshot of the same state moves no new bytes.
	for _, c := range mc.chunks {
		store.Save(c, pat)
	}
	store.Commit()
	if _, b := store.Stats(); b != 12*8 {
		t.Fatalf("idempotent re-save changed bytes: %d", b)
	}
}

// carryOverCells is CarryOver a cell at a time — one CellAt, IsActive, owner
// lookup and SetResult per finished cell, one single-cell Transfer per cell
// handed over: the oracle the run-wise carry-over must agree with.
func carryOverCells[T any](old, nc *Chunk[T], pat dag.Pattern, restoreRemote bool) []Transfer[T] {
	newDist := nc.Dist()
	var out []Transfer[T]
	old.ForEachFinished(pat, func(i, j int32, _ int, v T) {
		newOwner := newDist.Place(i, j)
		if newOwner == old.place {
			nc.SetResult(newDist.LocalOffset(i, j), v)
			return
		}
		if restoreRemote {
			out = append(out, Transfer[T]{To: newOwner, ID: dag.VertexID{I: i, J: j}, Values: []T{v}})
		}
	})
	return out
}

// cellTransfer is one cell of a Transfer run.
type cellTransfer struct {
	to int
	id dag.VertexID
	v  int64
}

func flattenTransfers(out []Transfer[int64]) []cellTransfer {
	var cells []cellTransfer
	for _, tr := range out {
		for k, v := range tr.Values {
			cells = append(cells, cellTransfer{tr.To, dag.VertexID{I: tr.ID.I, J: tr.ID.J + int32(k)}, v})
		}
	}
	return cells
}

// fuzzLayout builds one of the layouts the recovery must handle over n places.
func fuzzLayout(kind uint8, h, w int32, n int, rng *rand.Rand) dist.Dist {
	switch kind % 7 {
	case 0:
		return dist.NewBlockRow(h, w, n)
	case 1:
		return dist.NewBlockCol(h, w, n)
	case 2:
		return dist.NewCyclicRow(h, w, n)
	case 3:
		return dist.NewCyclicCol(h, w, n)
	case 4:
		return dist.NewBlockCyclicRow(h, w, int32(1+rng.Intn(3)), n)
	case 5:
		pr := 1 + rng.Intn(n)
		for n%pr != 0 {
			pr--
		}
		return dist.NewBlock2D(h, w, pr, n/pr)
	}
	// A custom owner function: mostly bands of rows, with stray cells, so
	// both runs and lone cells occur.
	salt := rng.Int31()
	d, err := dist.NewFunc(h, w, identity(n), func(i, j int32) int {
		if (i*7+j*13+salt)%5 == 0 {
			return int(i+j) % n
		}
		return int(i) * n / int(h)
	})
	if err != nil {
		panic(err)
	}
	return d
}

func identity(n int) []int {
	ps := make([]int, n)
	for k := range ps {
		ps[k] = k
	}
	return ps
}

// fuzzPattern picks a pattern: dense stencils (fixed and row-dependent
// offsets), dense generic ones and sparse ones.
func fuzzPattern(kind uint8, h, w int32, rng *rand.Rand) dag.Pattern {
	switch kind % 8 {
	case 0:
		return patterns.NewDiagonal(h, w)
	case 1:
		return patterns.NewGrid(h, w)
	case 2:
		return patterns.NewChain(h, w)
	case 3:
		ws := make([]int32, h-1)
		for k := range ws {
			ws[k] = 1 + rng.Int31n(w+1)
		}
		p, err := patterns.NewKnapsack(ws, w-1)
		if err != nil {
			panic(err)
		}
		return p
	case 4:
		return patterns.NewRowWave(h, w)
	case 5:
		return patterns.NewColWave(h, w)
	case 6:
		return patterns.NewInterval(h)
	}
	return patterns.NewBanded(h, w, 1+rng.Int31n(w))
}

// checkRecoveryRuns rebuilds every survivor of a random half-finished run
// both ways — run-wise and with the per-cell oracle — and fails unless they
// agree on the new chunks (values, finished bits, done counts), the
// transfers, and the replayed decrements: every emitted run stays in one box
// row of a place other than its source's, and, cut at tile ends the way the
// engine's handover cuts it, the per-(owner, tile) totals are those of
// replayCells, which asks the pattern cell by cell whatever it declares.
func checkRecoveryRuns(t *testing.T, layout, patKind, size, places, deadMask, fill uint8, seed int64, restore bool) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + int(places)%4
	h, w := int32(2+size%13), int32(2+(size/13)%17)
	pat := fuzzPattern(patKind, h, w, rng)
	if hp, wp := pat.Bounds(); hp != h || wp != w {
		h, w = hp, wp // Interval is square
	}
	d := fuzzLayout(layout, h, w, n, rng)
	dead := func(p int) bool { return deadMask&(1<<p) != 0 && p != 0 } // place 0 always survives
	nd, err := d.Restrict(func(p int) bool { return !dead(p) })
	if err != nil {
		t.Fatal(err)
	}
	// Finished: a row-major prefix of each place's box, as a wavefront
	// leaves it, or random cells.
	p := float64(fill%8) / 7
	for _, pl := range d.Places() {
		if dead(pl) {
			continue
		}
		old := NewChunk[int64](pl, d)
		old.InitFlags(pat)
		prefix := int(p * float64(old.Len()))
		for off := 0; off < old.Len(); off++ {
			if old.Finished(off) || (fill < 128 && off >= prefix) || (fill >= 128 && rng.Float64() >= p) {
				continue
			}
			i, j := d.CellAt(pl, off)
			old.SetResult(off, int64(i)*1000+int64(j)+1)
		}
		runs, cells := NewChunk[int64](pl, nd), NewChunk[int64](pl, nd)
		runs.InitFlags(pat)
		cells.InitFlags(pat)
		outRuns := CarryOver(old, runs, pat, restore)
		outCells := carryOverCells(old, cells, pat, restore)
		if a, b := runs.FinishedCount(), cells.FinishedCount(); a != b {
			t.Fatalf("place %d: run-wise carry-over counts %d done, per-cell %d", pl, a, b)
		}
		for off := 0; off < runs.Len(); off++ {
			if a, b := runs.Finished(off), cells.Finished(off); a != b || runs.Value(off) != cells.Value(off) {
				t.Fatalf("place %d offset %d: run-wise (%v, %d), per-cell (%v, %d)", pl, off, a, runs.Value(off), b, cells.Value(off))
			}
		}
		if a, b := flattenTransfers(outRuns), flattenTransfers(outCells); !slices.Equal(a, b) {
			t.Fatalf("place %d: run-wise transfers %v, per-cell %v", pl, a, b)
		}
		for _, tr := range outRuns {
			if len(tr.Values) == 0 {
				t.Fatalf("place %d: an empty transfer to %d", pl, tr.To)
			}
		}

		grids := map[int]*TileGrid{}
		for _, q := range nd.Places() {
			b := nd.LocalBox(q)
			g := NewTileGrid(b.Rows, b.Cols, 1+rng.Intn(4), 1+rng.Intn(6))
			grids[q] = &g
		}
		type key struct{ owner, tile int }
		got, want := map[key]int{}, map[key]int{}
		ReplayDecrements(runs, outRuns, pat, func(from, owner, off, n int) {
			cols := nd.LocalBox(owner).Cols
			if owner == from || n <= 0 || off%cols+n > cols {
				t.Fatalf("place %d: replay emitted %d targets at %d of place %d (box width %d) from place %d", pl, n, off, owner, cols, from)
			}
			g := grids[owner]
			for end, k := off+n, 0; off < end; off += k {
				k = min(end, g.RunEnd(off)) - off
				got[key{owner, g.TileOf(off)}] += k
			}
		})
		replayCells(cells, outCells, pat, func(_, owner, off, _ int) {
			want[key{owner, grids[owner].TileOf(off)}]++
		})
		if !maps.Equal(got, want) {
			t.Fatalf("place %d: run-wise replay %v, per-cell %v", pl, got, want)
		}
	}
}

// FuzzRecoveryRuns checks the run-wise carry-over and replay against the
// per-cell oracle over layouts (block and cyclic rows and columns, block
// cyclic rows, 2-D blocks, a custom function), dead-place sets, finished
// masks, dense and sparse patterns with and without a declared stencil, and
// restore-remote on and off. The seed corpus in testdata/fuzz covers every
// layout and pattern kind, so a plain `go test` run is deterministic.
func FuzzRecoveryRuns(f *testing.F) {
	f.Fuzz(func(t *testing.T, layout, patKind, size, places, deadMask, fill uint8, seed int64, restore bool) {
		checkRecoveryRuns(t, layout, patKind, size, places, deadMask, fill, seed, restore)
	})
}

// TestReplayRunsScaleWithRows pins the run-wise replay's cost: on a dense
// 3-offset stencil under block rows, with the finished cells a row-major
// prefix of each place's box and restore-remote handing whole rows over, a
// survivor's replay makes at most a few emit calls per row — the per-cell
// oracle makes one per remote edge, and visits every finished cell.
func TestReplayRunsScaleWithRows(t *testing.T) {
	const h, w, places, dead = 64, 512, 4, 1
	pat := patterns.NewDiagonal(h, w)
	d := dist.NewBlockRow(h, w, places)
	nd, err := d.Restrict(func(p int) bool { return p != dead })
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range nd.Places() {
		old := NewChunk[int64](pl, d)
		old.InitFlags(pat)
		for off := 0; off < old.Len()*3/4; off++ {
			old.SetResult(off, int64(off))
		}
		nc := NewChunk[int64](pl, nd)
		nc.InitFlags(pat)
		out := CarryOver(old, nc, pat, true)
		calls, edges := 0, 0
		ReplayDecrements(nc, out, pat, func(_, _, _, n int) { calls++; edges += n })
		oracle := 0
		replayCells(nc, out, pat, func(_, _, _, _ int) { oracle++ })
		if edges != oracle {
			t.Fatalf("place %d: runs cover %d remote edges, the oracle finds %d", pl, edges, oracle)
		}
		if limit := 3 * h; calls > limit {
			t.Fatalf("place %d: %d emit calls for %d remote edges, want at most %d (3 per row)", pl, calls, edges, limit)
		}
		t.Logf("place %d: %d emit calls for %d remote edges, %d transfer runs", pl, calls, edges, len(out))
	}
}
