package distarray

import (
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
	var transfers []Transfer[int64]
	for p, c := range mc.chunks {
		if p == dead {
			continue // its state is lost with the place
		}
		nc, tr := RebuildChunk(c, mc.pat, nd, restoreRemote)
		nc.ConfigureTiles(1)
		newChunks[p] = nc
		transfers = append(transfers, tr...)
	}
	for _, tr := range transfers {
		dst := newChunks[tr.To]
		dst.SetResult(nd.LocalOffset(tr.ID.I, tr.ID.J), tr.Value)
	}
	for p, c := range newChunks {
		ReplayDecrements(c, mc.pat, func(target dag.VertexID) {
			// Only edges that leave the place are replayed, finished targets
			// included (their owner's scan counted them): every remote
			// dependency contributes exactly one decrement (replayed here for
			// finished deps, at runtime for recomputed ones). The activation
			// scan reads a local source's flag itself.
			if owner := nd.Place(target.I, target.J); owner != p {
				if _, ready := newChunks[owner].TileDecrement(nd.LocalOffset(target.I, target.J)); ready {
					t.Fatalf("replayed decrement into %v made it ready before activation", target)
				}
			}
		})
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
