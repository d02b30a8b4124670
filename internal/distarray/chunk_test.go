package distarray

import (
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/dist"
)

func TestInitIndegrees(t *testing.T) {
	pat := patterns.NewDiagonal(4, 4)
	d := dist.NewBlockRow(4, 4, 2)
	c0 := NewChunk[int32](0, d)
	ready := c0.InitIndegrees(pat)
	// Place 0 owns rows 0-1; the only source is (0,0).
	if len(ready) != 1 {
		t.Fatalf("ready = %v, want exactly the origin", ready)
	}
	if i, j := d.CellAt(0, ready[0]); i != 0 || j != 0 {
		t.Fatalf("ready cell = (%d,%d), want (0,0)", i, j)
	}
	c1 := NewChunk[int32](1, d)
	if ready := c1.InitIndegrees(pat); len(ready) != 0 {
		t.Fatalf("place 1 ready = %v, want none (all cells have deps)", ready)
	}
	// Beyond the sources it is InitFlags: a dense pattern leaves every cell
	// active and unfinished.
	if c0.ActiveCount() != int64(c0.Len()) || c0.FinishedCount() != 0 || c0.Finished(d.LocalOffset(1, 1)) {
		t.Fatalf("active %d of %d, finished %d", c0.ActiveCount(), c0.Len(), c0.FinishedCount())
	}
}

func TestInactiveCellsPreFinished(t *testing.T) {
	pat := patterns.NewInterval(4) // lower triangle inactive
	d := dist.NewBlockRow(4, 4, 1)
	c := NewChunk[int32](0, d)
	c.ConfigureTiles(1)
	ready := c.InitActivateTiles(pat)
	// Sources are the diagonal cells (i,i); a one-cell tile's index is its offset.
	if len(ready) != 4 {
		t.Fatalf("%d ready cells, want 4 diagonal sources", len(ready))
	}
	for _, off := range ready {
		if i, j := d.CellAt(0, off); i != j {
			t.Fatalf("ready cell (%d,%d) is not on the diagonal", i, j)
		}
	}
	if !c.Finished(d.LocalOffset(2, 0)) {
		t.Fatal("inactive cell (2,0) not pre-finished")
	}
	if c.ActiveCount() != 10 {
		t.Fatalf("ActiveCount = %d, want 10", c.ActiveCount())
	}
	if c.FinishedCount() != 0 {
		t.Fatalf("FinishedCount = %d, want 0 (inactive cells don't count)", c.FinishedCount())
	}
}

func TestSetResultLifecycle(t *testing.T) {
	pat := patterns.NewGrid(2, 2)
	d := dist.NewBlockRow(2, 2, 1)
	c := NewChunk[int64](0, d)
	c.InitFlags(pat)
	off := d.LocalOffset(0, 0)
	if c.Finished(off) {
		t.Fatal("cell finished before SetResult")
	}
	c.SetResult(off, 77)
	if !c.Finished(off) || c.Value(off) != 77 {
		t.Fatalf("after SetResult: finished=%v value=%d", c.Finished(off), c.Value(off))
	}
	if c.FinishedCount() != 1 {
		t.Fatalf("FinishedCount = %d", c.FinishedCount())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double SetResult did not panic")
		}
	}()
	c.SetResult(off, 78)
}

func TestDecrementUnderflowPanics(t *testing.T) {
	pat := patterns.NewGrid(2, 2)
	d := dist.NewBlockRow(2, 2, 1)
	c := NewChunk[int32](0, d)
	c.ConfigureTiles(1)
	c.InitActivateTiles(pat)
	off := d.LocalOffset(0, 1) // one edge, from (0,0)
	if got := atomic.LoadInt32(&c.tileIndeg[c.TileOf(off)]); got != 1 {
		t.Fatalf("counter of (0,1) after activation = %d, want 1", got)
	}
	if _, ready := c.TileDecrement(off); !ready {
		t.Fatal("the only edge's decrement did not make (0,1) ready")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("counter underflow after activation did not panic")
		}
	}()
	c.TileDecrement(off)
}

func TestAllFinished(t *testing.T) {
	pat := patterns.NewChain(2, 3)
	d := dist.NewBlockRow(2, 3, 1)
	c := NewChunk[int32](0, d)
	c.InitFlags(pat)
	for off := 0; off < c.Len(); off++ {
		if c.AllFinished() {
			t.Fatal("AllFinished true before completion")
		}
		c.SetResult(off, int32(off))
	}
	if !c.AllFinished() {
		t.Fatal("AllFinished false after completing every cell")
	}
}

func TestForEachFinishedSkipsInactive(t *testing.T) {
	pat := patterns.NewInterval(3)
	d := dist.NewBlockRow(3, 3, 1)
	c := NewChunk[int32](0, d)
	c.InitFlags(pat)
	c.SetResult(d.LocalOffset(0, 0), 5)
	var got []dag.VertexID
	c.ForEachFinished(pat, func(i, j int32, _ int, v int32) {
		got = append(got, dag.VertexID{I: i, J: j})
	})
	if len(got) != 1 || got[0] != (dag.VertexID{I: 0, J: 0}) {
		t.Fatalf("ForEachFinished visited %v, want only (0,0)", got)
	}
}

// TestChunkStateBytesPerCell bounds what a chunk keeps per cell: its value
// and its finished flag, 8 B for int32 values, plus per-tile state that
// amortizes to little at 32 × 32 tiles. A per-vertex counter would add 4 B.
func TestChunkStateBytesPerCell(t *testing.T) {
	const rows, cols = 512, 1024
	pat := patterns.NewDiagonal(rows, cols)
	d := dist.NewBlockRow(rows, cols, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := NewChunk[int32](0, d)
	c.ConfigureGrid(NewTileGrid(rows, cols, 32, 32))
	c.InitActivateTiles(pat)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	per := float64(after.TotalAlloc-before.TotalAlloc) / (rows * cols)
	if per > 8.5 {
		t.Fatalf("chunk state is %.2f B/cell, over the 8.5 B bound", per)
	}
	t.Logf("chunk state: %.2f B/cell", per)
}
