package distarray

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
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

// TestSetResultLifecycle drives the finished bits of a chunk with no tile
// grid, 3 rows of 37 cells (rows cross words, words hold two rows), through
// each way a cell is completed: one by one (SetResult) or a row at a time
// (SetValue, then Publish), and from two goroutines at once on runs that share
// words. Each finishes exactly its cells; finishing a cell, or a row holding
// one, a second time panics naming the cell.
func TestSetResultLifecycle(t *testing.T) {
	const h, w = 3, 37
	d := dist.NewBlockRow(h, w, 1)
	for _, tc := range []struct {
		name  string
		do    func(c *Chunk[int64])
		fin   []int  // the offsets finished, with value 77 + offset
		twice string // the vertex a second completion names, if it panics
	}{
		{"one cell", func(c *Chunk[int64]) { c.SetResult(40, 117) }, []int{40}, ""},
		{"cell twice", func(c *Chunk[int64]) { c.SetResult(40, 117); c.SetResult(40, 118) }, nil, "(1,3)"},
		{"row", func(c *Chunk[int64]) { publish(c, 37, 37) }, span(37, 37), ""},
		{"row twice", func(c *Chunk[int64]) { publish(c, 37, 37); publish(c, 37, 37) }, nil, "(1,0)"},
		{"row over a finished cell", func(c *Chunk[int64]) { c.SetResult(70, 147); publish(c, 37, 37) }, nil, "(1,33)"},
		{"cell in a finished row", func(c *Chunk[int64]) { publish(c, 0, 37); c.SetResult(36, 113) }, nil, "(0,36)"},
		{"runs sharing words", func(c *Chunk[int64]) { publish(c, 0, 30); publish(c, 30, 20); publish(c, 50, 61) }, span(0, 111), ""},
		{"two goroutines", func(c *Chunk[int64]) {
			var wg sync.WaitGroup
			for k := range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for lo := 5 * k; lo < h*w; lo += 10 {
						publish(c, lo, min(5, h*w-lo))
					}
				}()
			}
			wg.Wait()
		}, span(0, 111), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewChunk[int64](0, d)
			c.InitFlags(patterns.NewGrid(h, w))
			defer func() {
				r := recover()
				if tc.twice == "" && r != nil {
					t.Fatalf("panicked: %v", r)
				}
				if tc.twice != "" && (r == nil || !strings.Contains(fmt.Sprint(r), "vertex "+tc.twice+" finished twice")) {
					t.Fatalf("panic %v, want vertex %s finished twice", r, tc.twice)
				}
			}()
			tc.do(c)
			want := make([]bool, c.Len())
			for _, off := range tc.fin {
				want[off] = true
				if c.Value(off) != 77+int64(off) {
					t.Fatalf("value at %d = %d", off, c.Value(off))
				}
			}
			for off := range want {
				if c.Finished(off) != want[off] {
					t.Fatalf("Finished(%d) = %v", off, !want[off])
				}
			}
			if c.FinishedRun(0, c.Len()) != len(tc.fin) || c.FinishedCount() != int64(len(tc.fin)) {
				t.Fatalf("FinishedRun %d, FinishedCount %d, want %d", c.FinishedRun(0, c.Len()), c.FinishedCount(), len(tc.fin))
			}
		})
	}
}

// publish completes the n cells from lo as a walk does a row: values first,
// then one Publish, then the done count.
func publish(c *Chunk[int64], lo, n int) {
	for off := lo; off < lo+n; off++ {
		c.SetValue(off, 77+int64(off))
	}
	c.Publish(lo, n)
	c.AddDone(int64(n))
}

func span(lo, n int) []int {
	s := make([]int, n)
	for k := range s {
		s[k] = lo + k
	}
	return s
}

func TestDecrementUnderflowPanics(t *testing.T) {
	pat := patterns.NewGrid(2, 2)
	d := dist.NewBlockRow(2, 2, 1)
	c := NewChunk[int32](0, d)
	c.ConfigureTiles(1)
	c.InitActivateTiles(pat)
	off := d.LocalOffset(0, 1) // one edge, from (0,0)
	if got := c.tileIndeg[c.TileOf(off)].Load(); got != 1 {
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

// TestForEachFinishedSkipsInactive: a Sparse pattern's inactive cells are
// finished from InitFlags on, but neither counted nor visited. Interval's
// lower triangle is inactive; the boxes' rows are shorter and longer than a
// word, and one chunk has a tile grid, the other none.
func TestForEachFinishedSkipsInactive(t *testing.T) {
	for _, n := range []int32{3, 45} {
		pat := patterns.NewInterval(n)
		d := dist.NewBlockRow(n, n, 1)
		for _, grid := range []bool{false, true} {
			c := NewChunk[int32](0, d)
			if grid {
				c.ConfigureGrid(NewTileGrid(int(n), int(n), 2, 5))
			}
			c.InitFlags(pat)
			c.SetResult(d.LocalOffset(0, 0), 5)
			inactive := 0
			for off := range c.Len() {
				i, j := d.CellAt(0, off)
				if c.Finished(off) != (i > j || i == 0 && j == 0) {
					t.Fatalf("n=%d: Finished(%d,%d) = %v", n, i, j, c.Finished(off))
				}
				if i > j {
					inactive++
				}
			}
			if c.ActiveCount() != int64(c.Len()-inactive) || c.FinishedCount() != 1 || c.FinishedRun(0, c.Len()) != inactive+1 {
				t.Fatalf("n=%d: active %d, finished %d, finished bits %d", n, c.ActiveCount(), c.FinishedCount(), c.FinishedRun(0, c.Len()))
			}
			var got []dag.VertexID
			c.ForEachFinished(pat, func(i, j int32, _ int, v int32) {
				got = append(got, dag.VertexID{I: i, J: j})
			})
			if len(got) != 1 || got[0] != (dag.VertexID{I: 0, J: 0}) {
				t.Fatalf("n=%d: ForEachFinished visited %v, want only (0,0)", n, got)
			}
		}
	}
}

// TestChunkStateBytesPerCell bounds what a chunk keeps per cell: its value,
// 4 B for int32 values, and its finished bit, plus per-tile state that
// amortizes to little at 32 × 32 tiles. A per-vertex flag or counter would add
// 4 B.
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
	if per > 4.5 {
		t.Fatalf("chunk state is %.2f B/cell, over the 4.5 B bound", per)
	}
	t.Logf("chunk state: %.2f B/cell", per)
}
