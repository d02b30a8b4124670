package vcache

import (
	"sync"
	"testing"
	"testing/quick"

	"github.com/dpx10/dpx10/internal/dag"
)

func id(i, j int32) dag.VertexID { return dag.VertexID{I: i, J: j} }

func TestPutGet(t *testing.T) {
	c := New[int32](4)
	c.Put(id(1, 2), 42)
	if v, ok := c.Get(id(1, 2)); !ok || v != 42 {
		t.Fatalf("Get = (%d,%v), want (42,true)", v, ok)
	}
	if _, ok := c.Get(id(9, 9)); ok {
		t.Fatal("Get returned a value never inserted")
	}
}

// TestFIFOEviction fills a cache and overfills it by half: exactly the
// oldest half of the overflow's worth of entries goes, in insertion order,
// each Put past capacity reporting its eviction — at every capacity, a
// large one included, since one FIFO hand serves the whole cache.
func TestFIFOEviction(t *testing.T) {
	for _, capacity := range []int32{3, 256, 1000} {
		c := New[int32](int(capacity))
		extra := capacity/2 + 1
		for k := int32(0); k < capacity+extra; k++ {
			if evicted := c.Put(id(0, k), k); evicted != (k >= capacity) {
				t.Fatalf("cap %d: Put #%d reported eviction %v", capacity, k, evicted)
			}
		}
		for k := int32(0); k < capacity+extra; k++ {
			v, ok := c.Get(id(0, k))
			if want := k >= extra; ok != want || (ok && v != k) {
				t.Fatalf("cap %d: entry (0,%d) = (%d,%v), want present %v: not FIFO", capacity, k, v, ok, want)
			}
		}
		// A FIFO cache evicts insertion order regardless of access recency:
		// touching the oldest entry must not save it.
		c.Get(id(0, extra))
		c.Put(id(0, -1), -1)
		if _, ok := c.Get(id(0, extra)); ok {
			t.Fatalf("cap %d: recently read entry survived: replacement is not FIFO", capacity)
		}
		if c.Len() != int(capacity) {
			t.Fatalf("cap %d: Len = %d", capacity, c.Len())
		}
	}
}

func TestUpdateInPlace(t *testing.T) {
	c := New[int32](2)
	c.Put(id(0, 0), 1)
	c.Put(id(0, 1), 2)
	c.Put(id(0, 0), 10) // refresh, must not evict (0,1)
	if v, ok := c.Get(id(0, 0)); !ok || v != 10 {
		t.Fatalf("refresh lost: got (%d,%v)", v, ok)
	}
	if _, ok := c.Get(id(0, 1)); !ok {
		t.Fatal("refresh of an existing key evicted another entry")
	}
}

func TestZeroCapacityDisabled(t *testing.T) {
	c := New[int32](0)
	c.Put(id(0, 0), 1)
	if _, ok := c.Get(id(0, 0)); ok {
		t.Fatal("zero-capacity cache stored a value")
	}
	if c.Len() != 0 || c.Cap() != 0 {
		t.Fatalf("Len=%d Cap=%d, want 0,0", c.Len(), c.Cap())
	}
}

func TestNeverServesWrongValue(t *testing.T) {
	// Property: after any Put sequence, Get(id) returns either nothing or
	// the most recent value written for that exact id.
	f := func(ops []uint16) bool {
		c := New[int32](5)
		latest := map[dag.VertexID]int32{}
		for n, op := range ops {
			v := id(int32(op%7), int32(op/7%7))
			c.Put(v, int32(n))
			latest[v] = int32(n)
		}
		for v, want := range latest {
			if got, ok := c.Get(v); ok && got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int64](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 500; n++ {
				v := id(int32(g), int32(n%32))
				c.Put(v, int64(g))
				if got, ok := c.Get(v); ok && got != int64(g) {
					t.Errorf("read %d for key %v written by goroutine %d", got, v, g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPutPushedIsPut pins the deprecated shim: it writes each value as Put
// would — a refresh in place, a FIFO eviction when full, nothing when the
// cache is off — and returns how many it was handed.
func TestPutPushedIsPut(t *testing.T) {
	c := New[int32](3)
	c.Put(id(0, 0), 1)
	if n := c.PutPushed([]dag.VertexID{id(0, 0), id(0, 1), id(0, 2)}, []int32{10, 11, 12}); n != 3 {
		t.Fatalf("PutPushed returned %d, want 3", n)
	}
	if v, ok := c.Get(id(0, 0)); !ok || v != 10 || c.Len() != 3 {
		t.Fatalf("refresh: got (%d,%v) with %d entries, want (10,true) and 3", v, ok, c.Len())
	}
	c.PutPushed([]dag.VertexID{id(0, 3)}, []int32{13}) // evicts (0,0), the oldest
	if _, ok := c.Get(id(0, 0)); ok {
		t.Fatal("oldest entry survived a full PutPushed: not FIFO")
	}
	if n := New[int32](0).PutPushed([]dag.VertexID{id(0, 0)}, []int32{1}); n != 0 {
		t.Fatalf("zero-capacity PutPushed returned %d, want 0", n)
	}
}
