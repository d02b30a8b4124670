package vcache

import (
	"math/rand"
	"testing"
	"time"

	"github.com/dpx10/dpx10/internal/dag"
)

// refCache is the map-plus-ring FIFO cache the open-addressed index
// replaced, kept as the reference the model test holds Cache to.
type refCache struct {
	slots []refEntry
	index map[dag.VertexID]int
	next  int
}

type refEntry struct {
	id    dag.VertexID
	value int32
	used  bool
}

func newRef(capacity int) *refCache {
	return &refCache{slots: make([]refEntry, capacity), index: make(map[dag.VertexID]int, capacity)}
}

func (c *refCache) get(id dag.VertexID) (int32, bool) {
	if slot, hit := c.index[id]; hit {
		return c.slots[slot].value, true
	}
	return 0, false
}

func (c *refCache) put(id dag.VertexID, v int32) (evicted bool) {
	if slot, ok := c.index[id]; ok {
		c.slots[slot].value = v
		return false
	}
	e := &c.slots[c.next]
	if evicted = e.used; evicted {
		delete(c.index, e.id)
	}
	*e = refEntry{id: id, value: v, used: true}
	c.index[id] = c.next
	c.next = (c.next + 1) % len(c.slots)
	return evicted
}

// TestMatchesReference drives Cache and the reference with the same random
// Put, PutAll and Get sequence and requires identical answers throughout:
// every Get's value and presence, every eviction flag and count, and Len.
// Ids come from a set a few times the capacity, so entries are refreshed,
// evicted and re-inserted, and probe chains collide and wrap past the
// table's end. Each PutAll is also replayed as single Puts on a third
// cache, which must end up holding the same entries. Every run draws a
// fresh seed; a failure names it.
func TestMatchesReference(t *testing.T) {
	seed := time.Now().UnixNano()
	defer func() {
		if t.Failed() {
			t.Logf("seed %d", seed)
		}
	}()
	for _, capacity := range []int{1, 3, 256, 1000} {
		rng := rand.New(rand.NewSource(seed + int64(capacity)))
		side := int32(2)
		for side*side < int32(3*capacity) {
			side++
		}
		randID := func() dag.VertexID { return id(rng.Int31n(side), rng.Int31n(side)) }
		c, one, ref := New[int32](capacity), New[int32](capacity), newRef(capacity)
		var ids []dag.VertexID
		var vals []int32
		for n := int32(0); n < 4000; n++ {
			switch op := rng.Intn(8); {
			case op < 3:
				v := randID()
				want := ref.put(v, n)
				if got := c.Put(v, n); got != want {
					t.Fatalf("cap %d op %d: Put(%v) evicted %v, reference %v", capacity, n, v, got, want)
				}
				one.Put(v, n)
			case op < 4:
				ids, vals = ids[:0], vals[:0]
				for k := rng.Intn(2 * capacity); k >= 0; k-- {
					ids = append(ids, randID())
					vals = append(vals, n+int32(k))
				}
				want := 0
				for k, v := range ids {
					if ref.put(v, vals[k]) {
						want++
					}
					one.Put(v, vals[k])
				}
				if got := c.PutAll(ids, vals); got != want {
					t.Fatalf("cap %d op %d: PutAll of %d evicted %d, reference %d", capacity, n, len(ids), got, want)
				}
			default:
				v := randID()
				wv, wok := ref.get(v)
				if gv, gok := c.Get(v); gv != wv || gok != wok {
					t.Fatalf("cap %d op %d: Get(%v) = (%d,%v), reference (%d,%v)", capacity, n, v, gv, gok, wv, wok)
				}
			}
			if c.Len() != len(ref.index) {
				t.Fatalf("cap %d op %d: Len = %d, reference %d", capacity, n, c.Len(), len(ref.index))
			}
		}
		for i := int32(0); i < side; i++ {
			for j := int32(0); j < side; j++ {
				gv, gok := c.Get(id(i, j))
				ov, ook := one.Get(id(i, j))
				if gv != ov || gok != ook {
					t.Fatalf("cap %d: (%d,%d) = (%d,%v) after PutAll, (%d,%v) after the same Puts", capacity, i, j, gv, gok, ov, ook)
				}
			}
		}
	}
}
