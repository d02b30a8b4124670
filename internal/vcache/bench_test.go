package vcache

import (
	"testing"

	"github.com/dpx10/dpx10/internal/dag"
)

// BenchmarkVCacheParallel hammers one cache from every CPU with a
// read-mostly mix (7 Gets per Put), the pattern a place's worker pool
// produces during a remote-heavy run: what its one mutex costs under
// contention.
func BenchmarkVCacheParallel(b *testing.B) {
	const capacity = 4096
	c := New[int64](capacity)
	for i := int32(0); i < capacity; i++ {
		c.Put(dag.VertexID{I: i, J: 0}, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int32(0)
		for pb.Next() {
			id := dag.VertexID{I: i & (capacity - 1), J: 0}
			if i&7 == 0 {
				c.Put(id, int64(i))
			} else {
				c.Get(id)
			}
			i++
		}
	})
}

// BenchmarkVCacheChurn is a fetch-bound place's pattern: every remote value
// is read once, so each op is a Get that misses and then the Put of the
// fetched value, which evicts the oldest of a full cache of 256.
func BenchmarkVCacheChurn(b *testing.B) {
	const capacity = 256
	c := New[int64](capacity)
	for k := int32(0); k < capacity; k++ {
		c.Put(dag.VertexID{I: -1, J: k}, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		id := dag.VertexID{I: int32(n / 1000), J: int32(n % 1000)}
		if _, ok := c.Get(id); ok {
			b.Fatalf("Get(%v) hit in a stream of distinct ids", id)
		}
		if !c.Put(id, int64(n)) {
			b.Fatalf("Put(%v) into a full cache evicted nothing", id)
		}
	}
}
