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
