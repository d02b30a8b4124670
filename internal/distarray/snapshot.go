package distarray

import (
	"sync"

	"github.com/dpx10/dpx10/internal/dag"
)

// SnapshotStore models the stable storage behind X10's ResilientDistArray,
// the periodic-snapshot recovery baseline the paper rejects (§VI-D): "the
// periodic snapshot mechanism is infeasible because a large volume of
// intermediate results may be produced in the progress of computing".
//
// The store records every finished value present at snapshot time along
// with the byte volume each snapshot moved, so the recovery ablation can
// charge the baseline its true cost. It is process-local; in a real
// deployment it would be a parallel filesystem, which only makes the
// baseline slower.
type SnapshotStore[T any] struct {
	mu        sync.Mutex
	data      map[dag.VertexID]T
	snapshots int
	bytes     int64
}

// NewSnapshotStore creates an empty store.
func NewSnapshotStore[T any]() *SnapshotStore[T] {
	return &SnapshotStore[T]{data: make(map[dag.VertexID]T)}
}

// Save copies every finished active value of chunk into the store,
// overwriting earlier copies, and charges width bytes — the run's encoded
// value width — for each value not stored before. Call it for each place's
// chunk to complete one global snapshot, then call Commit once.
func (s *SnapshotStore[T]) Save(chunk *Chunk[T], pat dag.Pattern, width int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	chunk.ForEachFinished(pat, func(i, j int32, _ int, v T) {
		id := dag.VertexID{I: i, J: j}
		if _, dup := s.data[id]; !dup {
			s.bytes += int64(width)
		}
		s.data[id] = v
	})
}

// Commit marks the end of one global snapshot round.
func (s *SnapshotStore[T]) Commit() {
	s.mu.Lock()
	s.snapshots++
	s.mu.Unlock()
}

// RestoreInto writes every stored value owned by chunk's place (under the
// chunk's distribution) into the chunk, skipping cells already finished.
// It returns how many values were restored.
func (s *SnapshotStore[T]) RestoreInto(chunk *Chunk[T], pat dag.Pattern) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	d := chunk.Dist()
	for id, v := range s.data {
		if !dag.IsActive(pat, id.I, id.J) {
			continue
		}
		if d.Place(id.I, id.J) != chunk.Place() {
			continue
		}
		off := d.LocalOffset(id.I, id.J)
		if chunk.Finished(off) {
			continue
		}
		chunk.SetResult(off, v)
		n++
	}
	return n
}

// Stats returns the number of committed snapshots and the cumulative bytes
// written to stable storage.
func (s *SnapshotStore[T]) Stats() (snapshots int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshots, s.bytes
}

// Len returns the number of distinct values currently stored.
func (s *SnapshotStore[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}
