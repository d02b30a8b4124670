package simcluster

import (
	"fmt"
	"slices"

	"github.com/dpx10/dpx10/internal/dag"
)

// Fault kills place dead at the current virtual time and performs the
// paper's recovery (§VI-D) in the simulation:
//
//   - results finished on the dead place are lost;
//   - the distribution is restricted to the survivors;
//   - a finished vertex survives iff its owner is unchanged, unless
//     restoreRemote is set, in which case moved vertices are copied to
//     their new owners (charged to the network);
//   - indegrees of unfinished vertices are re-derived;
//   - in-flight work is discarded (recomputed after resume).
//
// The recovery itself runs in parallel across survivors: its duration is
// the maximum per-place scan cost plus the restore transfer time. Fault
// returns that duration; the simulation resumes at now + duration.
func (s *Sim) Fault(dead int, restoreRemote bool) (float64, error) {
	if dead == 0 {
		return 0, fmt.Errorf("simcluster: place 0 cannot be recovered (Resilient X10 limitation)")
	}
	if !s.alive(dead) {
		return 0, fmt.Errorf("simcluster: place %d not in the cluster (already dead?)", dead)
	}
	oldDist := s.d
	newDist, err := oldDist.Restrict(func(p int) bool { return p != dead })
	if err != nil {
		return 0, err
	}

	// Drop in-flight events: paused activities are recomputed, stale
	// messages are rejected by the engine's epoch check.
	s.events = s.events[:0]

	// Apply the keep/drop rule and account for restore traffic.
	var restoreBytes int64
	perPlaceCells := make([]int64, len(s.cores))
	for i := int32(0); i < s.h; i++ {
		for j := int32(0); j < s.w; j++ {
			if !dag.IsActive(s.pat, i, j) {
				continue
			}
			lin := dag.VertexID{I: i, J: j}.Linear(s.w)
			newOwner := newDist.Place(i, j)
			perPlaceCells[newOwner]++
			if !s.finished[lin] {
				continue
			}
			oldOwner := oldDist.Place(i, j)
			switch {
			case oldOwner == dead:
				s.finished[lin] = false // lost with the place
				s.done--
			case oldOwner == newOwner:
				// kept in place
			case restoreRemote:
				restoreBytes += s.m.FetchBytes // copied to the new owner
			default:
				s.finished[lin] = false // dropped: cheaper to recompute
				s.done--
			}
		}
	}
	recovery := float64(slices.Max(perPlaceCells)) * s.m.RecoveryCellCost
	if restoreBytes > 0 {
		recovery += s.msgCost(1, restoreBytes)
		s.res.Messages++
		s.res.BytesMoved += restoreBytes
	}

	// Install the restricted distribution and fresh per-epoch state.
	s.d = newDist
	s.cores[dead] = nil
	resumeAt := s.now + recovery
	for _, cs := range s.cores {
		for k := range cs {
			cs[k] = resumeAt
		}
	}
	s.now = resumeAt
	s.res.RecoveryTime += recovery

	// Re-derive indegrees from the surviving finished set — for finished
	// vertices too: a kept vertex whose dependency was lost will absorb
	// that dependency's decrement when it is recomputed, exactly as the
	// real engine's chunks do.
	var buf []dag.VertexID
	for i := int32(0); i < s.h; i++ {
		for j := int32(0); j < s.w; j++ {
			if !dag.IsActive(s.pat, i, j) {
				continue
			}
			lin := dag.VertexID{I: i, J: j}.Linear(s.w)
			buf = s.pat.Dependencies(i, j, buf[:0])
			n := int32(0)
			for _, dep := range buf {
				if !s.finished[dep.Linear(s.w)] {
					n++
				}
			}
			s.indeg[lin] = n
		}
	}
	for i := int32(0); i < s.h; i++ {
		for j := int32(0); j < s.w; j++ {
			id := dag.VertexID{I: i, J: j}
			lin := id.Linear(s.w)
			if dag.IsActive(s.pat, i, j) && !s.finished[lin] && s.indeg[lin] == 0 {
				s.schedule(id, resumeAt)
			}
		}
	}
	return recovery, nil
}
