package main

import (
	"fmt"
	"sync/atomic"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/dag"
)

// The engine calls out through three interfaces — App.Compute,
// dag.Pattern and codec.Codec. The traced pass wraps all three and
// records one span per call; everything the process spends outside those
// spans is the framework's own time (layer "core").

type spanID int

const (
	spanCompute spanID = iota
	spanDeps
	spanAntiDeps
	spanActive
	spanEncode
	spanDecode
	numSpans
)

var spanNames = [numSpans]string{
	"apps.compute", "dag.deps", "dag.antideps", "dag.active", "codec.encode", "codec.decode",
}

// spanShards spreads the counters of one span over cache lines so the two
// worker threads do not bounce one line per call; callers shard by row.
const spanShards = 16

type spanSlot struct {
	count, ns atomic.Int64
	_         [48]byte
}

// tracer aggregates spans in memory as (count, total ns); it is written
// out as trace-<workload>.json when the benchmark ends.
type tracer struct {
	slots [numSpans][spanShards]spanSlot
}

func (t *tracer) add(id spanID, shard int32, ns int64) {
	s := &t.slots[id][shard&(spanShards-1)]
	s.count.Add(1)
	s.ns.Add(ns)
}

func (t *tracer) total(id spanID) (count, ns int64) {
	for k := range t.slots[id] {
		count += t.slots[id][k].count.Load()
		ns += t.slots[id][k].ns.Load()
	}
	return count, ns
}

// killGate blocks the Compute call that brings the run to exactly `at`
// computed cells, so a fault can be injected at a reproducible point.
type killGate struct {
	n      atomic.Int64
	at     int64
	hit    chan struct{} // closed by the blocked Compute call
	resume chan struct{} // closed by the benchmark once the fault is in
}

func newKillGate(at int64) *killGate {
	return &killGate{at: at, hit: make(chan struct{}), resume: make(chan struct{})}
}

func (g *killGate) step() {
	if g.n.Add(1) == g.at {
		close(g.hit)
		<-g.resume
	}
}

// appWrap is the App the engine sees on every pass. Untraced it adds one
// atomic load per cell (the first-Compute timestamp behind setup_s);
// traced it also times each Compute call.
type appWrap[T any] struct {
	inner dpx10.App[T]
	first atomic.Int64 // nanos() of the first Compute call, 0 = none yet
	tr    *tracer      // nil on untraced passes
	gate  *killGate    // fault workload only
	// corrupt, when set, replaces the value of one cell; the benchmark's
	// own tests use it to prove a wrong result is counted as failed.
	corrupt func(i, j int32, v T) T
}

func (a *appWrap[T]) Compute(i, j int32, deps []dpx10.Cell[T]) T {
	if a.first.Load() == 0 {
		a.first.CompareAndSwap(0, nanos())
	}
	if a.gate != nil {
		a.gate.step()
	}
	var v T
	if a.tr == nil {
		v = a.inner.Compute(i, j, deps)
	} else {
		s := nanos()
		v = a.inner.Compute(i, j, deps)
		a.tr.add(spanCompute, i, nanos()-s)
	}
	if a.corrupt != nil {
		v = a.corrupt(i, j, v)
	}
	return v
}

func (a *appWrap[T]) AppFinished(d *dpx10.Dag[T]) { a.inner.AppFinished(d) }

// patWrap times the pattern calls of the traced pass. The engine keys its
// process-global tile-quotient memo on fmt.Sprintf("%T|%v", pattern) and
// falls back to a per-cluster cache when the key contains "0x"; String
// prints the inner pattern by value so a traced rep reuses the memo
// exactly like an untraced one instead of re-running the O(cells) check.
type patWrap struct {
	inner dag.Pattern
	tr    *tracer
}

func (p *patWrap) String() string { return fmt.Sprintf("traced(%T%v)", p.inner, p.inner) }

func (p *patWrap) Bounds() (int32, int32) { return p.inner.Bounds() }

func (p *patWrap) Dependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	s := nanos()
	buf = p.inner.Dependencies(i, j, buf)
	p.tr.add(spanDeps, i, nanos()-s)
	return buf
}

func (p *patWrap) AntiDependencies(i, j int32, buf []dag.VertexID) []dag.VertexID {
	s := nanos()
	buf = p.inner.AntiDependencies(i, j, buf)
	p.tr.add(spanAntiDeps, i, nanos()-s)
	return buf
}

// sparsePatWrap forwards dag.Sparse; a wrapper that always implemented it
// would push dense patterns onto the engine's sparse path.
type sparsePatWrap struct {
	patWrap
	sparse dag.Sparse
}

func (p *sparsePatWrap) Active(i, j int32) bool {
	s := nanos()
	ok := p.sparse.Active(i, j)
	p.tr.add(spanActive, i, nanos()-s)
	return ok
}

func wrapPattern(p dag.Pattern, tr *tracer) dag.Pattern {
	if tr == nil {
		return p
	}
	w := patWrap{inner: p, tr: tr}
	if sp, ok := p.(dag.Sparse); ok {
		return &sparsePatWrap{patWrap: w, sparse: sp}
	}
	return &w
}

type codecWrap[T any] struct {
	inner dpx10.Codec[T]
	tr    *tracer
}

func (c codecWrap[T]) Encode(dst []byte, v T) []byte {
	s := nanos()
	dst = c.inner.Encode(dst, v)
	c.tr.add(spanEncode, int32(len(dst)), nanos()-s)
	return dst
}

func (c codecWrap[T]) Decode(src []byte) (T, int, error) {
	s := nanos()
	v, n, err := c.inner.Decode(src)
	c.tr.add(spanDecode, int32(len(src)), nanos()-s)
	return v, n, err
}

func wrapCodec[T any](c dpx10.Codec[T], tr *tracer) dpx10.Codec[T] {
	if tr == nil {
		return c
	}
	return codecWrap[T]{inner: c, tr: tr}
}
