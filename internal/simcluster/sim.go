// Package simcluster is a deterministic discrete-event simulator of the
// paper's testbed.
//
// The paper's evaluation ran on 12 nodes of Tianhe-1A (§VIII); wall-clock
// speedup curves over that many nodes cannot be measured on one machine.
// The simulator substitutes for that testbed: per-place worker cores, FIFO
// ready lists, dependency fetches and indegree decrements over a
// latency/bandwidth link, recovery by redistribution, and optionally
// straggling places and work stealing — but it advances virtual clocks
// instead of running user code. The shapes the paper reports (speedup
// saturation from wavefront dependencies, linear scaling with size,
// recovery time halving with node count) emerge from the model. The
// engine's own optimisations (vertex cache, decrement aggregation, value
// push, tiling) are not modelled: a simulated vertex stands for a whole
// tile of the paper's matrix.
//
// Simulating a 300M-vertex SWLAG as a 3000×1000 tile DAG with 100k cells
// per tile just scales ComputeCost and FetchBytes accordingly (the
// benchmark harness does exactly that, and EXPERIMENTS.md documents the
// mapping).
//
// Places are indexed by slice and always visited in place order, and
// events at equal times run in insertion order, so the same inputs give
// the same Result bit for bit.
package simcluster

import (
	"container/heap"
	"fmt"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dist"
)

// Model holds the cost parameters of the simulated cluster.
type Model struct {
	// CoresPerPlace is the worker pool width per place (X10_NTHREADS).
	CoresPerPlace int
	// ComputeCost is the virtual seconds to execute one vertex.
	ComputeCost float64
	// NetLatency is the per-message virtual latency between distinct
	// places, seconds.
	NetLatency float64
	// NetBandwidth is the link bandwidth, bytes per virtual second.
	NetBandwidth float64
	// FetchBytes is the payload of one dependency value transfer.
	FetchBytes int64
	// FetchMsgs is how many wire messages one dependency transfer takes
	// (default 1). Dependencies whose cells are scattered — 0/1KP's
	// (i-1, j-w_i) — cannot be batched into a single contiguous request,
	// so a tile-level dependency costs one message per cell of its
	// boundary segment.
	FetchMsgs int64
	// DecrBytes is the payload of one indegree-decrement notification.
	DecrBytes int64
	// RecoveryCellCost is the per-local-cell cost of the recovery scan
	// (allocate + init indegree + replay), seconds. The recovery runs in
	// parallel across survivors, so the paper's "time halves with twice
	// the nodes" follows from the max over places.
	RecoveryCellCost float64
	// TrackFinishTimes records each vertex's virtual finish time for the
	// causality checks in the test suite. Costs 8 bytes per cell.
	TrackFinishTimes bool
	// PlaceSpeed optionally scales each place's compute cost (index =
	// place id; 1.0 = nominal, 2.0 = half speed). Models heterogeneous
	// or straggling nodes; places past its end, or at 0, are nominal.
	PlaceSpeed []float64
	// Steal lets a ready vertex execute at whichever place completes it
	// earliest instead of only at its owner: remote execution pays the
	// owner's kind of fetch for every dependency the thief does not hold,
	// plus a result write-back. This models the engine's work-stealing strategy in
	// steady state (an idle place pulls work exactly when doing so beats
	// waiting for the owner's cores). Ties go to the owner, then to the
	// lowest place id.
	Steal bool
	// ChaosDropProb models the engine's chaos arm in expectation: each
	// cross-place message is lost with this probability and retried by the
	// reliable layer, so the expected transfer cost of one delivered
	// message scales by 1/(1-p). Must be < 1.
	ChaosDropProb float64
	// ChaosDupProb is the probability a delivered message is sent twice;
	// the duplicate is suppressed by receiver dedup but still burns link
	// bandwidth.
	ChaosDupProb float64
	// ChaosDelayMean is the expected extra latency injected per message,
	// virtual seconds (probability × mean hold time of the delay fault).
	ChaosDelayMean float64
}

// DefaultModel gives parameters loosely calibrated to the paper's
// testbed: ~1µs of work per vertex-tile unit, ~20µs message latency
// (Infiniband-ish at MPI level), 1 GB/s effective bandwidth.
func DefaultModel(cores int) Model {
	return Model{
		CoresPerPlace:    cores,
		ComputeCost:      1e-6,
		NetLatency:       20e-6,
		NetBandwidth:     1e9,
		FetchBytes:       8,
		DecrBytes:        12,
		RecoveryCellCost: 2e-7,
	}
}

// Result reports one simulated run.
type Result struct {
	Makespan      float64 // virtual seconds until the last vertex finished
	RecoveryTime  float64 // virtual seconds spent in recovery (0 if none)
	ComputedCells int64   // vertex executions, recomputation included
	RemoteFetches int64   // dependency values moved between places
	Messages      int64
	BytesMoved    int64
}

type evKind uint8

const (
	evDecr   evKind = iota // a dependency-satisfied notification arrives
	evFinish               // a vertex completes at its place
)

type event struct {
	t    float64
	seq  int64 // insertion order, for deterministic tie-breaking
	kind evKind
	id   dag.VertexID
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(a, b int) bool {
	if h[a].t != h[b].t {
		return h[a].t < h[b].t
	}
	return h[a].seq < h[b].seq
}
func (h eventHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Sim is one simulation instance. Not safe for concurrent use.
type Sim struct {
	pat dag.Pattern
	d   dist.Dist
	m   Model

	h, w     int32
	indeg    []int32
	finished []bool
	active   int64
	done     int64

	events eventHeap
	seq    int64
	// cores[p] holds the times at which place p's cores become free; nil
	// for ids that are not (or no longer) places of the cluster.
	cores [][]float64
	busy  []float64 // per-place cumulative core-busy virtual time

	// Scratch reused across schedule calls: the vertex's dependencies and
	// their count per owning place.
	deps     []dag.VertexID
	perOwner []int64

	now      float64
	res      Result
	finishAt []float64 // per-cell finish time when TrackFinishTimes
}

// New builds a simulation of pattern pat distributed by d under model m.
func New(pat dag.Pattern, d dist.Dist, m Model) (*Sim, error) {
	h, w := pat.Bounds()
	dh, dw := d.Bounds()
	if dh != h || dw != w {
		return nil, fmt.Errorf("simcluster: dist %dx%d does not match pattern %dx%d", dh, dw, h, w)
	}
	if m.CoresPerPlace < 1 {
		return nil, fmt.Errorf("simcluster: CoresPerPlace = %d", m.CoresPerPlace)
	}
	if m.NetBandwidth <= 0 {
		return nil, fmt.Errorf("simcluster: NetBandwidth must be positive")
	}
	n := 0 // place ids index the per-place slices
	for _, p := range d.Places() {
		n = max(n, p+1)
	}
	s := &Sim{
		pat: pat, d: d, m: m,
		h: h, w: w,
		indeg:    make([]int32, int64(h)*int64(w)),
		finished: make([]bool, int64(h)*int64(w)),
		cores:    make([][]float64, n),
		busy:     make([]float64, n),
		perOwner: make([]int64, n),
	}
	for _, p := range d.Places() {
		s.cores[p] = make([]float64, m.CoresPerPlace)
	}
	if m.TrackFinishTimes {
		s.finishAt = make([]float64, int64(h)*int64(w))
	}
	var buf []dag.VertexID
	for i := int32(0); i < h; i++ {
		for j := int32(0); j < w; j++ {
			lin := dag.VertexID{I: i, J: j}.Linear(w)
			if !dag.IsActive(pat, i, j) {
				s.finished[lin] = true
				continue
			}
			s.active++
			buf = pat.Dependencies(i, j, buf[:0])
			s.indeg[lin] = int32(len(buf))
		}
	}
	// Seed source vertices at t = 0.
	for i := int32(0); i < h; i++ {
		for j := int32(0); j < w; j++ {
			id := dag.VertexID{I: i, J: j}
			if dag.IsActive(pat, i, j) && s.indeg[id.Linear(w)] == 0 {
				s.schedule(id, 0)
			}
		}
	}
	return s, nil
}

func (s *Sim) push(t float64, kind evKind, id dag.VertexID) {
	s.seq++
	heap.Push(&s.events, event{t: t, seq: s.seq, kind: kind, id: id})
}

// msgCost is the virtual transfer time for msgs messages carrying n bytes
// in all between distinct places. The chaos fields fold fault injection in
// expectation: drops multiply the cost by the expected retransmission
// count, duplicates burn extra bandwidth, and injected delay adds its mean
// per message.
func (s *Sim) msgCost(msgs, n int64) float64 {
	c := float64(msgs)*s.m.NetLatency + float64(n)/s.m.NetBandwidth
	if d := s.m.ChaosDropProb; d > 0 && d < 1 {
		c /= 1 - d
	}
	if s.m.ChaosDupProb > 0 {
		c += s.m.ChaosDupProb * float64(n) / s.m.NetBandwidth
	}
	return c + float64(msgs)*s.m.ChaosDelayMean
}

// computeCostAt is the per-vertex compute time at place p, scaled by its
// PlaceSpeed.
func (s *Sim) computeCostAt(p int) float64 {
	if p < len(s.m.PlaceSpeed) && s.m.PlaceSpeed[p] > 0 {
		return s.m.ComputeCost * s.m.PlaceSpeed[p]
	}
	return s.m.ComputeCost
}

// remoteByOwner counts s.deps not owned by place p, per owning place. The
// engine issues one batched fetch call per remote owner.
func (s *Sim) remoteByOwner(p int) []int64 {
	clear(s.perOwner)
	for _, dep := range s.deps {
		if o := s.d.Place(dep.I, dep.J); o != p {
			s.perOwner[o]++
		}
	}
	return s.perOwner
}

// schedule assigns a ready vertex to a core — at its owner, or under the
// stealing model at whichever place finishes it earliest — charging fetch
// time for remote dependencies, and emits its finish event.
func (s *Sim) schedule(id dag.VertexID, readyAt float64) {
	s.deps = s.pat.Dependencies(id.I, id.J, s.deps[:0])
	owner := s.d.Place(id.I, id.J)
	p := owner
	if s.m.Steal {
		p = s.pickStealPlace(readyAt, owner)
	}
	fetch := s.fetch(p, owner, true)
	cs := s.cores[p]
	ci := freeCore(cs)
	start := max(readyAt, cs[ci])
	finish := start + fetch + s.computeCostAt(p)
	cs[ci] = finish
	s.busy[p] += finish - start
	s.push(finish, evFinish, id)
}

// fetch is the virtual time place p spends gathering s.deps from their
// remote owners — one serialized request/response of FetchMsgs messages
// per owner, since scattered dependencies pay the latency once per
// message — plus, when p is not the vertex's owner, the write-back of the
// result. With charge it also counts the traffic into the result; the same
// function prices every candidate place of a steal.
func (s *Sim) fetch(p, owner int, charge bool) float64 {
	cost := 0.0
	if p != owner {
		cost += s.msgCost(1, s.m.FetchBytes)
		if charge {
			s.res.Messages++
			s.res.BytesMoved += s.m.FetchBytes
		}
	}
	msgs := max(s.m.FetchMsgs, 1)
	for _, n := range s.remoteByOwner(p) {
		if n == 0 {
			continue
		}
		bytes := n * s.m.FetchBytes
		cost += s.msgCost(msgs, bytes)
		if charge {
			s.res.RemoteFetches += n
			s.res.Messages += msgs
			s.res.BytesMoved += bytes
		}
	}
	return cost
}

// pickStealPlace returns the place that completes the vertex earliest,
// each paying its own fetch: the owner gathers its remote dependencies, a
// thief the ones it does not hold and writes the result back.
func (s *Sim) pickStealPlace(readyAt float64, owner int) int {
	bestPlace := owner
	bestFinish := s.coreStart(owner, readyAt) + s.fetch(owner, owner, false) + s.computeCostAt(owner)
	for q, cs := range s.cores {
		if cs == nil || q == owner {
			continue
		}
		finish := s.coreStart(q, readyAt) + s.fetch(q, owner, false) + s.computeCostAt(q)
		if finish < bestFinish-1e-15 {
			bestFinish, bestPlace = finish, q
		}
	}
	return bestPlace
}

// freeCore returns the index of the core that frees up first.
func freeCore(cs []float64) int {
	best := 0
	for k := 1; k < len(cs); k++ {
		if cs[k] < cs[best] {
			best = k
		}
	}
	return best
}

// coreStart is the earliest time place p could start a vertex ready at
// readyAt.
func (s *Sim) coreStart(p int, readyAt float64) float64 {
	cs := s.cores[p]
	return max(readyAt, cs[freeCore(cs)])
}

// step processes one event; returns false when the queue is empty.
func (s *Sim) step() bool {
	if s.events.Len() == 0 {
		return false
	}
	ev := heap.Pop(&s.events).(event)
	s.now = ev.t
	lin := ev.id.Linear(s.w)
	switch ev.kind {
	case evFinish:
		if s.finished[lin] {
			panic(fmt.Sprintf("simcluster: vertex %v finished twice", ev.id))
		}
		s.finished[lin] = true
		s.done++
		s.res.ComputedCells++
		if s.finishAt != nil {
			s.finishAt[lin] = s.now
		}
		if s.now > s.res.Makespan {
			s.res.Makespan = s.now
		}
		p := s.d.Place(ev.id.I, ev.id.J)
		var buf []dag.VertexID
		buf = s.pat.AntiDependencies(ev.id.I, ev.id.J, buf)
		for _, a := range buf {
			if s.d.Place(a.I, a.J) == p {
				s.push(s.now, evDecr, a)
				continue
			}
			s.res.Messages++
			s.res.BytesMoved += s.m.DecrBytes
			s.push(s.now+s.msgCost(1, s.m.DecrBytes), evDecr, a)
		}
	case evDecr:
		s.indeg[lin]--
		if s.indeg[lin] < 0 {
			panic(fmt.Sprintf("simcluster: vertex %v indegree underflow", ev.id))
		}
		if s.indeg[lin] == 0 && !s.finished[lin] {
			s.schedule(ev.id, s.now)
		}
	}
	return true
}

// Run executes the simulation to completion and returns the result.
func (s *Sim) Run() (Result, error) {
	for s.step() {
	}
	if s.done != s.active {
		return s.res, fmt.Errorf("simcluster: stalled at %d/%d vertices", s.done, s.active)
	}
	return s.res, nil
}

// RunUntil advances the simulation until `count` vertices have finished
// (or the event queue drains). It returns the number finished.
func (s *Sim) RunUntil(count int64) int64 {
	for s.done < count && s.step() {
	}
	return s.done
}

// Done returns the number of finished active vertices.
func (s *Sim) Done() int64 { return s.done }

// Active returns the number of active vertices.
func (s *Sim) Active() int64 { return s.active }

// Now returns the current virtual time.
func (s *Sim) Now() float64 { return s.now }

// alive reports whether p is a live place of the cluster.
func (s *Sim) alive(p int) bool { return p >= 0 && p < len(s.cores) && s.cores[p] != nil }

// Utilization returns place p's cumulative core-busy time divided by its
// total core capacity over the run so far (makespan × cores) — the
// virtual-time analogue of the runtime's sched.busy_ns over elapsed ×
// threads, as dpx10-run -trace reports it. Dead and unknown places
// report 0.
func (s *Sim) Utilization(p int) float64 {
	if s.res.Makespan <= 0 || !s.alive(p) {
		return 0
	}
	return s.busy[p] / (s.res.Makespan * float64(len(s.cores[p])))
}

// FinishTime returns the recorded virtual finish time of a vertex; only
// meaningful when Model.TrackFinishTimes is set.
func (s *Sim) FinishTime(id dag.VertexID) float64 {
	if s.finishAt == nil {
		return 0
	}
	return s.finishAt[id.Linear(s.w)]
}
