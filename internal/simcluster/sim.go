// Package simcluster is a deterministic discrete-event simulator of the
// DPX10 execution model.
//
// The paper's evaluation ran on 12 nodes of Tianhe-1A (§VIII); this
// machine has one core, so wall-clock speedup curves cannot be measured
// directly. The simulator substitutes for that testbed: it executes the
// same scheduling discipline the real engine uses — per-place worker
// cores, FIFO ready lists, dependency fetches over a latency/bandwidth
// network with a per-place FIFO cache, recovery by redistribution — but
// advances virtual clocks instead of running user code. The shapes the
// paper reports (speedup saturation from wavefront dependencies, linear
// scaling with size, recovery time halving with node count) emerge from
// the model, and every policy knob (distribution, cache, restore mode)
// is shared with the real engine's packages.
//
// Vertices can stand for tiles: simulating a 300M-vertex SWLAG as a
// 3000×1000 tile DAG with 100k cells per tile just scales ComputeCost and
// FetchBytes accordingly (the benchmark harness does exactly that, and
// EXPERIMENTS.md documents the mapping).
package simcluster

import (
	"container/heap"
	"fmt"
	"sort"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/vcache"
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
	// CacheSize is the per-place FIFO vertex cache capacity, entries.
	CacheSize int
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
	// or straggling nodes; places absent from the map are nominal.
	PlaceSpeed map[int]float64
	// Steal lets a ready vertex execute at whichever place completes it
	// earliest instead of only at its owner: remote execution pays a
	// fetch of every dependency from wherever it lives plus a result
	// write-back. This models the engine's work-stealing strategy in
	// steady state (an idle place pulls work exactly when doing so beats
	// waiting for the owner's cores).
	Steal bool
	// AggWindow models the engine's outbound decrement aggregator: the
	// cross-place decrements one place owes another within this virtual-
	// time window ride a single message, flushed at the window deadline
	// (or earlier at AggMaxBatch records). 0 keeps per-vertex messages.
	AggWindow float64
	// AggMaxBatch flushes an open batch once it holds this many source
	// records, matching the engine's size trigger. Default 256.
	AggMaxBatch int
	// ValuePush piggybacks each finished vertex's value (FetchBytes) onto
	// its cross-place batch record and deposits it into the destination's
	// cache on arrival, so downstream dependency reads hit the cache
	// instead of paying a fetch round-trip. Needs CacheSize > 0 and an
	// AggWindow to ride on.
	ValuePush bool
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
	// SchedCost is the per-vertex scheduling overhead (queue ops, cache
	// lookup, decrement bookkeeping), virtual seconds. Tile-granular
	// execution amortizes it: the charge per vertex is SchedCost /
	// max(1, TileSize), matching the engine where one tile dispatch
	// covers TileSize cells.
	SchedCost float64
	// TileSize is the scheduling granularity in cells assumed by the
	// SchedCost amortization above. 0 or 1 charges the full overhead on
	// every vertex (per-vertex scheduling).
	TileSize int
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
		CacheSize:        0,
		RecoveryCellCost: 2e-7,
	}
}

// Result reports one simulated run.
type Result struct {
	Makespan      float64 // virtual seconds until the last vertex finished
	RecoveryTime  float64 // virtual seconds spent in recovery (0 if none)
	ComputedCells int64   // vertex executions, recomputation included
	RemoteFetches int64   // dependency values moved between places
	CacheHits     int64
	Messages      int64
	BytesMoved    int64
	AggBatches    int64 // aggregated decrement messages (AggWindow > 0)
}

type evKind uint8

const (
	evDecr       evKind = iota // a dependency-satisfied notification arrives
	evFinish                   // a vertex completes at its place
	evBatchFlush               // an aggregation window expires at the sender
	evBatchApply               // an aggregated batch arrives at its destination
)

type event struct {
	t     float64
	seq   int64 // insertion order, for deterministic tie-breaking
	kind  evKind
	id    dag.VertexID
	batch *simBatch // evBatchFlush / evBatchApply only
}

// simBatch is one open (or in-flight) aggregated decrement message from
// place src to place dst, mirroring the engine's per-destination buffer.
type simBatch struct {
	src, dst int
	recs     []batchRec
	flushed  bool
}

// batchRec is one source vertex's contribution: its identity (for the
// value-push cache deposit) and its decrement targets at dst.
type batchRec struct {
	src     dag.VertexID
	targets []dag.VertexID
}

// bytes returns the modeled wire size of the batch, mirroring the real
// kindDecrBatch layout: 12-byte header, 13 bytes per record (src id +
// flags + target count), 8 per target id, plus the pushed value.
func (b *simBatch) bytes(m *Model) int64 {
	n := int64(12)
	for _, rec := range b.recs {
		n += 13 + 8*int64(len(rec.targets))
		if m.ValuePush {
			n += m.FetchBytes
		}
	}
	return n
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
	// open holds the per-(src place, dst place) aggregation buffers when
	// the model's AggWindow is set.
	open map[[2]int]*simBatch
	// cores[p] is a min-heap (plain sorted maintenance: small k) of the
	// times at which place p's cores become free.
	cores  map[int][]float64
	caches map[int]*vcache.Cache[struct{}]

	now      float64
	res      Result
	finishAt []float64       // per-cell finish time when TrackFinishTimes
	busy     map[int]float64 // per-place cumulative core-busy virtual time
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
	s := &Sim{
		pat: pat, d: d, m: m,
		h: h, w: w,
		indeg:    make([]int32, int64(h)*int64(w)),
		finished: make([]bool, int64(h)*int64(w)),
		cores:    make(map[int][]float64),
		caches:   make(map[int]*vcache.Cache[struct{}]),
		busy:     make(map[int]float64),
	}
	for _, p := range d.Places() {
		cs := make([]float64, m.CoresPerPlace)
		s.cores[p] = cs
		s.caches[p] = vcache.New[struct{}](m.CacheSize)
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

func (s *Sim) pushBatch(t float64, kind evKind, b *simBatch) {
	s.seq++
	heap.Push(&s.events, event{t: t, seq: s.seq, kind: kind, batch: b})
}

// addToBatch buffers one finished vertex's decrements toward place dst,
// opening a (src,dst) batch with a flush deadline when none is pending and
// flushing inline at the size trigger — the simulator's mirror of
// aggregator.add.
func (s *Sim) addToBatch(src dag.VertexID, p, dst int, targets []dag.VertexID) {
	if s.open == nil {
		s.open = make(map[[2]int]*simBatch)
	}
	key := [2]int{p, dst}
	b := s.open[key]
	if b == nil {
		b = &simBatch{src: p, dst: dst}
		s.open[key] = b
		s.pushBatch(s.now+s.m.AggWindow, evBatchFlush, b)
	}
	b.recs = append(b.recs, batchRec{src: src, targets: append([]dag.VertexID(nil), targets...)})
	maxRecs := s.m.AggMaxBatch
	if maxRecs < 1 {
		maxRecs = 256
	}
	if len(b.recs) >= maxRecs {
		s.flushBatch(b, s.now)
	}
}

// flushBatch puts an open batch on the wire: one message charged at the
// batch's full size, applied at the destination after the transfer time.
func (s *Sim) flushBatch(b *simBatch, t float64) {
	if b.flushed || len(b.recs) == 0 {
		return
	}
	b.flushed = true
	delete(s.open, [2]int{b.src, b.dst})
	bytes := b.bytes(&s.m)
	s.res.Messages++
	s.res.AggBatches++
	s.res.BytesMoved += bytes
	s.pushBatch(t+s.msgCost(bytes), evBatchApply, b)
}

// popCore returns the earliest time a core at place p is free and marks
// it busy until `until` (set by the caller via setCore).
func (s *Sim) popCoreIdx(p int) int {
	cs := s.cores[p]
	best := 0
	for k := 1; k < len(cs); k++ {
		if cs[k] < cs[best] {
			best = k
		}
	}
	return best
}

// msgCost is the virtual transfer time for one message of n bytes between
// distinct places. The chaos fields fold fault injection in expectation:
// drops multiply the cost by the expected retransmission count, duplicates
// burn extra bandwidth, and injected delay adds its mean.
func (s *Sim) msgCost(n int64) float64 {
	c := s.m.NetLatency + float64(n)/s.m.NetBandwidth
	if d := s.m.ChaosDropProb; d > 0 && d < 1 {
		c /= 1 - d
	}
	if s.m.ChaosDupProb > 0 {
		c += s.m.ChaosDupProb * float64(n) / s.m.NetBandwidth
	}
	return c + s.m.ChaosDelayMean
}

// computeCostAt is the per-vertex compute time at place p: the work
// itself plus the amortized scheduling overhead, times the heterogeneity
// multiplier.
func (s *Sim) computeCostAt(p int) float64 {
	c := s.m.ComputeCost
	if s.m.SchedCost > 0 {
		tile := s.m.TileSize
		if tile < 1 {
			tile = 1
		}
		c += s.m.SchedCost / float64(tile)
	}
	if f, ok := s.m.PlaceSpeed[p]; ok && f > 0 {
		return c * f
	}
	return c
}

// schedule assigns a ready vertex to a core — at its owner, or under the
// stealing model at whichever place finishes it earliest — charging fetch
// time for remote, uncached dependencies, and emits its finish event.
func (s *Sim) schedule(id dag.VertexID, readyAt float64) {
	owner := s.d.Place(id.I, id.J)
	p := owner
	if s.m.Steal {
		p = s.pickStealPlace(id, readyAt, owner)
	}
	var buf []dag.VertexID
	buf = s.pat.Dependencies(id.I, id.J, buf)
	fetch := 0.0
	if p != owner {
		// Stolen vertex: the thief returns the result to the owner.
		fetch += s.msgCost(s.m.FetchBytes)
		s.res.Messages++
		s.res.BytesMoved += s.m.FetchBytes
	}
	// Group remote uncached dependencies by owner: the engine issues one
	// batched fetch call per remote owner.
	var perOwner map[int]int64
	for _, dep := range buf {
		owner := s.d.Place(dep.I, dep.J)
		if owner == p {
			continue
		}
		if _, ok := s.caches[p].Get(dep); ok {
			s.res.CacheHits++
			continue
		}
		if perOwner == nil {
			perOwner = make(map[int]int64, 2)
		}
		perOwner[owner] += s.m.FetchBytes
		s.res.RemoteFetches++
		s.caches[p].Put(dep, struct{}{})
	}
	msgs := s.m.FetchMsgs
	if msgs < 1 {
		msgs = 1
	}
	for _, bytes := range perOwner {
		// Request/response serialized per owner; scattered dependencies
		// pay the latency once per message.
		fetch += float64(msgs)*s.m.NetLatency + float64(bytes)/s.m.NetBandwidth
		s.res.Messages += msgs
		s.res.BytesMoved += bytes
	}
	ci := s.popCoreIdx(p)
	start := readyAt
	if s.cores[p][ci] > start {
		start = s.cores[p][ci]
	}
	finish := start + fetch + s.computeCostAt(p)
	s.cores[p][ci] = finish
	s.busy[p] += finish - start
	s.push(finish, evFinish, id)
}

// pickStealPlace returns the place that completes the vertex earliest:
// the owner with its normal fetch cost, or a thief paying a full remote
// fetch of every dependency plus the result write-back.
func (s *Sim) pickStealPlace(id dag.VertexID, readyAt float64, owner int) int {
	var buf []dag.VertexID
	buf = s.pat.Dependencies(id.I, id.J, buf)
	ownerFetch := 0.0
	var perOwner map[int]int64
	for _, dep := range buf {
		o := s.d.Place(dep.I, dep.J)
		if o == owner {
			continue
		}
		if perOwner == nil {
			perOwner = make(map[int]int64, 2)
		}
		perOwner[o] += s.m.FetchBytes
	}
	for _, bytes := range perOwner {
		ownerFetch += s.msgCost(bytes)
	}
	// Thieves fetch every dependency (their cache holds nothing useful
	// for a one-off vertex) and return the result to the owner.
	thiefFetch := float64(len(buf))*0 + s.msgCost(s.m.FetchBytes*int64(len(buf))) + s.msgCost(s.m.FetchBytes)
	if len(buf) == 0 {
		thiefFetch = s.msgCost(s.m.FetchBytes)
	}

	bestPlace := owner
	bestFinish := s.coreStart(owner, readyAt) + ownerFetch + s.computeCostAt(owner)
	for q := range s.cores {
		if q == owner {
			continue
		}
		finish := s.coreStart(q, readyAt) + thiefFetch + s.computeCostAt(q)
		if finish < bestFinish-1e-15 {
			bestFinish, bestPlace = finish, q
		}
	}
	return bestPlace
}

// coreStart is the earliest time place p could start a vertex ready at
// readyAt.
func (s *Sim) coreStart(p int, readyAt float64) float64 {
	cs := s.cores[p]
	best := cs[0]
	for k := 1; k < len(cs); k++ {
		if cs[k] < best {
			best = cs[k]
		}
	}
	if best < readyAt {
		return readyAt
	}
	return best
}

// step processes one event; returns false when the queue is empty.
func (s *Sim) step() bool {
	if s.events.Len() == 0 {
		return false
	}
	ev := heap.Pop(&s.events).(event)
	s.now = ev.t
	switch ev.kind {
	case evFinish:
		lin := ev.id.Linear(s.w)
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
		var perDest map[int][]dag.VertexID
		for _, a := range buf {
			q := s.d.Place(a.I, a.J)
			if q == p {
				s.push(s.now, evDecr, a)
				continue
			}
			if s.m.AggWindow > 0 {
				if perDest == nil {
					perDest = make(map[int][]dag.VertexID, 2)
				}
				perDest[q] = append(perDest[q], a)
				continue
			}
			s.res.Messages++
			s.res.BytesMoved += s.m.DecrBytes
			s.push(s.now+s.msgCost(s.m.DecrBytes), evDecr, a)
		}
		if perDest != nil {
			dests := make([]int, 0, len(perDest))
			for q := range perDest {
				dests = append(dests, q)
			}
			sort.Ints(dests) // keep event order deterministic
			for _, q := range dests {
				s.addToBatch(ev.id, p, q, perDest[q])
			}
		}
	case evBatchFlush:
		s.flushBatch(ev.batch, s.now)
	case evBatchApply:
		b := ev.batch
		for _, rec := range b.recs {
			if s.m.ValuePush {
				s.caches[b.dst].Put(rec.src, struct{}{})
			}
			for _, a := range rec.targets {
				// A recovery may have re-owned the target; stale arrivals
				// for cells this destination no longer owns are dropped,
				// like the engine's epoch check.
				if s.d.Place(a.I, a.J) != b.dst {
					continue
				}
				lin := a.Linear(s.w)
				s.indeg[lin]--
				if s.indeg[lin] < 0 {
					panic(fmt.Sprintf("simcluster: vertex %v indegree underflow", a))
				}
				if s.indeg[lin] == 0 && !s.finished[lin] {
					s.schedule(a, s.now)
				}
			}
		}
	case evDecr:
		lin := ev.id.Linear(s.w)
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

// Utilization returns place p's cumulative core-busy time divided by its
// total core capacity over the run so far (makespan × cores) — the
// virtual-time analogue of the runtime's sched.busy_ns over elapsed ×
// threads, as dpx10-run -trace reports it.
func (s *Sim) Utilization(p int) float64 {
	if s.res.Makespan <= 0 {
		return 0
	}
	cs, ok := s.cores[p]
	if !ok {
		return 0
	}
	return s.busy[p] / (s.res.Makespan * float64(len(cs)))
}

// FinishTime returns the recorded virtual finish time of a vertex; only
// meaningful when Model.TrackFinishTimes is set.
func (s *Sim) FinishTime(id dag.VertexID) float64 {
	if s.finishAt == nil {
		return 0
	}
	return s.finishAt[id.Linear(s.w)]
}
