// Package metrics is the runtime's observability registry: one Registry
// per place holding named counters, gauges, histograms and small keyed
// vectors, all updated lock-free on the hot path and readable at any
// moment as a consistent-enough Snapshot.
//
// The package depends only on the standard library and holds no
// references into the rest of the runtime; renderers that need to name
// vector keys (wire kinds, job ids) take a KeyNamer callback.
//
// Disabled runs cost nothing: a nil *Registry hands out nil instrument
// handles, and every instrument method is a nil-receiver no-op, so the
// wiring can be unconditional and the hot path pays a single predictable
// nil check when metrics are off.
package metrics

import (
	"sync"
	"sync/atomic"
)

// counterShards is the number of cache-line-padded slots a Counter
// spreads its increments over; worker w writes slot w&(counterShards-1).
// Must be a power of two.
const counterShards = 8

// padded keeps one atomic counter alone on its cache line so workers
// incrementing different slots never false-share.
type padded struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing sum, sharded per worker.
type Counter struct {
	slots [counterShards]padded
}

// Add adds n to the counter. wkr selects the shard — pass the worker's
// index on worker goroutines; any value (e.g. -1) is safe elsewhere.
func (c *Counter) Add(wkr int, n int64) {
	if c == nil {
		return
	}
	c.slots[uint(wkr)&(counterShards-1)].v.Add(n)
}

// Inc is Add(wkr, 1).
func (c *Counter) Inc(wkr int) { c.Add(wkr, 1) }

// Value returns the current sum across shards.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var s int64
	for i := range c.slots {
		s += c.slots[i].v.Load()
	}
	return s
}

// Gauge is a last-value-wins instrument.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution: bounds[i] is the inclusive
// upper bound of bucket i, with one extra overflow bucket at the end.
// Sum accumulates the exact total of observed values, so phase-duration
// histograms can be cross-checked against wall-clock measurements.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Sum returns the exact total of all observed samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Count returns the number of observed samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Vec is a small vector of counters keyed by a uint8 — a wire kind, a job
// id or what a cache count came from. All 256 slots exist up front so Add is a single
// indexed atomic.
type Vec struct {
	slots [256]atomic.Int64
}

// Add adds n under key.
func (v *Vec) Add(key uint8, n int64) {
	if v == nil {
		return
	}
	v.slots[key].Add(n)
}

// Reset zeroes the slot under key, for a key about to name something new.
func (v *Vec) Reset(key uint8) {
	if v == nil {
		return
	}
	v.slots[key].Store(0)
}

// Get returns the current value under key.
func (v *Vec) Get(key uint8) int64 {
	if v == nil {
		return 0
	}
	return v.slots[key].Load()
}

// Total returns the sum over all keys.
func (v *Vec) Total() int64 {
	if v == nil {
		return 0
	}
	var s int64
	for i := range v.slots {
		s += v.slots[i].Load()
	}
	return s
}

// Registry holds one place's instruments. Instruments are created (or
// fetched) through their handles (names.go) at wiring time — never on the
// hot path — and the returned instruments are then updated without any
// lookup or lock.
//
// A nil *Registry is the disabled registry: every method returns a nil
// instrument.
type Registry struct {
	place int

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	vecs     map[string]*Vec
}

// New returns an enabled registry for the given place.
func New(place int) *Registry {
	return &Registry{
		place:    place,
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		vecs:     map[string]*Vec{},
	}
}

// Place returns the place this registry belongs to.
func (r *Registry) Place() int {
	if r == nil {
		return -1
	}
	return r.place
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// mustBeNamed panics on a handle's zero value, which has no name: looked
// up, it would create an instrument named "" that shows in every snapshot.
// Like a name minted twice, this is a programming error, so it fails loudly
// on any registry, nil included.
func mustBeNamed(name string) {
	if name == "" {
		panic("metrics: lookup through a zero-value handle; declare handles in names.go")
	}
}

// Counter returns id's counter, creating it on first use.
func (r *Registry) Counter(id CounterID) *Counter {
	mustBeNamed(id.name)
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[id.name]
	if c == nil {
		c = &Counter{}
		r.counters[id.name] = c
	}
	return c
}

// Gauge returns id's gauge, creating it on first use.
func (r *Registry) Gauge(id GaugeID) *Gauge {
	mustBeNamed(id.name)
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[id.name]
	if g == nil {
		g = &Gauge{}
		r.gauges[id.name] = g
	}
	return g
}

// Histogram returns id's histogram, creating it on first use with id's
// bucket bounds.
func (r *Registry) Histogram(id HistogramID) *Histogram {
	mustBeNamed(id.name)
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[id.name]
	if h == nil {
		h = &Histogram{bounds: id.bounds, counts: make([]atomic.Int64, len(id.bounds)+1)}
		r.hists[id.name] = h
	}
	return h
}

// Vec returns id's vector, creating it on first use.
func (r *Registry) Vec(id VecID) *Vec {
	mustBeNamed(id.name)
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.vecs[id.name]
	if v == nil {
		v = &Vec{}
		r.vecs[id.name] = v
	}
	return v
}
