package metrics

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// HistSnapshot is a histogram's state at snapshot time.
type HistSnapshot struct {
	Bounds []int64 // inclusive upper bounds, ascending
	Counts []int64 // len(Bounds)+1, last is overflow
	Sum    int64   // exact total of observed samples
}

// Count returns the number of samples in the snapshot.
func (h HistSnapshot) Count() int64 {
	var n int64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Snapshot is one registry's instruments read at a point in time. Vec
// slots that were never touched are omitted, so the maps stay small.
type Snapshot struct {
	Place    int
	Counters map[string]int64
	Gauges   map[string]int64
	Hists    map[string]HistSnapshot
	Vecs     map[string]map[uint8]int64
}

// Snapshot reads every instrument. Concurrent writers may race individual
// atomics, but each read value is a valid point-in-time count; once the
// place is quiescent the snapshot is exact. Nil registries return an
// empty snapshot for place -1.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Place:    -1,
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]HistSnapshot{},
		Vecs:     map[string]map[uint8]int64{},
	}
	if r == nil {
		return s
	}
	s.Place = r.place
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistSnapshot{
			Bounds: append([]int64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Sum:    h.sum.Load(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Hists[name] = hs
	}
	for name, v := range r.vecs {
		m := map[uint8]int64{}
		for k := 0; k < 256; k++ {
			if n := v.slots[k].Load(); n != 0 {
				m[uint8(k)] = n
			}
		}
		s.Vecs[name] = m
	}
	return s
}

// Merge folds other into s: counters, histogram buckets/sums and vec
// slots add; gauges add too (the merged value of a per-place gauge such
// as the epoch is only meaningful when the places agree, but summing
// keeps Merge total and order-independent). The merged snapshot's Place
// is -1, marking an aggregate.
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	s.Place = -1
	for name, v := range other.Counters {
		if s.Counters == nil {
			s.Counters = map[string]int64{}
		}
		s.Counters[name] += v
	}
	for name, v := range other.Gauges {
		if s.Gauges == nil {
			s.Gauges = map[string]int64{}
		}
		s.Gauges[name] += v
	}
	for name, oh := range other.Hists {
		if s.Hists == nil {
			s.Hists = map[string]HistSnapshot{}
		}
		sh, ok := s.Hists[name]
		if !ok || len(sh.Bounds) != len(oh.Bounds) {
			s.Hists[name] = HistSnapshot{
				Bounds: append([]int64(nil), oh.Bounds...),
				Counts: append([]int64(nil), oh.Counts...),
				Sum:    oh.Sum,
			}
			continue
		}
		for i := range sh.Counts {
			sh.Counts[i] += oh.Counts[i]
		}
		sh.Sum += oh.Sum
		s.Hists[name] = sh
	}
	for name, ov := range other.Vecs {
		if s.Vecs == nil {
			s.Vecs = map[string]map[uint8]int64{}
		}
		sv := s.Vecs[name]
		if sv == nil {
			sv = map[uint8]int64{}
			s.Vecs[name] = sv
		}
		for k, n := range ov {
			sv[k] += n
		}
	}
}

// MergeAll merges every snapshot into a fresh aggregate.
func MergeAll(snaps []*Snapshot) *Snapshot {
	total := &Snapshot{Place: -1}
	for _, s := range snaps {
		total.Merge(s)
	}
	return total
}

// Imbalance returns max over mean of sched.cells_executed across per-place
// snapshots: 1 is perfectly balanced. A place that computed nothing still
// counts toward the mean; a run that computed nothing reads 1.
func Imbalance(snaps []*Snapshot) float64 {
	var sum, most int64
	for _, s := range snaps {
		n := s.Counters[SchedCellsExecuted]
		sum, most = sum+n, max(most, n)
	}
	if sum == 0 {
		return 1
	}
	return float64(most) * float64(len(snaps)) / float64(sum)
}

// --- wire encoding ----------------------------------------------------
//
// Snapshots cross places inside a kindStats reply. The format is
// little-endian, length-prefixed and self-contained:
//
//	u32 place (two's complement)
//	u32 nCounters, then per counter: u8 nameLen, name, u64 value
//	u32 nGauges,   same shape
//	u32 nHists,    per hist: u8 nameLen, name, u8 nBounds,
//	               nBounds x u64 bounds, (nBounds+1) x u64 counts, u64 sum
//	u32 nVecs,     per vec: u8 nameLen, name, u16 nKeys,
//	               then per key: u8 key, u64 value
//
// Signed values travel as their two's-complement uint64. The decoder is
// total: any input either round-trips or returns an error, never panics
// or over-allocates (section counts are validated against the bytes
// remaining before any allocation).

func putU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func putU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func putName(b []byte, name string) []byte {
	if len(name) > 255 {
		name = name[:255]
	}
	b = append(b, uint8(len(name)))
	return append(b, name...)
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// EncodeSnapshot appends s's wire form to b and returns the result.
// Sections and vec keys are emitted in sorted order, so equal snapshots
// encode to equal bytes.
func EncodeSnapshot(b []byte, s *Snapshot) []byte {
	b = putU32(b, uint32(int32(s.Place)))
	b = putU32(b, uint32(len(s.Counters)))
	for _, name := range sortedKeys(s.Counters) {
		b = putName(b, name)
		b = putU64(b, uint64(s.Counters[name]))
	}
	b = putU32(b, uint32(len(s.Gauges)))
	for _, name := range sortedKeys(s.Gauges) {
		b = putName(b, name)
		b = putU64(b, uint64(s.Gauges[name]))
	}
	b = putU32(b, uint32(len(s.Hists)))
	for _, name := range sortedKeys(s.Hists) {
		h := s.Hists[name]
		b = putName(b, name)
		nb := len(h.Bounds)
		if nb > 255 {
			nb = 255
		}
		b = append(b, uint8(nb))
		for i := 0; i < nb; i++ {
			b = putU64(b, uint64(h.Bounds[i]))
		}
		for i := 0; i <= nb; i++ {
			var c int64
			if i < len(h.Counts) {
				c = h.Counts[i]
			}
			b = putU64(b, uint64(c))
		}
		b = putU64(b, uint64(h.Sum))
	}
	b = putU32(b, uint32(len(s.Vecs)))
	for _, name := range sortedKeys(s.Vecs) {
		v := s.Vecs[name]
		b = putName(b, name)
		b = putU16(b, uint16(len(v)))
		keys := make([]int, 0, len(v))
		for k := range v {
			keys = append(keys, int(k))
		}
		sort.Ints(keys)
		for _, k := range keys {
			b = append(b, uint8(k))
			b = putU64(b, uint64(v[uint8(k)]))
		}
	}
	return b
}

// snapReader is a bounds-checked little-endian cursor; after any failed
// read every later read fails too, so decode loops stay simple.
type snapReader struct {
	b   []byte
	off int
	err bool
}

func (r *snapReader) fail() {
	r.err = true
}

func (r *snapReader) u8() uint8 {
	if r.err || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *snapReader) u16() uint16 {
	if r.err || r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *snapReader) u32() uint32 {
	if r.err || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *snapReader) u64() uint64 {
	if r.err || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *snapReader) name() string {
	n := int(r.u8())
	if r.err || r.off+n > len(r.b) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// count reads a section length and validates it against the bytes left,
// assuming each entry needs at least min bytes, so a hostile length
// cannot drive a large allocation.
func (r *snapReader) count(min int) int {
	n := int(r.u32())
	if r.err || n < 0 || n*min > len(r.b)-r.off {
		r.fail()
		return 0
	}
	return n
}

var errBadSnapshot = fmt.Errorf("metrics: malformed snapshot")

// DecodeSnapshot parses one wire-format snapshot. It accepts exactly the
// output of EncodeSnapshot; trailing bytes, truncation or inconsistent
// lengths return an error.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	r := &snapReader{b: b}
	s := &Snapshot{
		Place:    int(int32(r.u32())),
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]HistSnapshot{},
		Vecs:     map[string]map[uint8]int64{},
	}
	for i, n := 0, r.count(1+8); i < n && !r.err; i++ {
		name := r.name()
		s.Counters[name] = int64(r.u64())
	}
	for i, n := 0, r.count(1+8); i < n && !r.err; i++ {
		name := r.name()
		s.Gauges[name] = int64(r.u64())
	}
	for i, n := 0, r.count(1+1+8+8); i < n && !r.err; i++ {
		name := r.name()
		nb := int(r.u8())
		if r.err || nb*16 > len(r.b)-r.off {
			r.fail()
			break
		}
		h := HistSnapshot{Bounds: make([]int64, nb), Counts: make([]int64, nb+1)}
		for j := 0; j < nb; j++ {
			h.Bounds[j] = int64(r.u64())
		}
		for j := 0; j <= nb; j++ {
			h.Counts[j] = int64(r.u64())
		}
		h.Sum = int64(r.u64())
		s.Hists[name] = h
	}
	for i, n := 0, r.count(1+2); i < n && !r.err; i++ {
		name := r.name()
		nk := int(r.u16())
		if r.err || nk*9 > len(r.b)-r.off {
			r.fail()
			break
		}
		m := make(map[uint8]int64, nk)
		for j := 0; j < nk; j++ {
			k := r.u8()
			m[k] = int64(r.u64())
		}
		s.Vecs[name] = m
	}
	if r.err || r.off != len(r.b) {
		return nil, errBadSnapshot
	}
	return s, nil
}
