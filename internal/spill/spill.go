// Package spill implements the paper's stated future work (§X):
// "Currently the entire computation state resides in RAM. We are working
// on spilling some data to local disk to enable computations on large
// scale of DP problems."
//
// A Store keeps a chunk's vertex values in fixed-size pages. A bounded
// number of pages stay resident in memory; the rest are encoded with the
// run's value codec and written to a local scratch file, to be paged back
// in on access. Eviction is CLOCK (second chance), which matches DP
// access patterns: the computation sweeps the matrix, so recently touched
// pages are exactly the live wavefront.
//
// DP runs typically use fixed-width codecs, giving pages stable slots in
// the scratch file. Variable-width encodings are supported by appending
// re-written pages; the file then grows with rewrite churn (documented
// v1 behaviour, akin to an unCompacted log).
package spill

import (
	"fmt"
	"os"
	"sync"

	"github.com/dpx10/dpx10/internal/codec"
)

// Store is a paged, disk-backed array of n values of T. Safe for
// concurrent use; page faults serialize on an internal lock.
type Store[T any] struct {
	mu sync.Mutex

	codec    codec.Codec[T]
	n        int
	pageVals int           // values per page
	maxRes   int           // resident page budget
	remap    func(int) int // offset permutation for page locality

	pages    []*page[T] // nil = not resident
	offsets  []int64    // file offset of the page's last spilled image, -1 = none
	lengths  []int32    // encoded byte length of that image
	resident []int      // page indexes currently in memory (CLOCK order)
	hand     int

	file    *os.File
	fileEnd int64
	buf     []byte // page image scratch, reused by every write
	spare   []T    // the values of the last page evicted, for the next fault

	// stats
	spillsOut int64
	spillsIn  int64
	bytesOut  int64
}

type page[T any] struct {
	vals    []T
	dirty   bool
	touched bool // CLOCK reference bit
}

// New creates a store for n values with pageVals values per page and at
// most maxResident pages in memory. dir is the scratch directory ("" =
// the OS temp dir). The scratch file is unlinked immediately, so it
// disappears with the process.
//
// Page locality follows the identity offset order; use NewMapped when the
// access pattern sweeps across the natural order (e.g. an anti-diagonal
// wavefront over row-major offsets).
func New[T any](n, pageVals, maxResident int, c codec.Codec[T], dir string) (*Store[T], error) {
	return NewMapped[T](n, pageVals, maxResident, c, dir, nil)
}

// NewMapped is New with an offset permutation: value `off` is stored at
// permuted position remap(off), so values that are accessed together can
// share pages regardless of their natural offset order. remap must be a
// bijection on [0, n); nil means identity.
//
// The motivating case: a diagonal-wavefront DP over a row-distributed
// chunk touches one cell per local row at a time. With row-major offsets
// that is one page fault per row; with a column-major remap the whole
// frontier lives in a couple of pages.
func NewMapped[T any](n, pageVals, maxResident int, c codec.Codec[T], dir string, remap func(int) int) (*Store[T], error) {
	if n < 0 || pageVals <= 0 || maxResident <= 0 {
		return nil, fmt.Errorf("spill: invalid geometry n=%d pageVals=%d maxResident=%d", n, pageVals, maxResident)
	}
	f, err := os.CreateTemp(dir, "dpx10-spill-*.dat")
	if err != nil {
		return nil, fmt.Errorf("spill: scratch file: %w", err)
	}
	// Unlink eagerly: the kernel reclaims the space when the fd closes.
	os.Remove(f.Name())
	nPages := (n + pageVals - 1) / pageVals
	s := &Store[T]{
		codec:    c,
		n:        n,
		pageVals: pageVals,
		maxRes:   maxResident,
		remap:    remap,
		pages:    make([]*page[T], nPages),
		offsets:  make([]int64, nPages),
		lengths:  make([]int32, nPages),
		file:     f,
	}
	for k := range s.offsets {
		s.offsets[k] = -1
	}
	return s, nil
}

// Len returns the number of values in the store.
func (s *Store[T]) Len() int { return s.n }

// Get returns the value at off.
func (s *Store[T]) Get(off int) T {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.mapOff(off)
	pg := s.pageFor(m)
	pg.touched = true
	return pg.vals[m%s.pageVals]
}

// Set stores the value at off.
func (s *Store[T]) Set(off int, v T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.mapOff(off)
	pg := s.pageFor(m)
	pg.vals[m%s.pageVals] = v
	pg.dirty = true
	pg.touched = true
}

// mapOff applies the locality permutation. Caller holds s.mu.
func (s *Store[T]) mapOff(off int) int {
	if off < 0 || off >= s.n {
		panic(fmt.Sprintf("spill: offset %d out of [0,%d)", off, s.n))
	}
	if s.remap == nil {
		return off
	}
	m := s.remap(off)
	if m < 0 || m >= s.n {
		panic(fmt.Sprintf("spill: remap(%d) = %d out of [0,%d)", off, m, s.n))
	}
	return m
}

// pageFor returns the resident page containing off, faulting it in (and
// possibly evicting another) as needed. Caller holds s.mu.
func (s *Store[T]) pageFor(off int) *page[T] {
	idx := off / s.pageVals
	if pg := s.pages[idx]; pg != nil {
		return pg
	}
	if len(s.resident) >= s.maxRes {
		s.evictOne()
	}
	pg := &page[T]{vals: s.spare}
	s.spare = nil
	if size := s.pageSizeOf(idx); cap(pg.vals) < size {
		pg.vals = make([]T, size)
	} else {
		pg.vals = pg.vals[:size]
		clear(pg.vals)
	}
	if s.offsets[idx] >= 0 {
		s.readPage(idx, pg)
		s.spillsIn++
	}
	s.pages[idx] = pg
	s.resident = append(s.resident, idx)
	return pg
}

// pageSizeOf returns the value count of page idx (the last page may be
// short).
func (s *Store[T]) pageSizeOf(idx int) int {
	start := idx * s.pageVals
	size := s.pageVals
	if start+size > s.n {
		size = s.n - start
	}
	return size
}

// evictOne applies CLOCK: skip (and clear) touched pages, evict the first
// untouched one, writing it out if dirty. Caller holds s.mu.
func (s *Store[T]) evictOne() {
	for {
		if s.hand >= len(s.resident) {
			s.hand = 0
		}
		idx := s.resident[s.hand]
		pg := s.pages[idx]
		if pg.touched {
			pg.touched = false
			s.hand++
			continue
		}
		if pg.dirty {
			s.writePage(idx, pg)
			s.spillsOut++
		}
		s.pages[idx], s.spare = nil, pg.vals
		s.resident = append(s.resident[:s.hand], s.resident[s.hand+1:]...)
		return
	}
}

// writePage encodes and persists one page. Fixed-width images reuse their
// slot; size changes append at the end of the file. Caller holds s.mu.
func (s *Store[T]) writePage(idx int, pg *page[T]) {
	buf := s.buf[:0]
	for _, v := range pg.vals {
		buf = s.codec.Encode(buf, v)
	}
	off := s.offsets[idx]
	if off < 0 || int(s.lengths[idx]) != len(buf) {
		off = s.fileEnd
		s.fileEnd += int64(len(buf))
	}
	if _, err := s.file.WriteAt(buf, off); err != nil {
		panic(fmt.Sprintf("spill: write page %d: %v", idx, err))
	}
	s.buf = buf
	s.offsets[idx] = off
	s.lengths[idx] = int32(len(buf))
	s.bytesOut += int64(len(buf))
}

// readPage loads a previously spilled page image. Caller holds s.mu.
func (s *Store[T]) readPage(idx int, pg *page[T]) {
	buf := make([]byte, s.lengths[idx]) // fresh: a decoded value may alias it
	if _, err := s.file.ReadAt(buf, s.offsets[idx]); err != nil {
		panic(fmt.Sprintf("spill: read page %d: %v", idx, err))
	}
	for k := range pg.vals {
		v, used, err := s.codec.Decode(buf)
		if err != nil {
			panic(fmt.Sprintf("spill: decode page %d: %v", idx, err))
		}
		pg.vals[k] = v
		buf = buf[used:]
	}
}

// Stats reports paging activity: pages written out, pages read back, and
// bytes written to the scratch file.
func (s *Store[T]) Stats() (spillsOut, spillsIn, bytesOut int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spillsOut, s.spillsIn, s.bytesOut
}

// Resident returns the number of pages currently in memory.
func (s *Store[T]) Resident() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.resident)
}

// Close releases the scratch file.
func (s *Store[T]) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.file.Close()
}
