// Package native is the hand-written baseline of the paper's overhead
// experiment (§VIII-B, Figure 12): "we implemented the SWLAG algorithm
// with native X10 and compared it with DPX10's implementation".
//
// It computes the same Gotoh scoring matrices as apps.SWLAG without any
// framework machinery — no generic pattern, no per-vertex indegrees, no
// ready lists. Places own contiguous row blocks; each place computes its
// block in column strips and pipelines each finished strip of its last row
// to the next place over a channel, the way a performance-minded X10
// programmer would structure the wavefront with at/async.
//
// Two variants are provided:
//
//   - RunStrip: the tiled pipeline just described — the tightest
//     hand-coding, which brackets DPX10's overhead from below.
//   - RunVertex: a per-vertex wavefront with atomic row-progress
//     counters, hand-specialized but at the framework's granularity —
//     the closer analogue of the paper's native X10 implementation.
package native

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/dpx10/dpx10/internal/workload"
)

// workSink keeps synthetic per-cell work observable to the compiler;
// atomic because the baselines run cells concurrently.
var workSink atomic.Uint64

// Scoring mirrors apps.SWLAG's parameters.
type Scoring struct {
	Match, Mismatch, GapOpen, GapExtend int32
}

// DefaultScoring is the evaluation scoring (match +2, mismatch -1,
// open -2, extend -1).
func DefaultScoring() Scoring {
	return Scoring{Match: 2, Mismatch: -1, GapOpen: -2, GapExtend: -1}
}

const negInf int32 = -(1 << 28)

// Cell is one entry of the three Gotoh matrices: H the local-alignment score,
// E and F the best scores ending in a gap in a and in b.
type Cell struct{ H, E, F int32 }

// Result reports what the native run computed.
type Result struct {
	BestH int32 // maximum local-alignment score
	Cells int64 // matrix cells computed
}

// blockStarts mirrors the balanced row partition the framework uses.
func blockStarts(total, n int) []int {
	starts := make([]int, n+1)
	for k := 0; k <= n; k++ {
		starts[k] = k * total / n
	}
	return starts
}

// RunStrip executes the strip-pipelined hand-written SWLAG across
// `places` simulated places with strips of stripW columns.
// work adds the same synthetic per-cell work the framework side uses in
// the overhead experiment (0 = the paper's plain SWLAG).
func RunStrip(a, b string, places, stripW int, work int) (Result, error) {
	if places < 1 {
		return Result{}, fmt.Errorf("native: places = %d", places)
	}
	if stripW < 1 {
		stripW = 256
	}
	h := len(a) + 1 // rows
	w := len(b) + 1 // columns
	starts := blockStarts(h, places)

	// boundary[p] carries finished strips of place p's last row to p+1.
	type strip struct {
		lo, hi int // column range [lo, hi)
		cells  []Cell
	}
	boundaries := make([]chan strip, places)
	for p := range boundaries {
		boundaries[p] = make(chan strip, 4)
	}

	var wg sync.WaitGroup
	results := make([]int32, places)
	var cells atomic.Int64
	for p := 0; p < places; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r0, r1 := starts[p], starts[p+1]
			if r0 == r1 {
				// A place with no rows forwards its predecessor's boundary
				// strips unchanged so the pipeline stays connected.
				if p > 0 {
					for sg := range boundaries[p-1] {
						if p < places-1 {
							boundaries[p] <- sg
						}
					}
				}
				close(boundaries[p])
				return
			}
			nRows := r1 - r0
			rows := make([][]Cell, nRows)
			for i := range rows {
				rows[i] = make([]Cell, w)
			}
			ghost := make([]Cell, w) // global row r0-1
			best := int32(0)
			for lo := 0; lo < w; lo += stripW {
				hi := lo + stripW
				if hi > w {
					hi = w
				}
				if p > 0 && r0 > 0 {
					sg, ok := <-boundaries[p-1]
					if !ok || sg.lo != lo || sg.hi != hi {
						panic("native: boundary strip out of order")
					}
					copy(ghost[lo:hi], sg.cells)
				}
				if hv := Strip(a, b, r0, lo, hi, ghost, rows, work); hv > best {
					best = hv
				}
				cells.Add(int64(nRows * (hi - lo)))
				if p < places-1 {
					out := make([]Cell, hi-lo)
					copy(out, rows[nRows-1][lo:hi])
					boundaries[p] <- strip{lo: lo, hi: hi, cells: out}
				}
			}
			close(boundaries[p])
			results[p] = best
		}(p)
	}
	wg.Wait()
	res := Result{Cells: cells.Load()}
	for _, v := range results {
		if v > res.BestH {
			res.BestH = v
		}
	}
	return res, nil
}

// Strip is RunStrip's loop over one box: it computes global rows r0 …
// r0+len(rows)-1, columns [lo, hi), of the matrix of a and b into rows (row k
// is global row r0+k, full width), reading global row r0-1 from ghost and
// column lo-1 from rows, and returns the largest H it computed.
func Strip(a, b string, r0, lo, hi int, ghost []Cell, rows [][]Cell, work int) (best int32) {
	sc := DefaultScoring()
	for li, row := range rows {
		gi := r0 + li
		prev := ghost
		if li > 0 {
			prev = rows[li-1]
		}
		for j := lo; j < hi; j++ {
			if work > 0 {
				workSink.Store(workload.Spin(work))
			}
			if gi == 0 || j == 0 {
				row[j] = Cell{H: 0, E: negInf, F: negInf}
				continue
			}
			left := row[j-1]
			top := prev[j]
			diag := prev[j-1]
			e := max2(left.H+sc.GapOpen, left.E+sc.GapExtend)
			f := max2(top.H+sc.GapOpen, top.F+sc.GapExtend)
			s := sc.Mismatch
			if a[gi-1] == b[j-1] {
				s = sc.Match
			}
			hv := max2(0, max2(diag.H+s, max2(e, f)))
			row[j] = Cell{H: hv, E: e, F: f}
			if hv > best {
				best = hv
			}
		}
	}
	return best
}

// RunVertex executes SWLAG cell by cell with `threads` workers per place,
// tracking readiness with per-row progress counters — hand-specialized
// code at the framework's scheduling granularity.
func RunVertex(a, b string, places, threads, work int) (Result, error) {
	if places < 1 || threads < 1 {
		return Result{}, fmt.Errorf("native: places = %d threads = %d", places, threads)
	}
	h := len(a) + 1
	w := len(b) + 1
	sc := DefaultScoring()
	rows := make([][]Cell, h)
	for i := range rows {
		rows[i] = make([]Cell, w)
	}
	// progress[i] = number of finished cells at the start of row i.
	progress := make([]atomic.Int32, h)
	var best atomic.Int32
	var cells atomic.Int64

	starts := blockStarts(h, places)
	var wg sync.WaitGroup
	for p := 0; p < places; p++ {
		r0, r1 := starts[p], starts[p+1]
		// Rows are dealt to this place's workers round-robin; each worker
		// walks its rows left to right, spinning briefly on the producer
		// row's progress counter (the hand-rolled wavefront).
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func(r0, r1, t int) {
				defer wg.Done()
				localBest := int32(0)
				for gi := r0 + t; gi < r1; gi += threads {
					row := rows[gi]
					for j := 0; j < w; j++ {
						if work > 0 {
							workSink.Store(workload.Spin(work))
						}
						if gi > 0 {
							for progress[gi-1].Load() < int32(j+1) {
								runtime.Gosched()
							}
						}
						if gi == 0 || j == 0 {
							row[j] = Cell{H: 0, E: negInf, F: negInf}
						} else {
							left := row[j-1]
							top := rows[gi-1][j]
							diag := rows[gi-1][j-1]
							e := max2(left.H+sc.GapOpen, left.E+sc.GapExtend)
							f := max2(top.H+sc.GapOpen, top.F+sc.GapExtend)
							s := sc.Mismatch
							if a[gi-1] == b[j-1] {
								s = sc.Match
							}
							hv := max2(0, max2(diag.H+s, max2(e, f)))
							row[j] = Cell{H: hv, E: e, F: f}
							if hv > localBest {
								localBest = hv
							}
						}
						progress[gi].Store(int32(j + 1))
					}
					cells.Add(int64(w))
				}
				for {
					cur := best.Load()
					if localBest <= cur || best.CompareAndSwap(cur, localBest) {
						break
					}
				}
			}(r0, r1, t)
		}
	}
	wg.Wait()
	return Result{BestH: best.Load(), Cells: cells.Load()}, nil
}

func max2(x, y int32) int32 {
	if x > y {
		return x
	}
	return y
}
