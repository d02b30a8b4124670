package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// procStart anchors the benchmark's own monotonic clock. Every duration
// the benchmark reports is a difference of nanos() readings taken around
// public calls; the engine's own Elapsed() figures are never used.
var procStart = time.Now()

func nanos() int64 { return int64(time.Since(procStart)) }

// cpuNanos is the process's user+system CPU time so far.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("benchmark: getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// meter accumulates wall time, CPU time and allocation over one rep. It
// can be stopped and restarted so verification reads that need the
// deployment still open (TCP nodes) stay outside the measured window.
type meter struct {
	wall, cpu      int64
	bytes, mallocs uint64

	w0, c0 int64
	b0, m0 uint64
}

func (m *meter) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.b0, m.m0 = ms.TotalAlloc, ms.Mallocs
	m.c0 = cpuNanos()
	m.w0 = nanos()
}

func (m *meter) stop() {
	w, c := nanos(), cpuNanos()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.wall += w - m.w0
	m.cpu += c - m.c0
	m.bytes += ms.TotalAlloc - m.b0
	m.mallocs += ms.Mallocs - m.m0
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q=0.5 is the median, 0.25/0.75 the quartiles).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// nearestRank returns the smallest sample with at least q of the samples
// at or below it — the conventional p99 of a latency list.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// dist3 is a metric's reported shape: median with quartiles and count.
type dist3 struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func summarize(unit string, xs []float64) dist3 {
	return dist3{Value: median(xs), Unit: unit, Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

// single reports a metric that is one number by definition (a percentile
// over all samples, a count): quartiles collapse onto the value.
func single(unit string, v float64, n int) dist3 {
	return dist3{Value: v, Unit: unit, Q1: v, Q3: v, N: n}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
