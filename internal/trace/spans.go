// Package trace holds the span log behind -trace-out: epoch, tile, steal and
// recovery spans, exported as Chrome trace events.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one named interval on a (place, lane) timeline: a tile
// execution, a steal round-trip, a recovery phase or a whole epoch.
type Span struct {
	Name  string
	Place int // Chrome trace pid
	Lane  int // Chrome trace tid: worker index, or a reserved lane
	Start time.Duration
	Dur   time.Duration
}

// Reserved lanes for spans that do not belong to a worker goroutine.
const (
	LaneCoordinator = 100 // epoch + recovery-phase spans
	LaneHandler     = 101 // spans recorded from message handlers
)

// SpanLog is a bounded, concurrency-safe collection of Spans. All
// timestamps are relative to the log's creation so traces start at zero.
// Once max spans are recorded further Adds are counted but dropped —
// tracing a huge run degrades, it never OOMs.
type SpanLog struct {
	t0  time.Time
	max int

	mu      sync.Mutex
	spans   []Span
	dropped int64
}

// DefaultMaxSpans bounds a span log when the caller does not choose:
// enough for every tile of a mid-size run plus recovery activity.
const DefaultMaxSpans = 1 << 20

// NewSpanLog creates a log keeping at most max spans (<=0 selects
// DefaultMaxSpans).
func NewSpanLog(max int) *SpanLog {
	if max <= 0 {
		max = DefaultMaxSpans
	}
	return &SpanLog{t0: time.Now(), max: max}
}

// Add records one span that began at start and just ended. A nil log is
// a no-op, so call sites can be wired unconditionally.
func (l *SpanLog) Add(name string, place, lane int, start time.Time) {
	if l == nil {
		return
	}
	end := time.Now()
	l.mu.Lock()
	if len(l.spans) >= l.max {
		l.dropped++
	} else {
		l.spans = append(l.spans, Span{
			Name:  name,
			Place: place,
			Lane:  lane,
			Start: start.Sub(l.t0),
			Dur:   end.Sub(start),
		})
	}
	l.mu.Unlock()
}

// Len returns the number of recorded spans.
func (l *SpanLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// Dropped returns how many spans were discarded after the log filled.
func (l *SpanLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Spans returns the recorded spans sorted by start time.
func (l *SpanLog) Spans() []Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]Span, len(l.spans))
	copy(out, l.spans)
	l.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// WriteChromeTrace renders the spans in the Chrome trace-event JSON
// format (chrome://tracing, https://ui.perfetto.dev): places appear as
// processes, workers and the reserved lanes as threads.
func (l *SpanLog) WriteChromeTrace(w io.Writer) error {
	spans := l.Spans()
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for k, sp := range spans {
		sep := ","
		if k == len(spans)-1 {
			sep = ""
		}
		// ts/dur are microseconds in the trace-event format.
		_, err := fmt.Fprintf(w,
			"  {\"name\":%q,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}%s\n",
			sp.Name, sp.Place, sp.Lane,
			float64(sp.Start)/1e3, float64(sp.Dur)/1e3, sep)
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}
