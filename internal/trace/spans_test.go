package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanLogRecordsAndSorts(t *testing.T) {
	l := NewSpanLog(10)
	later := time.Now()
	l.Add("tile", 1, 2, later)
	l.Add("epoch 0", 0, LaneCoordinator, l.t0)
	spans := l.Spans()
	if len(spans) != 2 {
		t.Fatalf("len = %d, want 2", len(spans))
	}
	if spans[0].Name != "epoch 0" {
		t.Fatalf("spans not sorted by start: %+v", spans)
	}
	if spans[1].Place != 1 || spans[1].Lane != 2 {
		t.Fatalf("span lanes wrong: %+v", spans[1])
	}
}

func TestSpanLogBounded(t *testing.T) {
	l := NewSpanLog(3)
	at := time.Now()
	for i := 0; i < 5; i++ {
		l.Add("s", 0, 0, at)
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	if l.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", l.Dropped())
	}
}

func TestSpanLogNilNoop(t *testing.T) {
	var l *SpanLog
	l.Add("x", 0, 0, time.Now())
	if l.Len() != 0 || l.Dropped() != 0 || l.Spans() != nil {
		t.Fatal("nil SpanLog not inert")
	}
}

func TestSpanLogConcurrent(t *testing.T) {
	l := NewSpanLog(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Add("tile", w, i%4, time.Now())
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != 1600 {
		t.Fatalf("Len = %d, want 1600", l.Len())
	}
}

// TestSpanChromeTrace checks the output is valid JSON in the trace-event
// array shape with the fields Perfetto needs.
func TestSpanChromeTrace(t *testing.T) {
	l := NewSpanLog(10)
	start := time.Now()
	time.Sleep(time.Millisecond)
	l.Add("recovery:pause", 0, LaneCoordinator, start)
	l.Add(`tile "x"`, 1, 3, start) // name quoting must survive
	var sb strings.Builder
	if err := l.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, sb.String())
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	for _, ev := range events {
		for _, field := range []string{"name", "ph", "pid", "tid", "ts", "dur"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event missing %q: %v", field, ev)
			}
		}
		if ev["ph"] != "X" {
			t.Fatalf("ph = %v, want X", ev["ph"])
		}
	}
}
