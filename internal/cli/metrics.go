package cli

// This file is the observability plumbing shared by the dpx10-run,
// dpx10-worker and dpx10-bench commands: post-run metrics dumps (text or
// JSON), a live Prometheus endpoint, and Chrome trace-event span export.

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/dpx10/dpx10/internal/core"
	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/trace"
)

// MetricsKeyNamer labels Vec keys for human-readable output: transport
// vectors are keyed by wire-protocol kind, cache vectors split the vertex
// cache's counts from the push boxes' hits, and the per-job vectors are
// keyed by job id.
func MetricsKeyNamer(vec string, key uint8) string {
	switch {
	case strings.HasPrefix(vec, "transport."):
		return core.KindName(key)
	case strings.HasPrefix(vec, "vcache."):
		switch key {
		case metrics.VCacheKey:
			return "cache"
		case metrics.VCacheBoxKey:
			return "boxes"
		}
	case strings.HasPrefix(vec, "job."):
		return fmt.Sprintf("job%d", key)
	}
	return ""
}

// DumpMetrics prints the per-place snapshots followed by their aggregate
// (when there is more than one place), as aligned text or one JSON array.
func DumpMetrics(w io.Writer, snaps []*metrics.Snapshot, asJSON bool) error {
	if len(snaps) == 0 {
		return nil
	}
	all := snaps
	if len(snaps) > 1 {
		all = append(append([]*metrics.Snapshot{}, snaps...), metrics.MergeAll(snaps))
	}
	if asJSON {
		return metrics.WriteJSON(w, all, MetricsKeyNamer)
	}
	for _, s := range all {
		if err := s.WriteText(w, MetricsKeyNamer); err != nil {
			return err
		}
	}
	return nil
}

// ServeMetrics exposes fn's snapshots in the Prometheus text format at
// http://<addr>/metrics and returns a shutdown function. fn is invoked
// per scrape, so mid-run counters are visible live; it must be safe to
// call from any goroutine and may return nil before the run starts.
func ServeMetrics(addr string, fn func() []*metrics.Snapshot, w io.Writer) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cli: metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler(fn, MetricsKeyNamer))
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // closed through the shutdown func
	fmt.Fprintf(w, "serving Prometheus metrics on http://%s/metrics\n", ln.Addr())
	return func() { srv.Close() }, nil
}

// printUtilization is the -trace report: the imbalance of the per-place
// snapshots (metrics.Imbalance), then one line per place with the cells it
// computed, its busy time, its utilization — busy time over elapsed ×
// threads, 0 when no time elapsed — and the time it spent blocked in
// remote fetches.
func printUtilization(w io.Writer, snaps []*metrics.Snapshot, elapsed time.Duration, threads int) {
	fmt.Fprintf(w, "per-place utilization (imbalance %.2f):\n", metrics.Imbalance(snaps))
	for _, s := range snaps {
		busy := time.Duration(s.Counters[metrics.SchedBusyNs])
		var util float64
		if elapsed > 0 && threads > 0 {
			util = 100 * float64(busy) / (float64(elapsed) * float64(threads))
		}
		fmt.Fprintf(w, "place %d: %6d cells, busy %8.3fms, util %5.1f%%, fetch-wait %8.3fms\n",
			s.Place, s.Counters[metrics.SchedCellsExecuted], busy.Seconds()*1e3, util,
			time.Duration(s.Counters[metrics.EngineFetchWaitNs]).Seconds()*1e3)
	}
}

// WriteChromeTrace writes the span log as Chrome trace-event JSON to
// path, loadable in chrome://tracing or https://ui.perfetto.dev.
func WriteChromeTrace(path string, sl *trace.SpanLog, w io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sl.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %d spans to %s (%d dropped)\n", sl.Len(), path, sl.Dropped())
	return nil
}

// MetricsCollector accumulates run snapshots from a metrics observer:
// the latest run's per-place snapshots for live scraping, and a running
// aggregate across runs for the final dump. Safe for concurrent use.
type MetricsCollector struct {
	mu     sync.Mutex
	latest []*metrics.Snapshot
	total  *metrics.Snapshot
	runs   int
}

// Observe records one finished run's snapshots (the WithMetricsObserver
// callback).
func (c *MetricsCollector) Observe(snaps []*metrics.Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.latest = snaps
	if c.total == nil {
		c.total = metrics.MergeAll(snaps)
	} else {
		for _, s := range snaps {
			c.total.Merge(s)
		}
	}
	c.runs++
}

// Latest returns the most recently observed run's snapshots.
func (c *MetricsCollector) Latest() []*metrics.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.latest
}

// Total returns the aggregate over every observed run (nil before the
// first) and how many runs it covers.
func (c *MetricsCollector) Total() (*metrics.Snapshot, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total, c.runs
}
