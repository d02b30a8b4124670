package cli

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dpx10/dpx10/internal/metrics"
)

// TestRunLocalMetricsDump drives a run with -metrics and checks the text
// dump: one block per place, the aggregate, and internally consistent
// transport totals (out == in cluster-wide on a fault-free run).
func TestRunLocalMetricsDump(t *testing.T) {
	p := smallParams("swlag")
	p.Metrics = true
	var out bytes.Buffer
	if err := RunLocal(p, &out); err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"metrics [place 0]", "metrics [place 1]", "metrics [place 2]",
		"metrics [total]",
		metrics.SchedTilesExecuted, metrics.TransportMsgsOut, metrics.VCacheHits,
		metrics.RecoveryPauseNs,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, got)
		}
	}
	if !strings.Contains(got, "verified against serial reference: OK") {
		t.Fatalf("metrics dump must not displace the run summary:\n%s", got)
	}
}

// TestRunLocalMetricsJSON checks the -metrics-json dump parses and
// carries every place plus the -1 aggregate.
func TestRunLocalMetricsJSON(t *testing.T) {
	p := smallParams("lcs")
	p.MetricsJSON = true
	var out bytes.Buffer
	if err := RunLocal(p, &out); err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	got := out.String()
	start := strings.IndexByte(got, '[')
	if start < 0 {
		t.Fatalf("no JSON array in output:\n%s", got)
	}
	var snaps []struct {
		Place    int              `json:"place"`
		Counters map[string]int64 `json:"counters"`
	}
	dec := json.NewDecoder(strings.NewReader(got[start:]))
	if err := dec.Decode(&snaps); err != nil {
		t.Fatalf("decoding JSON dump: %v\n%s", err, got)
	}
	places := map[int]bool{}
	for _, s := range snaps {
		places[s.Place] = true
	}
	for _, want := range []int{0, 1, 2, -1} {
		if !places[want] {
			t.Fatalf("JSON dump missing place %d: have %v", want, places)
		}
	}
}

// TestRunLocalTrace checks the -trace report, read from the registry: the
// imbalance, then cells, busy time, utilization and fetch-wait per place.
func TestRunLocalTrace(t *testing.T) {
	p := smallParams("swlag")
	p.Trace = true
	var out bytes.Buffer
	if err := RunLocal(p, &out); err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	got := out.String()
	for _, want := range []string{"per-place utilization (imbalance ", "place 0:", "place 2:", " cells, busy ", "util ", "fetch-wait "} {
		if !strings.Contains(got, want) {
			t.Fatalf("-trace report missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "metrics [place 0]") {
		t.Fatalf("-trace alone must not dump the registry:\n%s", got)
	}
}

// TestPrintUtilization checks the -trace report's figures from hand-set
// counters: cells, busy time, busy over elapsed × threads, fetch-wait, and
// a zero utilization, not NaN, when no time elapsed.
func TestPrintUtilization(t *testing.T) {
	snaps := []*metrics.Snapshot{metrics.New(0).Snapshot(), metrics.New(1).Snapshot()}
	snaps[0].Counters[metrics.SchedCellsExecuted] = 2
	snaps[0].Counters[metrics.SchedBusyNs] = int64(40 * time.Millisecond)
	snaps[0].Counters[metrics.EngineFetchWaitNs] = int64(5 * time.Millisecond)
	snaps[1].Counters[metrics.SchedCellsExecuted] = 1
	snaps[1].Counters[metrics.SchedBusyNs] = int64(20 * time.Millisecond)

	var out bytes.Buffer
	// 40ms busy over 100ms elapsed on 2 threads = 20%.
	printUtilization(&out, snaps, 100*time.Millisecond, 2)
	got := out.String()
	for _, want := range []string{
		"per-place utilization (imbalance 1.33):",
		"place 0:      2 cells, busy   40.000ms, util  20.0%, fetch-wait    5.000ms",
		"place 1:      1 cells, busy   20.000ms, util  10.0%, fetch-wait    0.000ms",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("report missing %q:\n%s", want, got)
		}
	}

	out.Reset()
	printUtilization(&out, snaps, 0, 2)
	if got := out.String(); !strings.Contains(got, "util   0.0%") || strings.Contains(got, "NaN") || strings.Contains(got, "Inf") {
		t.Fatalf("zero-elapsed report:\n%s", got)
	}
}

// TestRunLocalTraceOut checks -trace-out writes loadable Chrome
// trace-event JSON with tile spans from every place.
func TestRunLocalTraceOut(t *testing.T) {
	p := smallParams("mtp")
	p.TraceOut = filepath.Join(t.TempDir(), "spans.json")
	var out bytes.Buffer
	if err := RunLocal(p, &out); err != nil {
		t.Fatalf("RunLocal: %v", err)
	}
	raw, err := os.ReadFile(p.TraceOut)
	if err != nil {
		t.Fatalf("reading trace file: %v", err)
	}
	// Chrome's JSON-array trace format: a bare array of complete events.
	var events []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Pid  int     `json:"pid"`
		Dur  float64 `json:"dur"`
	}
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace file has no events")
	}
	pids := map[int]bool{}
	tiles := 0
	for _, ev := range events {
		if ev.Ph != "X" {
			t.Fatalf("unexpected event phase %q (want complete events)", ev.Ph)
		}
		pids[ev.Pid] = true
		if ev.Name == "tile" {
			tiles++
		}
	}
	if tiles == 0 {
		t.Fatal("no tile spans recorded")
	}
	for pl := 0; pl < p.Places; pl++ {
		if !pids[pl] {
			t.Fatalf("no spans from place %d: pids %v", pl, pids)
		}
	}
	if !strings.Contains(out.String(), "wrote") {
		t.Fatalf("missing trace summary line:\n%s", out.String())
	}
}

// TestRunLocalMetricsAddr scrapes the live Prometheus endpoint during a
// run large enough to still be in flight at scrape time, then checks the
// endpoint dies with the run. The server binds port 0 and the test reads the
// bound address from the serve line, so no port is reserved and released.
func TestRunLocalMetricsAddr(t *testing.T) {
	p := smallParams("swlag")
	p.M, p.N = 600, 600
	p.Verify = false
	p.MetricsAddr = "127.0.0.1:0"

	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- RunLocal(p, &out) }()
	client := &http.Client{Timeout: time.Second}
	const serving = "serving Prometheus metrics on "
	var url, body string
	for deadline := time.Now().Add(30 * time.Second); body == ""; time.Sleep(time.Millisecond) {
		select {
		case err := <-done:
			t.Fatalf("run ended (err %v) before a scrape landed:\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no scrape landed within 30s:\n%s", out.String())
		}
		if url == "" {
			if _, rest, ok := strings.Cut(out.String(), serving); ok {
				url, _, _ = strings.Cut(rest, "\n")
			}
			continue
		}
		if resp, err := client.Get(url); err == nil {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			body = string(raw)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunLocal: %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("run did not end within a minute")
	}
	for _, want := range []string{"dpx10_sched_tiles_executed", `place="0"`, `place="all"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("scrape missing %q:\n%s", want, body)
		}
	}
	if resp, err := client.Get(url); err == nil {
		resp.Body.Close()
		t.Fatalf("%s still answers after the run", url)
	}
}
