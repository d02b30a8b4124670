package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/dpx10/dpx10/internal/metrics"
)

func names(defs []metricDef) map[string]metricDef {
	out := map[string]metricDef{}
	for _, d := range defs {
		out[d.name] = d
	}
	return out
}

// TestQuickEmitsTheCatalogue is the package's smoke test: every workload,
// untraced and traced, on -quick sizes. Each pass must verify, emit
// exactly the catalogue's names for its kind, and leave a trace file whose
// spans sum back to the traced CPU time.
func TestQuickEmitsTheCatalogue(t *testing.T) {
	out := t.TempDir()
	var stdout bytes.Buffer
	if err := realMain(options{seed: 1, trace: -1, quick: true, out: out}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads map[string]map[string]result `json:"workloads"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("output is not one JSON document: %v", err)
	}
	for _, name := range workloadNames {
		for kind, defs := range map[string][]metricDef{"end_to_end": endToEnd, "per_layer": perLayer} {
			res, ok := doc.Workloads[name][kind]
			if !ok {
				t.Errorf("%s: no %s row", name, kind)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s/%s: correct=%v attempted=%d failed=%d", name, kind, res.Correct, res.Attempted, res.Failed)
			}
			want := names(defs)
			for m, v := range res.Metrics {
				if _, ok := want[m]; !ok {
					t.Errorf("%s/%s: emitted %q, which the catalogue does not declare", name, kind, m)
				} else if v.Unit != want[m].unit {
					t.Errorf("%s/%s: %s has unit %q, catalogue says %q", name, kind, m, v.Unit, want[m].unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
					t.Errorf("%s/%s: %s = %v", name, kind, m, v.Value)
				}
				if kind == "end_to_end" && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", name, m)
				}
			}
			for m := range want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("%s/%s: catalogue declares %q, never emitted", name, kind, m)
				}
			}
		}
		checkTraceFile(t, filepath.Join(out, "trace-"+name+".json"))
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var doc struct {
		Spans []struct {
			Name, Parent string
			Total        int64 `json:"total_ns"`
			Self         int64 `json:"self_ns"`
		}
	}
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.Spans) == 0 {
		t.Errorf("%s: %v (%d spans)", path, err, len(doc.Spans))
		return
	}
	root, sum := doc.Spans[0], int64(0)
	for _, s := range doc.Spans[1:] {
		if s.Parent != root.Name {
			t.Errorf("%s: span %s has parent %q", path, s.Name, s.Parent)
		}
		sum += s.Total
	}
	if root.Self < 0 || root.Self+sum != root.Total {
		t.Errorf("%s: parts do not sum: self %d + children %d != total %d", path, root.Self, sum, root.Total)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps /BENCHMARK.json and the program
// in step: same workloads, same metric names, units, directions, bounds.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name, Unit, Better, Why string
		Bound                   *float64
	}
	var decl struct {
		Command   []string
		Paths     []string
		Workloads []row
		EndToEnd  []row `json:"end_to_end"`
		PerLayer  []row `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(decl.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(decl.Workloads), len(workloadNames))
	}
	for k, w := range decl.Workloads {
		if k < len(workloadNames) && w.Name != workloadNames[k] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", k, w.Name, workloadNames[k])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, rows []row, defs []metricDef) {
		want := names(defs)
		seen := map[string]bool{}
		for _, r := range rows {
			if !nameRe.MatchString(r.Name) {
				t.Errorf("%s: name %q has characters outside [A-Za-z0-9_.-]", kind, r.Name)
			}
			if seen[r.Name] {
				t.Errorf("%s: %q declared twice", kind, r.Name)
			}
			seen[r.Name] = true
			d, ok := want[r.Name]
			if !ok {
				t.Errorf("%s: BENCHMARK.json declares %q, the program never emits it", kind, r.Name)
				continue
			}
			if r.Unit != d.unit || r.Better != d.better {
				t.Errorf("%s: %s is (%s, %s) in BENCHMARK.json, (%s, %s) in the catalogue", kind, r.Name, r.Unit, r.Better, d.unit, d.better)
			}
			if kind == "end_to_end" && (r.Bound == nil || *r.Bound != d.bound) {
				t.Errorf("%s: bound of %s differs from the catalogue's %v", kind, r.Name, d.bound)
			}
		}
		for n := range want {
			if !seen[n] {
				t.Errorf("%s: the program emits %q, BENCHMARK.json does not declare it", kind, n)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
	if len(decl.Paths) != 1 || decl.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", decl.Paths)
	}
}

// TestWrongAppCountsAsFailed feeds every workload an App wrapper that
// corrupts one sampled cell and expects the rep to be counted failed.
func TestWrongAppCountsAsFailed(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, 1, quickSizes)
		if err != nil {
			t.Fatal(err)
		}
		r := w.corrupted()
		var ps passStats
		ps.record(&r)
		if ps.failed == 0 || ps.err == nil {
			t.Errorf("%s: a wrong result was not counted as failed (%d of %d)", name, ps.failed, ps.attempted)
		}
		good, err := w.open(runOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if r := good.rep(true); r.failures != 0 {
			t.Errorf("%s: an honest rep failed: %v", name, r.err)
		}
		good.finish()
	}
}

// TestTraceWrapperKeepsThePath checks that the traced pass measures the
// same execution as the untraced one: the pattern wrapper's memo key
// holds no address (so the engine's process-global tile-quotient memo
// still applies), the tile layout is unchanged, and the fault workload
// recomputes exactly the same cells.
func TestTraceWrapperKeepsThePath(t *testing.T) {
	for _, name := range []string{"swlag-recover", "kp-tcp-fetch"} {
		w, err := newWorkload(name, 1, quickSizes)
		if err != nil {
			t.Fatal(err)
		}
		run, err := runTraced(w, runCfg{reps: 2, warmups: 1, rungs: 1, probeDiv: 64})
		if err != nil {
			t.Fatal(err)
		}
		tiles := func(ps *passStats) float64 {
			return float64(ps.snap.Counters[metrics.SchedTilesExecuted]) / float64(ps.allCells)
		}
		// A fault re-runs whichever tiles were half done when the pause
		// landed, so only the fault-free workload has an exact tile count.
		if a, b := tiles(run.metered), tiles(run.traced); name != "swlag-recover" && (a != b || a == 0) {
			t.Errorf("%s: tiles per cell %v with metrics only, %v traced", name, a, b)
		}
		recomputed := map[int64]bool{}
		for _, ps := range []*passStats{run.plain, run.metered, run.traced} {
			if ps.failed != 0 {
				t.Errorf("%s: %d failures: %v", name, ps.failed, ps.err)
			}
			for k := range ps.reps {
				recomputed[ps.reps[k].stats.ComputedCells-ps.reps[k].cells] = true
			}
		}
		if len(recomputed) != 1 {
			t.Errorf("%s: recomputed cells differ between reps or passes: %v", name, recomputed)
		}
		if name == "swlag-recover" && recomputed[0] {
			t.Errorf("%s: the fault recomputed nothing", name)
		}
	}
	p := swlagProblem(8, 1)
	key := fmt.Sprintf("%T|%v", wrapPattern(p.pat, &tracer{}), wrapPattern(p.pat, &tracer{}))
	if strings.Contains(key, "0x") {
		t.Errorf("traced pattern prints an address, which evicts it from the engine's global memo: %s", key)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if median(xs) != 3 || quantile(xs, 0.25) != 2 || quantile(xs, 0.75) != 4 {
		t.Errorf("quartiles of 1..5: %v %v %v", quantile(xs, 0.25), median(xs), quantile(xs, 0.75))
	}
	if nearestRank(xs, 0.99) != 5 || nearestRank(xs, 0.5) != 3 {
		t.Errorf("nearest rank: p99 %v p50 %v", nearestRank(xs, 0.99), nearestRank(xs, 0.5))
	}
}

func TestRecordAppendsOneLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	rows := map[string]map[string]result{"swlag-local": {"end_to_end": {Metrics: map[string]dist3{"ns_per_cell": {Value: 170}}}}}
	for k := 0; k < 2; k++ {
		if err := appendHistory(path, options{seed: 1}, rows); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines after two records", len(lines))
	}
	var line struct {
		Workloads map[string]map[string]float64
	}
	if err := json.Unmarshal([]byte(lines[1]), &line); err != nil || line.Workloads["swlag-local"]["ns_per_cell"] != 170 {
		t.Errorf("history line %q: %v", lines[1], err)
	}
}
