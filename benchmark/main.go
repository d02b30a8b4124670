// Command benchmark is the repository's end-to-end benchmark: five
// whole-run workloads driven only through public functions, timed with
// the benchmark's own clock, verified on every rep. See README.md and
// /BENCHMARK.json.
//
//	go -C benchmark run . --workload swlag-local --seed 1 --seconds 10 --trace 0
//
// prints one JSON object as the last line of standard output. Without
// --workload every workload is run, untraced then traced, and one JSON
// document with every metric is printed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	reps     int
	trace    int
	quick    bool
	repeat   bool
	record   bool
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); default all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 15, "measurement budget per run, in seconds")
	flag.IntVar(&o.reps, "reps", 0, "exactly this many timed reps instead of the -seconds budget")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics (untraced), 1: per-layer metrics (traced); default both")
	flag.BoolVar(&o.quick, "quick", false, "2 reps on small inputs: a smoke test, not a measurement")
	flag.BoolVar(&o.repeat, "repeat", false, "A/A test: two sets of untraced runs in alternation, their medians compared with the bounds")
	flag.BoolVar(&o.record, "record", false, "append this run's end-to-end medians to history.jsonl")
	flag.StringVar(&o.out, "out", "out", "directory for trace-<workload>.json")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := realMain(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// result is one run's output line. With --workload this is exactly what
// the last line of standard output holds.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]dist3 `json:"metrics"`
}

// line is the result as the one-workload, one-pass invocation prints it:
// each metric as exactly {value, unit}; the quartiles and sample counts
// stay in the all-workloads document.
func (r result) line() any {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for name, d := range r.Metrics {
		metrics[name] = metric{Value: d.Value, Unit: d.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

func (o options) cfg() (runCfg, sizes) {
	cfg := runCfg{seconds: o.seconds, reps: o.reps, warmups: 3, rungs: 3, probeDiv: 1}
	sz := fullSizes
	if o.quick {
		sz = quickSizes
		cfg.warmups, cfg.rungs, cfg.probeDiv = 1, 1, 64
		if cfg.reps == 0 {
			cfg.reps = 2
		}
	}
	return cfg, sz
}

// runWorkload generates the workload and runs it untraced or traced.
func runWorkload(name string, traced bool, o options, errw io.Writer) (result, error) {
	cfg, sz := o.cfg()
	w, err := newWorkload(name, o.seed, sz)
	if err != nil {
		return result{}, err
	}
	res := result{Metrics: map[string]dist3{}}
	if !traced {
		ps, err := runUntraced(w, cfg)
		if err != nil {
			return result{}, err
		}
		res.Attempted, res.Failed = ps.attempted, ps.failed
		res.Metrics = endToEndMetrics(ps)
		if ps.err != nil {
			fmt.Fprintf(errw, "benchmark: %s: first failure: %v\n", name, ps.err)
		}
	} else {
		run, err := runTraced(w, cfg)
		if err != nil {
			return result{}, err
		}
		layers, lerr := perLayerMetrics(w, run)
		for _, ps := range []*passStats{run.plain, run.metered, run.traced} {
			res.Attempted += ps.attempted
			res.Failed += ps.failed
			if ps.err != nil {
				fmt.Fprintf(errw, "benchmark: %s: first failure: %v\n", name, ps.err)
			}
		}
		if lerr != nil {
			res.Failed++
			fmt.Fprintf(errw, "benchmark: %s: %v\n", name, lerr)
		}
		for k, v := range layers {
			res.Metrics[k] = single(unitOf(perLayer, k), v, len(run.traced.reps))
		}
		if err := writeTrace(o.out, w, run, layers); err != nil {
			return result{}, err
		}
		printLayerSummary(errw, name, run, layers)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func realMain(o options, stdout, errw io.Writer) error {
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("needs at least 2 CPUs (2 places x 1 thread must not share a core), have %d", runtime.NumCPU())
	}
	if o.repeat {
		return repeatability(o, stdout, errw)
	}
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	rows := map[string]map[string]result{}
	failed := 0
	var last result
	for _, name := range names {
		rows[name] = map[string]result{}
		for _, traced := range []bool{false, true} {
			if o.trace >= 0 && traced != (o.trace == 1) {
				continue
			}
			res, err := runWorkload(name, traced, o, errw)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			failed += res.Failed
			kind := "end_to_end"
			if traced {
				kind = "per_layer"
			}
			rows[name][kind] = res
			last = res
		}
	}
	if o.record {
		if err := appendHistory(historyFile, o, rows); err != nil {
			return err
		}
	}
	// One workload, one pass: the contract's single result line. Anything
	// else: one document holding every row.
	if o.workload != "" && o.trace >= 0 {
		if err := json.NewEncoder(stdout).Encode(last.line()); err != nil {
			return err
		}
	} else {
		doc := map[string]any{"env": environment(o), "workloads": rows}
		if err := json.NewEncoder(stdout).Encode(doc); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d reps failed or did not verify", failed)
	}
	return nil
}

// environment records what a reader needs to compare two runs.
func environment(o options) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commitHash(),
		"seed":       o.seed,
		"seconds":    o.seconds,
		"reps":       o.reps,
		"quick":      o.quick,
	}
}

// commitHash asks git for HEAD; a checkout that is not a repository (the
// driver's) reports "unknown".
func commitHash() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// historyFile is relative to the benchmark's directory, where run.sh and
// `go -C benchmark run .` both leave the process.
const historyFile = "history.jsonl"

// appendHistory appends one line per invocation: append, never overwrite,
// so the trajectory of the end-to-end medians stays in the repository.
func appendHistory(path string, o options, rows map[string]map[string]result) error {
	medians := map[string]map[string]float64{}
	for name, kinds := range rows {
		e2e, ok := kinds["end_to_end"]
		if !ok {
			continue
		}
		medians[name] = map[string]float64{}
		for metric, d := range e2e.Metrics {
			medians[name][metric] = d.Value
		}
	}
	line, err := json.Marshal(map[string]any{
		"commit": commitHash(), "date": time.Now().UTC().Format(time.RFC3339),
		"nproc": runtime.NumCPU(), "seed": o.seed, "seconds": o.seconds, "workloads": medians,
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// repeatPairs is how many runs each set of -repeat gets per workload.
const repeatPairs = 3

// repeatability is an A/A test under the protocol a later PR's claim is
// judged by: per workload, two sets of untraced runs of the same code,
// taken in alternation (AB, BA, AB) so that the host's minutes-long slow
// phases hit both sets alike. It fails if the sets' medians differ by more
// than a metric's bound.
func repeatability(o options, stdout, errw io.Writer) error {
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	tw := tabwriter.NewWriter(stdout, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tset 1\tset 2\tdiff\tbound\t")
	over := 0
	for _, name := range names {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for p := 0; p < repeatPairs; p++ {
			for k := 0; k < 2; k++ {
				s := (p + k) % 2
				res, err := runWorkload(name, false, o, errw)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				if !res.Correct {
					return fmt.Errorf("%s: %d of %d reps failed", name, res.Failed, res.Attempted)
				}
				for metric, d := range res.Metrics {
					sets[s][metric] = append(sets[s][metric], d.Value)
				}
			}
		}
		for _, def := range endToEnd {
			a, b := median(sets[0][def.name]), median(sets[1][def.name])
			diff := math.Abs(ratio(b-a, a))
			mark := ""
			if diff > def.bound {
				mark = " OVER"
				over++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.1f%%\t%.0f%%%s\t\n", name, def.name, a, b, 100*diff, 100*def.bound, mark)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if over > 0 {
		return fmt.Errorf("%d end-to-end medians differ between the two sets by more than their bound", over)
	}
	return nil
}

// printLayerSummary prints the ladder and the span table as aligned text,
// after the JSON, on standard error so the result stays the last line of
// standard output.
func printLayerSummary(errw io.Writer, name string, run *tracedRun, layers map[string]float64) {
	tw := tabwriter.NewWriter(errw, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "\n%s: cost ladder (ns/cell)\n", name)
	fmt.Fprintf(tw, "  native strip\t%.1f\n", layers["native.strip_ns_per_cell"])
	fmt.Fprintf(tw, "  native per-vertex\t%.1f\n", layers["native.vertex_ns_per_cell"])
	for _, k := range []string{"core.ladder_1p1t_ns_per_cell", "core.ladder_1p1t_tile1_ns_per_cell", "core.ladder_reliable_ns_per_cell", "core.ladder_tcp_direct_ns_per_cell"} {
		fmt.Fprintf(tw, "  %s\t%.1f\n", k, layers[k])
	}
	fmt.Fprintf(tw, "  workload as configured\t%.1f\n", median(run.plain.nsPerCell()))
	fmt.Fprintf(tw, "  + metrics\t%.1f\n", median(run.metered.nsPerCell()))
	fmt.Fprintf(tw, "  + full trace\t%.1f\n", median(run.traced.nsPerCell()))
	cells := float64(run.traced.allCells)
	fmt.Fprintf(tw, "%s: traced CPU attribution (ns/cell, sums to %.1f)\n", name, float64(run.traced.allCPU)/cells)
	for id := spanID(0); id < numSpans; id++ {
		c, ns := run.tr.total(id)
		fmt.Fprintf(tw, "  %s\t%.1f\t(%d calls)\n", spanNames[id], float64(ns)/cells, c)
	}
	fmt.Fprintf(tw, "  core (self)\t%.1f\n", layers["core.self_cpu_ns_per_cell"])
	tw.Flush()
}
