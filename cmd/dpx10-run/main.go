// Command dpx10-run executes one of the built-in DP applications on the
// single-process DPX10 runtime.
//
// Examples:
//
//	dpx10-run -app swlag -m 400 -n 400 -places 8 -threads 4 -verify
//	dpx10-run -app knapsack -items 80 -capacity 600 -places 6
//	dpx10-run -app mtp -m 300 -n 300 -kill 2       # fault injection demo
//	dpx10-run -app lps -m 250 -strategy mincomm -cache 64
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/dpx10/dpx10/internal/cli"
)

func main() {
	var p cli.Params
	flag.StringVar(&p.App, "app", "swlag", "application: "+strings.Join(cli.AppNames(), " | "))
	flag.IntVar(&p.M, "m", 200, "first dimension (sequence/grid size)")
	flag.IntVar(&p.N, "n", 0, "second dimension (defaults to -m)")
	flag.IntVar(&p.Items, "items", 50, "knapsack: number of items")
	flag.IntVar(&p.Capacity, "capacity", 400, "knapsack: capacity")
	flag.Int64Var(&p.Seed, "seed", 1, "workload seed")
	flag.StringVar(&p.FileA, "file-a", "", "FASTA/plain-text file for the first sequence (alignment apps)")
	flag.StringVar(&p.FileB, "file-b", "", "FASTA/plain-text file for the second sequence")
	flag.IntVar(&p.Places, "places", 4, "number of places (X10_NPLACES)")
	flag.IntVar(&p.Threads, "threads", 2, "worker threads per place (X10_NTHREADS)")
	flag.IntVar(&p.Jobs, "jobs", 1, "concurrent identical jobs submitted to one persistent cluster")
	flag.StringVar(&p.Strategy, "strategy", "local", "scheduling: local | random | mincomm | steal")
	flag.StringVar(&p.Dist, "dist", "blockrow", "distribution: blockrow | blockcol | cyclicrow | cycliccol")
	flag.IntVar(&p.Cache, "cache", 0, "remote-vertex cache entries per place (0 = off)")
	flag.IntVar(&p.TileSize, "tile", 0, "cells per tile, about; the engine picks the rectangle (0 = auto, 1 = per-vertex)")
	flag.BoolVar(&p.RestoreRemote, "restore-remote", false, "recovery copies moved results instead of recomputing")
	flag.BoolVar(&p.Verify, "verify", false, "check the result against the serial reference")
	flag.IntVar(&p.Kill, "kill", -1, "kill this place at ~50% progress (fault-tolerance demo)")
	flag.BoolVar(&p.Trace, "trace", false, "print per-place cells, busy time, utilization and fetch-wait after the run (turns the metrics registry on)")
	flag.Int64Var(&p.ChaosSeed, "chaos-seed", 1, "seed of the fault-injection schedule (reproducible)")
	flag.Float64Var(&p.ChaosDrop, "chaos-drop", 0, "chaos: per-message drop probability (0..1)")
	flag.Float64Var(&p.ChaosDup, "chaos-dup", 0, "chaos: per-message duplication probability (0..1)")
	flag.Float64Var(&p.ChaosDelay, "chaos-delay", 0, "chaos: per-message delay probability (0..1, 50us-1ms window)")
	flag.IntVar(&p.HeartbeatMs, "hb-ms", 0, "heartbeat probe interval, milliseconds (0 = no failure detector)")
	flag.IntVar(&p.HeartbeatMiss, "hb-miss", 5, "consecutive heartbeat misses before declaring a place dead")
	flag.BoolVar(&p.Metrics, "metrics", false, "print per-place metrics snapshots (plus aggregate) after the run")
	flag.BoolVar(&p.MetricsJSON, "metrics-json", false, "print the metrics dump as JSON (implies -metrics)")
	flag.StringVar(&p.MetricsAddr, "metrics-addr", "", "serve live Prometheus metrics at http://<addr>/metrics during the run")
	flag.StringVar(&p.TraceOut, "trace-out", "", "write Chrome trace-event spans (epochs, tiles, steals, recovery) to this file")
	var prof cli.ProfileParams
	flag.StringVar(&prof.CPU, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&prof.Mem, "memprofile", "", "write an allocation profile to this file")
	flag.StringVar(&prof.Mutex, "mutexprofile", "", "write a mutex-contention profile to this file")
	flag.Parse()

	stopProf, err := cli.StartProfiles(prof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpx10-run:", err)
		os.Exit(1)
	}
	runErr := cli.RunLocal(p, os.Stdout)
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "dpx10-run:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "dpx10-run:", runErr)
		os.Exit(1)
	}
}
