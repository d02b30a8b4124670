// Command dpx10-worker runs one place of a multi-process DPX10
// deployment over TCP — the analogue of launching an X10 program with one
// OS process per place (Socket runtime).
//
// Start one process per place with identical flags except -place:
//
//	dpx10-worker -place 0 -addrs 127.0.0.1:7000,127.0.0.1:7001 -app swlag -m 400 &
//	dpx10-worker -place 1 -addrs 127.0.0.1:7000,127.0.0.1:7001 -app swlag -m 400 &
//
// Place 0 coordinates; when it exits, the computation finished. Killing a
// non-zero worker process mid-run exercises the recovery mechanism: the
// survivors redistribute the DAG and continue.
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
	var place int
	var addrList string
	flag.IntVar(&place, "place", -1, "this process's place id (0..len(addrs)-1)")
	flag.StringVar(&addrList, "addrs", "", "comma-separated host:port of every place, in place order")
	flag.StringVar(&p.App, "app", "swlag", "application: "+strings.Join(cli.AppNames(), " | "))
	flag.IntVar(&p.M, "m", 200, "first dimension")
	flag.IntVar(&p.N, "n", 0, "second dimension (defaults to -m)")
	flag.IntVar(&p.Items, "items", 50, "knapsack: number of items")
	flag.IntVar(&p.Capacity, "capacity", 400, "knapsack: capacity")
	flag.Int64Var(&p.Seed, "seed", 1, "workload seed (must match across places)")
	flag.IntVar(&p.Threads, "threads", 2, "worker threads (X10_NTHREADS)")
	flag.IntVar(&p.Jobs, "jobs", 1, "concurrent identical jobs on the deployment (must match across places)")
	flag.StringVar(&p.Strategy, "strategy", "local", "scheduling: local | random | mincomm | steal")
	flag.StringVar(&p.Dist, "dist", "blockrow", "distribution: blockrow | blockcol | cyclicrow | cycliccol")
	flag.IntVar(&p.Cache, "cache", 0, "remote-vertex cache entries per place")
	flag.IntVar(&p.TileSize, "tile", 0, "cells per tile, about; the engine picks the rectangle (0 = auto, 1 = per-vertex; must match across places)")
	flag.BoolVar(&p.RestoreRemote, "restore-remote", false, "recovery copies moved results instead of recomputing")
	flag.BoolVar(&p.Metrics, "metrics", false, "print this place's metrics after the run (place 0 aggregates all places; must match across places)")
	flag.BoolVar(&p.MetricsJSON, "metrics-json", false, "print the metrics dump as JSON (implies -metrics)")
	flag.StringVar(&p.MetricsAddr, "metrics-addr", "", "serve live Prometheus metrics at http://<addr>/metrics during the run")
	flag.StringVar(&p.TraceOut, "trace-out", "", "write this place's Chrome trace-event spans to this file")
	flag.Parse()
	p.Kill = -1

	addrs := strings.Split(addrList, ",")
	if addrList == "" || len(addrs) < 1 {
		fmt.Fprintln(os.Stderr, "dpx10-worker: -addrs is required")
		os.Exit(2)
	}
	if place < 0 || place >= len(addrs) {
		fmt.Fprintf(os.Stderr, "dpx10-worker: -place must be in [0,%d)\n", len(addrs))
		os.Exit(2)
	}
	if err := cli.RunWorker(p, place, addrs, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dpx10-worker:", err)
		os.Exit(1)
	}
}
