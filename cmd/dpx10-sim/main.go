// Command dpx10-sim runs what-if studies on the discrete-event cluster
// simulator: pick a DAG pattern, a cluster shape and a cost model, and
// get the virtual-time makespan, traffic and (optionally) recovery cost —
// without owning a cluster, which is the point of the simulator substrate
// (see DESIGN.md §1).
//
// Examples:
//
//	dpx10-sim -pattern diagonal -h 240 -w 240 -nodes 2,4,6,8,10,12
//	dpx10-sim -pattern grid -h 200 -w 200 -nodes 8 -latency-us 200
//	dpx10-sim -pattern diagonal -h 240 -w 240 -nodes 8 -fault 0.5 -kill 7
//	dpx10-sim -pattern triangle -h 96 -w 96 -nodes 6 -steal
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/simcluster"
)

func main() {
	patName := flag.String("pattern", "diagonal", "DAG pattern: "+strings.Join(patterns.Names(), " | "))
	h := flag.Int("h", 240, "matrix height (tiles)")
	w := flag.Int("w", 240, "matrix width (tiles)")
	nodeList := flag.String("nodes", "2,4,6,8,10,12", "comma-separated node counts (places = 2x nodes)")
	cores := flag.Int("cores", 6, "worker threads per place")
	computeUs := flag.Float64("compute-us", 1000, "per-vertex compute cost, microseconds")
	latencyUs := flag.Float64("latency-us", 20, "per-message latency, microseconds")
	bandwidth := flag.Float64("bandwidth", 1e9, "link bandwidth, bytes/second")
	fetchBytes := flag.Int64("fetch-bytes", 864, "payload of one dependency transfer")
	steal := flag.Bool("steal", false, "enable the work-stealing execution model")
	faultAt := flag.Float64("fault", -1, "inject one fault at this progress fraction (0..1)")
	kill := flag.Int("kill", -1, "place to kill at -fault (default: last place)")
	restore := flag.Bool("restore-remote", false, "recovery copies moved results instead of recomputing")
	chaosDrop := flag.Float64("chaos-drop", 0, "chaos arm: per-message drop probability, modeled as expected retransmissions (0..1)")
	chaosDup := flag.Float64("chaos-dup", 0, "chaos arm: per-message duplication probability (bandwidth overhead)")
	chaosDelayUs := flag.Float64("chaos-delay-us", 0, "chaos arm: expected injected delay per message, microseconds")
	flag.Parse()

	if *chaosDrop < 0 || *chaosDrop >= 1 {
		if *chaosDrop != 0 {
			fail(fmt.Errorf("-chaos-drop must be in [0,1), got %v", *chaosDrop))
		}
	}

	obj, err := patterns.ByName(*patName, int32(*h), int32(*w))
	if err != nil {
		fail(err)
	}
	pat, ok := obj.(dag.Pattern)
	if !ok {
		fail(fmt.Errorf("pattern %q is not runnable", *patName))
	}
	prof := dag.Profile(pat)
	fmt.Printf("pattern %s %dx%d: %d active cells, %d edges, in-degree <= %d, %d sources, %d sinks\n\n",
		*patName, *h, *w, prof.ActiveCells, prof.Edges, prof.MaxInDeg, prof.Sources, prof.Sinks)

	fmt.Printf("%-6s %-7s %-6s %12s %10s %12s %12s %12s %10s\n",
		"nodes", "places", "cores", "makespan(s)", "speedup", "msgs", "bytes", "recovery(s)", "util")
	var base float64
	for _, tok := range strings.Split(*nodeList, ",") {
		nodes, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || nodes < 1 {
			fail(fmt.Errorf("bad node count %q", tok))
		}
		places := nodes * 2
		model := simcluster.Model{
			CoresPerPlace:    *cores,
			ComputeCost:      *computeUs * 1e-6,
			NetLatency:       *latencyUs * 1e-6,
			NetBandwidth:     *bandwidth,
			FetchBytes:       *fetchBytes,
			DecrBytes:        16,
			RecoveryCellCost: *computeUs * 1e-6 / 5,
			Steal:            *steal,
			ChaosDropProb:    *chaosDrop,
			ChaosDupProb:     *chaosDup,
			ChaosDelayMean:   *chaosDelayUs * 1e-6,
		}
		sim, err := simcluster.New(pat, dist.NewBlockRow(int32(*h), int32(*w), places), model)
		if err != nil {
			fail(err)
		}
		dead := -1 // the killed place, left out of the util range
		if *faultAt >= 0 {
			sim.RunUntil(int64(float64(sim.Active()) * *faultAt))
			if dead = *kill; dead < 0 {
				dead = places - 1
			}
			if _, err := sim.Fault(dead, *restore); err != nil {
				fail(err)
			}
		}
		res, err := sim.Run()
		if err != nil {
			fail(err)
		}
		if base == 0 {
			base = res.Makespan
		}
		minU, maxU := 1.0, 0.0
		for p := 0; p < places; p++ {
			if p == dead {
				continue
			}
			u := sim.Utilization(p)
			if u < minU {
				minU = u
			}
			if u > maxU {
				maxU = u
			}
		}
		fmt.Printf("%-6d %-7d %-6d %12.3f %10.2f %12d %12d %12.3f %4.0f-%2.0f%%\n",
			nodes, places, places**cores, res.Makespan, base/res.Makespan,
			res.Messages, res.BytesMoved, res.RecoveryTime, 100*minU, 100*maxU)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dpx10-sim:", err)
	os.Exit(1)
}
