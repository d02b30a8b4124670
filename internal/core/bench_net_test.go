package core

import (
	"sync"
	"testing"

	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/dist"
)

// BenchmarkNetPerVertex measures the wire cost of a cross-place run over
// real TCP sockets: time, bytes and vectored writes per vertex. The
// workload is the SWLAG dependency shape — a dense grid whose every row
// crosses the cyclic distribution — so the traffic is the decrement/fetch
// mix the aggregator exists for.
//
// scripts/bench_net.sh turns the output into results/BENCH_net.json and
// gates the bytes/vertex absolutely.
func BenchmarkNetPerVertex(b *testing.B) {
	const side = 256
	const places = 4
	pat := patterns.NewGrid(side, side)
	cells := float64(side) * float64(side)

	var wireBytes, writeCalls int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config[int64]{
			Common: Common{
				Places: places, Threads: 4, Pattern: pat,
				CacheSize: 1024,
				// Cyclic rows: every row boundary crosses places, so
				// every cell pushes values and decrements off-place —
				// SWLAG's worst-case communication arm.
				NewDist: func(h, w int32, n int) dist.Dist {
					return dist.NewCyclicRow(h, w, n)
				},
			},
			Compute: sumCompute,
			Codec:   codec.Int64{},
		}
		nodes := startBenchTCPNodes(b, cfg, places)
		var workers sync.WaitGroup
		for p := 1; p < places; p++ {
			workers.Add(1)
			go func(p int) {
				defer workers.Done()
				if err := nodes[p].Run(); err != nil {
					b.Error(err)
				}
			}(p)
		}
		if err := nodes[0].Run(); err != nil {
			b.Fatal(err)
		}
		for _, n := range nodes {
			st := n.tr.Stats()
			wireBytes += st.WireBytesOut.Load()
			writeCalls += st.WriteCalls.Load()
		}
		for _, n := range nodes {
			n.Close()
		}
		workers.Wait()
	}
	b.StopTimer()
	n := float64(b.N) * cells
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/vertex")
	b.ReportMetric(float64(wireBytes)/n, "wireB/vertex")
	b.ReportMetric(float64(writeCalls)/n, "writes/vertex")
}

// startBenchTCPNodes is startTCPNodes without t.Cleanup: benchmark
// iterations boot and tear down a deployment each, so nodes must close
// inside the loop, not at benchmark end.
func startBenchTCPNodes(b *testing.B, cfg Config[int64], n int) []*TCPNode[int64] {
	b.Helper()
	nodes := make([]*TCPNode[int64], n)
	addrs := make([]string, n)
	placeholder := make([]string, n)
	for i := range placeholder {
		placeholder[i] = "127.0.0.1:0"
	}
	for p := 0; p < n; p++ {
		node, err := StartTCPNode(cfg, p, placeholder)
		if err != nil {
			b.Fatalf("StartTCPNode(%d): %v", p, err)
		}
		nodes[p] = node
		addrs[p] = node.Addr()
	}
	for _, node := range nodes {
		if err := node.SetAddrTable(addrs); err != nil {
			b.Fatal(err)
		}
	}
	return nodes
}
