package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/sched"
)

// startTCPNodes boots an n-place TCP deployment on loopback with
// OS-assigned ports. The nodes run in one test process but communicate
// only over real sockets, exercising the exact code path of a
// multi-process launch.
func startTCPNodes(t *testing.T, cfg Config[int64], n int) []*TCPNode[int64] {
	t.Helper()
	nodes := make([]*TCPNode[int64], n)
	addrs := make([]string, n)
	placeholder := make([]string, n)
	for i := range placeholder {
		placeholder[i] = "127.0.0.1:0"
	}
	for p := 0; p < n; p++ {
		node, err := StartTCPNode(cfg, p, placeholder)
		if err != nil {
			t.Fatalf("StartTCPNode(%d): %v", p, err)
		}
		nodes[p] = node
		addrs[p] = node.Addr()
	}
	for _, node := range nodes {
		if err := node.SetAddrTable(addrs); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.Close()
		}
	})
	return nodes
}

func TestTCPNodeEndToEnd(t *testing.T) {
	pat := patterns.NewDiagonal(20, 20)
	cfg := Config[int64]{
		Common:  Common{Places: 3, Threads: 2, Pattern: pat},
		Compute: sumCompute,
		Codec:   codec.Int64{},
	}
	nodes := startTCPNodes(t, cfg, 3)
	var workers sync.WaitGroup
	errs := make([]error, 3)
	for p := 2; p >= 1; p-- {
		workers.Add(1)
		go func(p int) {
			defer workers.Done()
			errs[p] = nodes[p].Run()
		}(p)
	}
	if err := nodes[0].Run(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	// Post-run reads happen while the workers still serve; Close then
	// broadcasts stop and releases them.
	want := refValues(pat)
	for id, wv := range want {
		got, err := nodes[0].Value(id.I, id.J)
		if err != nil {
			t.Fatalf("Value(%v): %v", id, err)
		}
		if got != wv {
			t.Fatalf("cell %v = %d, want %d", id, got, wv)
		}
	}
	st := nodes[0].Stats()
	if st.Recoveries != 0 || st.Epochs != 1 {
		t.Fatalf("fault-free TCP run recorded recoveries: %+v", st)
	}
	nodes[0].Close()
	workers.Wait()
	for p := 1; p < 3; p++ {
		if errs[p] != nil {
			t.Fatalf("place %d: %v", p, errs[p])
		}
	}
}

func TestTCPNodeFaultRecovery(t *testing.T) {
	pat := patterns.NewDiagonal(24, 24)
	gateCfg, gate, release := gatedConfig(pat, 4, 150)
	gateCfg.Codec = codec.Int64{}
	nodes := startTCPNodes(t, gateCfg, 4)
	var workers sync.WaitGroup
	coDone := make(chan error, 1)
	for p := 1; p < 4; p++ {
		workers.Add(1)
		go func(p int) {
			defer workers.Done()
			nodes[p].Run() //nolint:errcheck // place 2 is crashed below
		}(p)
	}
	go func() { coDone <- nodes[0].Run() }()
	<-gate
	// Crash place 2: close its transport; peers learn via connection
	// errors and the place-0 prober.
	nodes[2].Close()
	release()
	if err := <-coDone; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	st := nodes[0].Stats()
	if st.Recoveries < 1 {
		t.Fatal("TCP deployment did not recover from the crash")
	}
	for id, wv := range refValues(pat) {
		got, err := nodes[0].Value(id.I, id.J)
		if err != nil {
			t.Fatalf("Value(%v): %v", id, err)
		}
		if got != wv {
			t.Fatalf("cell %v = %d, want %d", id, got, wv)
		}
	}
	nodes[0].Close()
	workers.Wait()
}

func TestTCPNodeValidation(t *testing.T) {
	cfg := Config[int64]{Common: Common{Places: 2, Pattern: patterns.NewGrid(4, 4)}, Compute: sumCompute}
	if _, err := StartTCPNode(cfg, 5, []string{"127.0.0.1:0", "127.0.0.1:0"}); err == nil {
		t.Fatal("out-of-range self accepted")
	}
	if _, err := StartTCPNode(cfg, 0, []string{"127.0.0.1:0"}); err == nil {
		t.Fatal("mismatched address table accepted")
	}
}

func TestTCPNodeMultiJob(t *testing.T) {
	pat := patterns.NewDiagonal(20, 20)
	cfg := Config[int64]{
		Common:  Common{Places: 3, Threads: 2, Pattern: pat, Jobs: 2, Metrics: true},
		Compute: sumCompute,
		Codec:   codec.Int64{},
	}
	nodes := startTCPNodes(t, cfg, 3)
	var workers sync.WaitGroup
	errs := make([]error, 3)
	for p := 2; p >= 1; p-- {
		workers.Add(1)
		go func(p int) {
			defer workers.Done()
			errs[p] = nodes[p].Run()
		}(p)
	}
	if err := nodes[0].Run(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	want := refValues(pat)
	for jb := 0; jb < 2; jb++ {
		for id, wv := range want {
			got, err := nodes[0].JobValue(jb, id.I, id.J)
			if err != nil {
				t.Fatalf("JobValue(%d, %v): %v", jb, id, err)
			}
			if got != wv {
				t.Fatalf("job %d cell %v = %d, want %d", jb, id, got, wv)
			}
		}
		if st := nodes[0].JobStats(jb); st.ComputedCells == 0 {
			t.Fatalf("job %d computed no cells locally", jb)
		}
	}
	// Per-job tile accounting partitions the node totals exactly.
	snaps, err := nodes[0].MetricsSnapshots()
	if err != nil {
		t.Fatalf("MetricsSnapshots: %v", err)
	}
	if len(snaps) != 3 {
		t.Fatalf("got %d snapshots, want 3", len(snaps))
	}
	for _, s := range snaps {
		var jobs int64
		for _, v := range s.Vecs[metrics.JobTilesExecuted] {
			jobs += v
		}
		if want := s.Counters[metrics.SchedTilesExecuted]; jobs != want {
			t.Fatalf("place %d: job tile slots sum to %d, scheduler counter %d", s.Place, jobs, want)
		}
	}
	nodes[0].Close()
	workers.Wait()
	for p := 1; p < 3; p++ {
		if errs[p] != nil {
			t.Fatalf("place %d: %v", p, errs[p])
		}
	}
}

// TestTCPNodeStatsCountTiles pins Stats and JobStats to the engine's own
// counters on a TCP deployment: a steal run's tile count, summed over the
// nodes, is nonzero and equals the merged sched.tiles_executed metric.
// (Both once reported 0: their hand-copied sums skipped five fields.)
func TestTCPNodeStatsCountTiles(t *testing.T) {
	cfg := Config[int64]{
		Common: Common{Places: 2, Threads: 2, Pattern: patterns.NewDiagonal(24, 24),
			Strategy: sched.Steal, TileSize: 4, Metrics: true},
		Compute: sumCompute,
		Codec:   codec.Int64{},
	}
	nodes := startTCPNodes(t, cfg, 2)
	worker := make(chan error, 1)
	go func() { worker <- nodes[1].Run() }()
	if err := nodes[0].Run(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	snaps, err := nodes[0].MetricsSnapshots()
	if err != nil {
		t.Fatalf("MetricsSnapshots: %v", err)
	}
	var tiles, jobTiles int64
	for _, n := range nodes {
		tiles += n.Stats().TilesExecuted
		jobTiles += n.JobStats(0).TilesExecuted
	}
	if want := metrics.MergeAll(snaps).Counters[metrics.SchedTilesExecuted]; tiles == 0 || tiles != want || jobTiles != want {
		t.Fatalf("Stats count %d tiles, JobStats %d, sched.tiles_executed %d; want all equal and > 0", tiles, jobTiles, want)
	}
	nodes[0].Close()
	if err := <-worker; err != nil {
		t.Fatalf("place 1: %v", err)
	}
}

// TestTCPNodePushedValuesAllKept runs a knapsack table dealt by column
// blocks over two TCP nodes with a 256-entry vertex cache, as the kp-tcp-fetch
// benchmark does: place 0 pushes every value of its block that place 1 reads,
// thousands per job, and place 1 keeps every one until its tile runs, so it
// fetches nothing. (With the boxes bounded by the cache's size it kept at
// most 256 and fetched the rest back in about fifty round trips.)
func TestTCPNodePushedValuesAllKept(t *testing.T) {
	const items, capacity = 100, 500
	weights := make([]int32, items)
	for k := range weights {
		weights[k] = int32(k*37)%200 + 1
	}
	pat, err := patterns.NewKnapsack(weights, capacity)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config[int64]{
		Common: Common{Places: 2, Threads: 1, Pattern: pat, CacheSize: 256,
			NewDist: func(h, w int32, n int) dist.Dist { return dist.NewBlockCol(h, w, n) }},
		Compute: sumCompute,
		Codec:   codec.Int64{},
	}
	nodes := startTCPNodes(t, cfg, 2)
	worker := make(chan error, 1)
	go func() { worker <- nodes[1].Run() }()
	if err := nodes[0].Run(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	want, corner := refValues(pat), dag.VertexID{I: items, J: capacity}
	if got, err := nodes[0].Value(corner.I, corner.J); err != nil || got != want[corner] {
		t.Fatalf("corner %v = %d (err %v), want %d", corner, got, err, want[corner])
	}
	pushed, kept, calls := nodes[0].Stats().ValuesPushed, nodes[1].Stats().PushDeposits, nodes[1].Stats().FetchCalls
	if pushed <= 256 || kept != pushed || calls != 0 {
		t.Fatalf("place 1 kept %d of the %d values place 0 pushed and made %d fetch calls; want more than 256 pushed, all kept and none fetched",
			kept, pushed, calls)
	}
	nodes[0].Close()
	if err := <-worker; err != nil {
		t.Fatalf("place 1: %v", err)
	}
}

func TestTCPNodeCoordinatorCrashTerminatesWorkers(t *testing.T) {
	pat := patterns.NewDiagonal(30, 30)
	cfg, gate, release := gatedConfig(pat, 3, 100)
	cfg.Codec = codec.Int64{}
	nodes := startTCPNodes(t, cfg, 3)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = nodes[p].Run()
		}(p)
	}
	<-gate
	// Crash the coordinator: kill its transport without the orderly stop
	// broadcast Close performs. Workers must notice and exit with an
	// error rather than waiting forever.
	nodes[0].tr.Close()
	for _, jr := range nodes[0].jobs {
		jr.Cancel()
	}
	release()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("workers did not terminate after coordinator crash")
	}
	for p := 1; p < 3; p++ {
		if errs[p] == nil {
			t.Fatalf("place %d exited cleanly despite coordinator death", p)
		}
	}
}

// TestTCPNodeCloseWaitsForStop pins stop as an acknowledged call: place 0's
// Close may not return — so cannot close its endpoint — before every place
// observed stop, here delivered 50 ms late to a place 1 probing place 0 every
// millisecond. A one-way stop loses that race and reports "place 0 died".
func TestTCPNodeCloseWaitsForStop(t *testing.T) {
	cfg := baseConfig(patterns.NewDiagonal(12, 12), 2)
	cfg.ProbeInterval = time.Millisecond
	nodes := startTCPNodes(t, cfg, 2)
	port := nodes[1].jobs[0].engines[0].tr.(*jobPort)
	stop := port.handlers[kindStop]
	port.handlers[kindStop] = func(from int, payload []byte) ([]byte, error) {
		time.Sleep(50 * time.Millisecond)
		return stop(from, payload)
	}
	worker := make(chan error, 1)
	go func() { worker <- nodes[1].Run() }()
	if err := nodes[0].Run(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	nodes[0].Close()
	select {
	case <-nodes[1].jobs[0].engines[0].stopCh:
	default:
		t.Fatal("place 0's Close returned before place 1 observed stop")
	}
	if err := <-worker; err != nil {
		t.Fatalf("place 1: %v", err)
	}
}

// TestTCPNodeStopOutranksAbort pins the teardown verdict of a non-zero
// place: once the stop broadcast has landed, an abort that follows it (the
// coordinator detector losing place 0 as place 0 exits) must not turn a
// finished run into "place 0 died". With both channels closed a bare
// two-way select picks at random, so 200 tries would report the abort.
func TestTCPNodeStopOutranksAbort(t *testing.T) {
	cfg := baseConfig(patterns.NewGrid(4, 4), 2)
	nodes := startTCPNodes(t, cfg, 2)
	n := nodes[1].jobs[0]
	for _, pe := range n.engines {
		pe.stop()
		pe.abort(placeDead(0))
	}
	for k := 0; k < 200; k++ {
		if err := n.awaitStop(); err != nil {
			t.Fatalf("try %d: stopped node reported %v", k, err)
		}
	}
	// An abort with no stop is still an abort.
	m := nodes[0].jobs[0]
	m.engines[0].abort(placeDead(0))
	if err := m.awaitStop(); !errors.Is(err, ErrPlaceZeroDead) {
		t.Fatalf("aborted node reported %v, want ErrPlaceZeroDead", err)
	}
}
