package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/sched"
)

// jobConfig is baseConfig for a multi-job submission: the Common fields a
// job may not reshape (places, threads, transport) are taken from the
// manager anyway; the rest is the job's own.
func jobConfig(pat dag.Pattern, strategy sched.Strategy) Config[int64] {
	return Config[int64]{
		Common:  Common{Places: 1, Pattern: pat, Strategy: strategy, CacheSize: 256},
		Compute: sumCompute,
		Codec:   codec.Int64{},
	}
}

// checkJobResult verifies a finished job's values against the Kahn
// reference.
func checkJobResult(t *testing.T, jr *JobRun[int64], pat dag.Pattern) {
	t.Helper()
	res, err := jr.Result()
	if err != nil {
		t.Fatalf("job %d Result: %v", jr.ID(), err)
	}
	for id, want := range refValues(pat) {
		if got := res.Value(id.I, id.J); got != want {
			t.Fatalf("job %d cell (%d,%d) = %d, want %d", jr.ID(), id.I, id.J, got, want)
		}
	}
}

// TestMultiJobConcurrent runs two identical jobs concurrently on one
// 8-place cluster, across the pattern × strategy matrix: both must finish
// with correct results, and the per-job tile accounting must partition
// the cluster totals exactly (sum of job.tiles_executed slots equals
// sched.tiles_executed on every place).
func TestMultiJobConcurrent(t *testing.T) {
	pats := map[string]dag.Pattern{
		"grid":     patterns.NewGrid(15, 12),
		"diagonal": patterns.NewDiagonal(14, 14),
		"colwave":  patterns.NewColWave(8, 12),
	}
	strategies := map[string]sched.Strategy{
		"local":  sched.Local,
		"random": sched.Random,
		"steal":  sched.Steal,
	}
	for pname, pat := range pats {
		for sname, strat := range strategies {
			t.Run(pname+"/"+sname, func(t *testing.T) {
				m, err := NewJobManager(Common{
					Places: 8, Threads: 2, Metrics: true,
					ProbeInterval: -1, MaxActiveJobs: -1,
				})
				if err != nil {
					t.Fatalf("NewJobManager: %v", err)
				}
				defer m.Close()
				j1, err := SubmitJob(m, jobConfig(pat, strat))
				if err != nil {
					t.Fatalf("SubmitJob 1: %v", err)
				}
				j2, err := SubmitJob(m, jobConfig(pat, strat))
				if err != nil {
					t.Fatalf("SubmitJob 2: %v", err)
				}
				if err := j1.Wait(); err != nil {
					t.Fatalf("job 1: %v", err)
				}
				if err := j2.Wait(); err != nil {
					t.Fatalf("job 2: %v", err)
				}
				checkJobResult(t, j1, pat)
				checkJobResult(t, j2, pat)

				// Tile accounting partitions exactly: on every place the
				// job vec's slots sum to the scheduler counter, and each
				// job's slot total matches its own Stats.
				var perJob [2]int64
				for _, s := range m.MetricsSnapshots() {
					if got, want := vecTotal(s, metrics.JobTilesExecuted), s.Counters[metrics.SchedTilesExecuted]; got != want {
						t.Errorf("place %d: job tile slots sum to %d, scheduler counter %d", s.Place, got, want)
					}
					perJob[0] += s.Vecs[metrics.JobTilesExecuted][uint8(j1.ID())]
					perJob[1] += s.Vecs[metrics.JobTilesExecuted][uint8(j2.ID())]
				}
				if st := j1.Stats(); perJob[0] != st.TilesExecuted {
					t.Errorf("job 1 vec total %d, Stats.TilesExecuted %d", perJob[0], st.TilesExecuted)
				}
				if st := j2.Stats(); perJob[1] != st.TilesExecuted {
					t.Errorf("job 2 vec total %d, Stats.TilesExecuted %d", perJob[1], st.TilesExecuted)
				}
				if perJob[0] == 0 || perJob[1] == 0 {
					t.Errorf("per-job tiles %v: both jobs must have executed work", perJob)
				}
			})
		}
	}
}

// TestMultiJobFairShare runs two identical jobs concurrently and asserts
// the weighted-fair pick did not starve either: both jobs execute their
// full tile complement (identical jobs, so equal totals), and neither
// job's share of any place's execution is zero.
func TestMultiJobFairShare(t *testing.T) {
	pat := patterns.NewGrid(32, 24)
	m, err := NewJobManager(Common{
		Places: 4, Threads: 2, Metrics: true,
		ProbeInterval: -1, MaxActiveJobs: -1,
	})
	if err != nil {
		t.Fatalf("NewJobManager: %v", err)
	}
	defer m.Close()

	// Gate both jobs' computes on the same channel so their execution
	// windows fully overlap — fairness is only observable under
	// contention.
	gate := make(chan struct{})
	cfg1, cfg2 := jobConfig(pat, sched.Local), jobConfig(pat, sched.Local)
	mkCompute := func() ComputeFunc[int64] {
		var once atomic.Bool
		return func(i, j int32, deps []Cell[int64]) int64 {
			if !once.Load() {
				<-gate
				once.Store(true)
			}
			return sumCompute(i, j, deps)
		}
	}
	cfg1.Compute = mkCompute()
	cfg2.Compute = mkCompute()
	j1, err := SubmitJob(m, cfg1)
	if err != nil {
		t.Fatalf("SubmitJob 1: %v", err)
	}
	j2, err := SubmitJob(m, cfg2)
	if err != nil {
		t.Fatalf("SubmitJob 2: %v", err)
	}
	close(gate)
	if err := j1.Wait(); err != nil {
		t.Fatalf("job 1: %v", err)
	}
	if err := j2.Wait(); err != nil {
		t.Fatalf("job 2: %v", err)
	}
	st1, st2 := j1.Stats(), j2.Stats()
	if st1.TilesExecuted != st2.TilesExecuted {
		t.Errorf("identical jobs executed %d vs %d tiles", st1.TilesExecuted, st2.TilesExecuted)
	}
	if st1.ComputedCells != st2.ComputedCells {
		t.Errorf("identical jobs computed %d vs %d cells", st1.ComputedCells, st2.ComputedCells)
	}
	var total int64
	for _, s := range m.MetricsSnapshots() {
		total += s.Counters[metrics.SchedTilesExecuted]
	}
	if got := st1.TilesExecuted + st2.TilesExecuted; got != total {
		t.Errorf("per-job tiles sum to %d, cluster total %d", got, total)
	}
}

// TestMultiJobAdmission submits three jobs against MaxActiveJobs = 2: the
// third must queue (observable in ActiveJobs and its QueueWait) and run
// only after a slot frees; all three finish correctly.
func TestMultiJobAdmission(t *testing.T) {
	pat := patterns.NewGrid(10, 10)
	m, err := NewJobManager(Common{
		Places: 2, Threads: 2, Metrics: true,
		ProbeInterval: -1, MaxActiveJobs: 2,
	})
	if err != nil {
		t.Fatalf("NewJobManager: %v", err)
	}
	defer m.Close()

	// The first two jobs block in their first compute, pinning their
	// admission slots until released.
	gate := make(chan struct{})
	blocked := func(i, j int32, deps []Cell[int64]) int64 {
		<-gate
		return sumCompute(i, j, deps)
	}
	cfgA, cfgB := jobConfig(pat, sched.Local), jobConfig(pat, sched.Local)
	cfgA.Compute = blocked
	cfgB.Compute = blocked
	jA, err := SubmitJob(m, cfgA)
	if err != nil {
		t.Fatalf("SubmitJob A: %v", err)
	}
	jB, err := SubmitJob(m, cfgB)
	if err != nil {
		t.Fatalf("SubmitJob B: %v", err)
	}
	jC, err := SubmitJob(m, jobConfig(pat, sched.Local))
	if err != nil {
		t.Fatalf("SubmitJob C: %v", err)
	}
	// The third submission must be queued, not admitted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		active, queued := m.ActiveJobs()
		if active == 2 && queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission state active=%d queued=%d, want 2/1", active, queued)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-jC.Done():
		t.Fatal("queued job finished while both slots were held")
	default:
	}
	close(gate)
	for _, jr := range []*JobRun[int64]{jA, jB, jC} {
		if err := jr.Wait(); err != nil {
			t.Fatalf("job %d: %v", jr.ID(), err)
		}
		checkJobResult(t, jr, pat)
	}
	if jC.QueueWait() <= 0 {
		t.Errorf("queued job reports QueueWait %v, want > 0", jC.QueueWait())
	}
	// The queue wait surfaced on place 0's registry under the job's key.
	s0 := m.MetricsSnapshots()[0]
	if got := s0.Vecs[metrics.JobQueueWaitNs][uint8(jC.ID())]; got <= 0 {
		t.Errorf("job %d queue-wait vec = %d, want > 0", jC.ID(), got)
	}
	if active, queued := m.ActiveJobs(); active != 0 || queued != 0 {
		t.Errorf("after completion active=%d queued=%d, want 0/0", active, queued)
	}
}

// TestMultiJobKillRecovery kills a place while two jobs are in flight:
// each job must replay independently (its own recovery counter) and both
// must finish with correct results on the survivors.
func TestMultiJobKillRecovery(t *testing.T) {
	pat := patterns.NewDiagonal(16, 16)
	m, err := NewJobManager(Common{
		Places: 4, Threads: 2, Metrics: true,
		ProbeInterval: -1, MaxActiveJobs: -1,
	})
	if err != nil {
		t.Fatalf("NewJobManager: %v", err)
	}
	defer m.Close()

	// Gate each job a little into its run so the kill lands mid-flight
	// for both.
	gate := make(chan struct{})
	resume := make(chan struct{})
	var count atomic.Int64
	var gateOnce atomic.Bool
	gated := func(i, j int32, deps []Cell[int64]) int64 {
		n := count.Add(1)
		if n == 40 && !gateOnce.Swap(true) {
			close(gate)
		}
		if n >= 40 {
			<-resume
		}
		return sumCompute(i, j, deps)
	}
	cfg1, cfg2 := jobConfig(pat, sched.Local), jobConfig(pat, sched.Local)
	cfg1.Compute = gated
	cfg2.Compute = gated
	j1, err := SubmitJob(m, cfg1)
	if err != nil {
		t.Fatalf("SubmitJob 1: %v", err)
	}
	j2, err := SubmitJob(m, cfg2)
	if err != nil {
		t.Fatalf("SubmitJob 2: %v", err)
	}
	<-gate
	m.Kill(2)
	close(resume)
	if err := j1.Wait(); err != nil {
		t.Fatalf("job 1: %v", err)
	}
	if err := j2.Wait(); err != nil {
		t.Fatalf("job 2: %v", err)
	}
	checkJobResult(t, j1, pat)
	checkJobResult(t, j2, pat)
	if st := j1.Stats(); st.Recoveries < 1 {
		t.Errorf("job 1 recoveries = %d, want >= 1", st.Recoveries)
	}
	if st := j2.Stats(); st.Recoveries < 1 {
		t.Errorf("job 2 recoveries = %d, want >= 1", st.Recoveries)
	}
}

// TestMultiJobSubmitAfterDeath submits a job after a place died: the new
// job must learn the dead set at launch and complete on the survivors.
func TestMultiJobSubmitAfterDeath(t *testing.T) {
	pat := patterns.NewGrid(12, 12)
	m, err := NewJobManager(Common{
		Places: 4, Threads: 2,
		ProbeInterval: -1, MaxActiveJobs: -1,
	})
	if err != nil {
		t.Fatalf("NewJobManager: %v", err)
	}
	defer m.Close()
	j1, err := SubmitJob(m, jobConfig(pat, sched.Local))
	if err != nil {
		t.Fatalf("SubmitJob 1: %v", err)
	}
	if err := j1.Wait(); err != nil {
		t.Fatalf("job 1: %v", err)
	}
	m.Kill(3)
	j2, err := SubmitJob(m, jobConfig(pat, sched.Local))
	if err != nil {
		t.Fatalf("SubmitJob 2: %v", err)
	}
	if err := j2.Wait(); err != nil {
		t.Fatalf("job 2 after death: %v", err)
	}
	checkJobResult(t, j2, pat)
	if st := j2.Stats(); st.Recoveries < 1 {
		t.Errorf("job 2 recoveries = %d, want >= 1 (dead-set replay)", st.Recoveries)
	}
}

// TestManagerCloseCancelsJobs closes the manager with a job still queued
// and one blocked mid-run: both must terminate with an error, not hang.
func TestManagerCloseCancelsJobs(t *testing.T) {
	pat := patterns.NewGrid(8, 8)
	m, err := NewJobManager(Common{
		Places: 2, Threads: 1,
		ProbeInterval: -1, MaxActiveJobs: 1,
	})
	if err != nil {
		t.Fatalf("NewJobManager: %v", err)
	}
	gate := make(chan struct{})
	cfg := jobConfig(pat, sched.Local)
	cfg.Compute = func(i, j int32, deps []Cell[int64]) int64 {
		select {
		case <-gate:
		case <-time.After(10 * time.Second):
		}
		return sumCompute(i, j, deps)
	}
	running, err := SubmitJob(m, cfg)
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	queued, err := SubmitJob(m, jobConfig(pat, sched.Local))
	if err != nil {
		t.Fatalf("SubmitJob queued: %v", err)
	}
	closed := make(chan struct{})
	go func() { m.Close(); close(closed) }()
	// Close cancels the blocked compute's job via engine stop; release the
	// gate, once the cancel has landed, so the worker can observe it.
	<-running.abortCh
	close(gate)
	select {
	case <-closed:
	case <-time.After(15 * time.Second):
		t.Fatal("manager Close hung")
	}
	if err := running.Wait(); err == nil {
		t.Error("running job finished cleanly across manager Close")
	}
	if err := queued.Wait(); err == nil {
		t.Error("queued job finished cleanly across manager Close")
	}
}

// TestMetricsSnapshotRacesSubmit is two free-running clients on one
// metrics-on cluster: each submits, waits and snapshots, so one client's
// snapshot fan-out keeps landing while the other's submission is mid-
// registration. A job must not be visible to the fan-out before its
// engines exist (a nil engine dereferenced; a slice race under -race).
func TestMetricsSnapshotRacesSubmit(t *testing.T) {
	m, err := NewJobManager(Common{Places: 2, Threads: 1, Metrics: true, ProbeInterval: -1})
	if err != nil {
		t.Fatalf("NewJobManager: %v", err)
	}
	defer m.Close()
	pat := patterns.NewGrid(6, 6)
	var clients sync.WaitGroup
	for c := 0; c < 2; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for k := 0; k < 100; k++ {
				jr, err := SubmitJob(m, jobConfig(pat, sched.Local))
				if err != nil {
					t.Errorf("SubmitJob: %v", err)
					return
				}
				if err := jr.Wait(); err != nil {
					t.Errorf("job %d: %v", jr.ID(), err)
					return
				}
				if snaps := m.MetricsSnapshots(); len(snaps) != 2 {
					t.Errorf("%d snapshots, want 2", len(snaps))
					return
				}
			}
		}()
	}
	clients.Wait()
}
