package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/dpx10/dpx10/internal/dag/patterns"
	"github.com/dpx10/dpx10/internal/metrics"
)

// TestDeploymentsAgree runs one SWLAG-shaped config through the one JobRun
// lifecycle in process and over loopback TCP: same work, bit-equal values.
func TestDeploymentsAgree(t *testing.T) {
	for _, row := range [][2]int{{1, -1}, {3, -1}, {1, 2}} { // jobs, place to kill
		local, tcp := runDeployment(t, false, row[0], row[1]), runDeployment(t, true, row[0], row[1])
		if !slices.Equal(local, tcp) {
			t.Fatalf("jobs=%d kill=%d:\nin process: %.80v\nover TCP:   %.80v", row[0], row[1], local, tcp)
		}
	}
}

// runDeployment runs `jobs` identical jobs on 3 places and returns one line
// per job: cells computed, tiles executed, epochs, recoveries, every value.
// The first Compute call (cell (0,0), the only source) is held until place
// `kill`, if any, is dead and place 0 paused: one cell predates the recovery.
func runDeployment(t *testing.T, tcp bool, jobs, kill int) []string {
	const side, places = 24, 3
	cfg, gate, release := gatedConfig(patterns.NewDiagonal(side, side), places, 1)
	cfg.Jobs, cfg.MaxActiveJobs = jobs, -1
	var procs [][]*JobRun[int64] // per process, the jobs on its places
	var killPlace func()
	var value func(job int, i, j int32) (int64, error)
	if tcp {
		nodes := startTCPNodes(t, cfg, places)
		for _, n := range nodes {
			procs = append(procs, n.jobs)
			go n.Run() //nolint:errcheck // the jobs' own Wait below has place 0's verdict
		}
		killPlace = func() { nodes[kill].Close() }
		value = nodes[0].JobValue
	} else {
		m, err := NewJobManager(cfg.Common)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		procs = make([][]*JobRun[int64], 1)
		for j := 0; j < jobs; j++ {
			jr, err := SubmitJob(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			procs[0] = append(procs[0], jr)
		}
		killPlace = func() { m.Kill(kill) }
		value = func(job int, i, j int32) (int64, error) {
			res, err := procs[0][job].Result()
			if err != nil {
				return 0, err
			}
			return res.Value(i, j), nil
		}
	}
	<-gate
	if kill >= 0 {
		st := procs[0][0].engines[0].current()
		killPlace()
		<-st.quit
	}
	release()
	var out []string
	for j, jr := range procs[0] {
		if err := jr.Wait(); err != nil {
			t.Fatalf("tcp=%v: job %d: %v", tcp, j, err)
		}
		var cells, tiles int64
		for _, proc := range procs {
			s := proc[j].Stats()
			cells, tiles = cells+s.ComputedCells, tiles+s.TilesExecuted
		}
		vals := make([]int64, 0, side*side)
		for c := int32(0); c < side*side; c++ {
			v, err := value(j, c/side, c%side)
			if err != nil {
				t.Fatalf("tcp=%v: job %d cell %d: %v", tcp, j, c, err)
			}
			vals = append(vals, v)
		}
		out = append(out, fmt.Sprint(cells, " cells ", tiles, " tiles ", jr.Stats().Epochs, " epochs ", jr.Stats().Recoveries, " recoveries ", vals))
	}
	return out
}

// TestJobMetricSlotNamesLatestJob: the job.* vecs are keyed by the job id's
// low byte, so job 257 reuses job 1's slot and must read as its own count.
func TestJobMetricSlotNamesLatestJob(t *testing.T) {
	m, err := NewJobManager(Common{Places: 1, Threads: 1, Metrics: true, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cfg := baseConfig(patterns.NewGrid(2, 2), 1)
	cfg.TileSize = 4 // the whole job is one tile
	for id := 0; id <= 257; id++ {
		if jr, err := SubmitJob(m, cfg); err != nil || jr.Wait() != nil {
			t.Fatalf("job %d failed (submit: %v)", id, err)
		}
	}
	if got := m.MetricsSnapshots()[0].Vecs[metrics.JobTilesExecuted][257&0xff]; got != 1 {
		t.Fatalf("job 257's job.tiles_executed slot reads %d, want its own 1 tile", got)
	}
}
