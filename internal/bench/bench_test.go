package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/dpx10/dpx10/internal/simcluster"
)

// timingTests turns on TestFig12Shape's wall-clock assertions. Wall-clock
// shape is a benchmark result, not a unit-test fact: on a loaded 2-core
// box the Fig-12 ratio checks fail about one run in three, so `go test
// ./...` checks structure only (report and row counts, every ratio cell
// numeric) and `make bench` and the CI bench step set DPX10_TIMING_TESTS=1
// to assert the shape. The other figure tests read the simulator's
// virtual time, which is deterministic, and stay unconditional.
var timingTests = os.Getenv("DPX10_TIMING_TESTS") == "1"

// cellFloat parses a numeric report cell.
func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func TestFig10Shape(t *testing.T) {
	reports, err := Fig10(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("%d reports, want 4 apps", len(reports))
	}
	speedupAt12 := map[string]float64{}
	for k, rep := range reports {
		name := Specs()[k].Name
		if len(rep.Rows) != len(fig10Nodes) {
			t.Fatalf("%s: %d rows, want %d", name, len(rep.Rows), len(fig10Nodes))
		}
		prev := 0.0
		for n, row := range rep.Rows {
			tm := cellFloat(t, row[3])
			if tm <= 0 {
				t.Fatalf("%s: non-positive time at row %d", name, n)
			}
			if n > 0 && tm > prev*1.05 {
				t.Fatalf("%s: time increased with more nodes: %.2f -> %.2f", name, prev, tm)
			}
			prev = tm
		}
		speedupAt12[name] = cellFloat(t, rep.Rows[len(rep.Rows)-1][4])
	}
	// Paper: SWLAG/MTP/LPS reach about 4x at 6x the nodes, 0/1KP about 3x.
	for _, name := range []string{"SWLAG", "MTP", "LPS"} {
		if sp := speedupAt12[name]; sp < 2.5 || sp > 6 {
			t.Errorf("%s speedup at 12 nodes = %.2f, expected in [2.5, 6] (paper ~4)", name, sp)
		}
	}
	kp := speedupAt12["0/1KP"]
	if kp >= speedupAt12["SWLAG"] || kp >= speedupAt12["MTP"] {
		t.Errorf("0/1KP speedup %.2f not below SWLAG %.2f / MTP %.2f (paper: 0/1KP scales worst)",
			kp, speedupAt12["SWLAG"], speedupAt12["MTP"])
	}
	if kp < 1.5 {
		t.Errorf("0/1KP speedup %.2f implausibly low", kp)
	}
}

func TestFig11Shape(t *testing.T) {
	rep, err := Fig11(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 10 {
		t.Fatalf("%d rows, want 10 sizes", len(rep.Rows))
	}
	// Paper: linear growth with size for every app; 10x vertices within
	// [7x, 13x] the time.
	for col := 1; col <= 4; col++ {
		first := cellFloat(t, rep.Rows[0][col])
		last := cellFloat(t, rep.Rows[9][col])
		ratio := last / first
		if ratio < 7 || ratio > 13 {
			t.Errorf("%s: 10x vertices gave %.1fx time, expected ~10x", rep.Header[col], ratio)
		}
		// Monotone increase along the way.
		prev := 0.0
		for _, row := range rep.Rows {
			v := cellFloat(t, row[col])
			if v < prev {
				t.Errorf("%s: time decreased with size", rep.Header[col])
			}
			prev = v
		}
	}
}

func TestFig12Shape(t *testing.T) {
	reports, err := Fig12(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("%d reports, want size table + work sweep", len(reports))
	}
	size, work := reports[0], reports[1]
	if len(size.Rows) != 10 {
		t.Fatalf("size table has %d rows, want 10", len(size.Rows))
	}
	if len(work.Rows) < 2 {
		t.Fatalf("work sweep has %d rows, want a sweep", len(work.Rows))
	}
	for _, row := range size.Rows {
		if r := cellFloat(t, row[5]); timingTests && r < 1 {
			t.Errorf("DPX10 faster than hand-written per-vertex code (ratio %.2f): suspicious", r)
		}
	}
	// Work sweep: the DPX10/native ratio must fall as per-cell compute
	// grows, approaching the paper's regime. Under the race detector the
	// instrumentation skews the two sides differently, so only the
	// end-to-end convergence is asserted there.
	var prev float64
	for n, row := range work.Rows {
		r := cellFloat(t, row[6])
		if timingTests && !raceEnabled && n > 0 && r > prev*1.1 {
			t.Errorf("ratio did not fall as per-cell work grew: %.2f -> %.2f", prev, r)
		}
		prev = r
	}
	first := cellFloat(t, work.Rows[0][6])
	if timingTests && prev >= first {
		t.Errorf("work sweep ratio did not converge downward: %.2f -> %.2f", first, prev)
	}
}

func TestFig13Shape(t *testing.T) {
	recRep, normRep, err := Fig13(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(recRep.Rows) != 5 || len(normRep.Rows) != 5 {
		t.Fatalf("row counts: %d, %d; want 5, 5", len(recRep.Rows), len(normRep.Rows))
	}
	// (a) Recovery time: linear in size; 4-node recovery ~2x the 8-node one.
	small4 := cellFloat(t, recRep.Rows[0][1])
	big4 := cellFloat(t, recRep.Rows[4][1])
	if ratio := big4 / small4; ratio < 3.5 || ratio > 6.5 {
		t.Errorf("recovery time at 5x size = %.2fx, expected ~5x (linear)", ratio)
	}
	for _, row := range recRep.Rows {
		r4 := cellFloat(t, row[1])
		r8 := cellFloat(t, row[2])
		if q := r4 / r8; q < 1.4 || q > 2.8 {
			t.Errorf("size %s: recovery 4n/8n = %.2f, expected ~2", row[0], q)
		}
	}
	// (b) One fault hurts, and hurts less with more nodes.
	for _, row := range normRep.Rows {
		n4 := cellFloat(t, row[1])
		n8 := cellFloat(t, row[2])
		if n4 <= 1 || n8 <= 1 {
			t.Errorf("size %s: normalized time with fault <= 1 (%.2f, %.2f)", row[0], n4, n8)
		}
		if n8 > n4*1.05 {
			t.Errorf("size %s: fault impact grew with nodes (%.2f -> %.2f)", row[0], n4, n8)
		}
	}
}

func TestAblationSchedShape(t *testing.T) {
	rep, err := AblationSched(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 8 {
		t.Fatalf("%d rows, want 4 strategies x 2 workloads", len(rep.Rows))
	}
	swlag := map[string][]string{}
	chain := map[string][]string{}
	for _, row := range rep.Rows {
		if strings.Contains(row[0], "swlag") {
			swlag[row[1]] = row
		} else {
			chain[row[1]] = row
		}
	}
	// Columns: workload, strategy, time, migrated, stolen, fetches, imbalance.
	if cellFloat(t, swlag["local"][3]) != 0 {
		t.Error("local strategy migrated vertices")
	}
	if cellFloat(t, swlag["random"][3]) == 0 {
		t.Error("random strategy migrated nothing")
	}
	if cellFloat(t, swlag["random"][5]) <= cellFloat(t, swlag["local"][5]) {
		t.Error("random scheduling did not increase remote fetches over local")
	}
	if cellFloat(t, swlag["steal"][4]) < 0 {
		t.Error("negative steal count")
	}
	// On the imbalanced workload, stealing must actually move work. (The
	// count-based imbalance column is reported for inspection but is too
	// noisy at quick sizes to assert on — matrix-chain vertices differ
	// wildly in cost, so counts understate what stealing rebalances.)
	if cellFloat(t, chain["steal"][4]) == 0 {
		t.Error("steal strategy stole nothing on the imbalanced matrix chain")
	}
	if cellFloat(t, chain["local"][6]) <= 1.05 {
		t.Error("matrix chain under blockrow should be imbalanced for local scheduling")
	}
}

func TestAblationCacheShape(t *testing.T) {
	rep, err := AblationCache(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("%d rows, want 5 cache sizes with push off and one with push on", len(rep.Rows))
	}
	sweep := rep.Rows[:5]
	for _, row := range sweep {
		if row[1] != "off" {
			t.Fatalf("sweep row %v runs with push %s", row, row[1])
		}
	}
	noCacheFetches := cellFloat(t, sweep[0][2])
	bigCacheFetches := cellFloat(t, sweep[len(sweep)-1][2])
	if bigCacheFetches >= noCacheFetches {
		t.Errorf("largest cache did not cut remote fetches: %v -> %v", noCacheFetches, bigCacheFetches)
	}
	if hits := cellFloat(t, sweep[len(sweep)-1][3]); hits == 0 {
		t.Error("largest cache recorded no hits with push off")
	}
	// More cache, fewer fetches, at 16x the capacity. Neighbouring sizes can
	// swap at the top of the curve: two workers of a place that miss the
	// same value at once both fetch it, whatever the capacity, and 64 and
	// 256 entries both hold a row's remote values.
	for k := 2; k < len(sweep); k++ {
		if lo, hi := cellFloat(t, sweep[k-2][2]), cellFloat(t, sweep[k][2]); hi >= lo {
			t.Errorf("cache %s fetched %v, cache %s %v", sweep[k][0], hi, sweep[k-2][0], lo)
		}
	}
	row := rep.Rows[5]
	if row[1] != "on" || row[0] != sweep[len(sweep)-1][0] {
		t.Fatalf("last row %v, want the largest cache size with push on", row)
	}
	if on, off := cellFloat(t, row[2]), bigCacheFetches; on >= off {
		t.Errorf("push on fetched %v, push off %v: the boxes held nothing", on, off)
	}
}

func TestAblationRecoveryShape(t *testing.T) {
	rep, err := AblationRecovery(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("%d rows, want 3 mechanisms", len(rep.Rows))
	}
	redisRecomp := cellFloat(t, rep.Rows[0][3])
	restoreRecomp := cellFloat(t, rep.Rows[1][3])
	if restoreRecomp > redisRecomp {
		t.Errorf("restore-remote recomputed more (%v) than default (%v)", restoreRecomp, redisRecomp)
	}
	if snapBytes := cellFloat(t, rep.Rows[2][4]); snapBytes == 0 {
		t.Error("snapshot baseline moved no bytes to stable storage")
	}
	if defBytes := cellFloat(t, rep.Rows[0][4]); defBytes != 0 {
		t.Error("paper recovery charged snapshot bytes")
	}
}

func TestRunDispatcher(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("13", true, false, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 13a") || !strings.Contains(out, "Figure 13b") {
		t.Fatalf("output missing figure titles:\n%s", out)
	}
	buf.Reset()
	if err := Run("11", true, true, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "vertices(M)") {
		t.Fatalf("CSV output missing header:\n%s", buf.String())
	}
	if err := Run("nope", true, false, &buf); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestReportFormatting(t *testing.T) {
	rep := Report{
		Title:  "T",
		Header: []string{"a", "bb"},
		Notes:  []string{"n1"},
	}
	rep.Add("1", "2")
	var buf bytes.Buffer
	rep.Print(&buf)
	out := buf.String()
	for _, want := range []string{"== T ==", "a", "bb", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,bb\n1,2\n" {
		t.Fatalf("CSV = %q", got)
	}
}

func TestAblationStealShape(t *testing.T) {
	rep, err := AblationSteal(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(fig10Nodes) {
		t.Fatalf("%d rows, want %d", len(rep.Rows), len(fig10Nodes))
	}
	last := rep.Rows[len(rep.Rows)-1]
	localSp := cellFloat(t, last[2])
	stealSp := cellFloat(t, last[4])
	if stealSp <= localSp {
		t.Fatalf("steal speedup %.2f not above local %.2f at 12 nodes", stealSp, localSp)
	}
	for _, row := range rep.Rows {
		if cellFloat(t, row[3]) > cellFloat(t, row[1]) {
			t.Fatalf("nodes=%s: steal slower than local (%s vs %s)", row[0], row[3], row[1])
		}
	}
}

// TestAblationSkewShape checks the quick skew table's structure; the Steal
// row's spread and probe ceilings on this grid are gated by
// scripts/bench_skew.sh in quick mode.
func TestAblationSkewShape(t *testing.T) {
	rep, err := AblationSkew(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("%d rows, want local + steal", len(rep.Rows))
	}
	off, on := rep.Rows[0], rep.Rows[1]
	// Columns: arm, time(s), spread, probes, parks, pushes, migrated.
	for _, col := range []int{3, 4, 5, 6} {
		if v := cellFloat(t, off[col]); v != 0 {
			t.Errorf("local %s = %s, want 0", rep.Header[col], off[col])
		}
	}
	if p, m := cellFloat(t, on[5]), cellFloat(t, on[6]); p != m {
		t.Errorf("pushes %s != migrated %s", on[5], on[6])
	}
	if cellFloat(t, on[5]) == 0 {
		t.Errorf("lifelines on but no pushes: %v", on)
	}
	if so, sn := cellFloat(t, off[2]), cellFloat(t, on[2]); sn >= so {
		t.Errorf("spread did not improve: local %.2f, steal %.2f", so, sn)
	}
}

func TestAblationSpillShape(t *testing.T) {
	rep, err := AblationSpill(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("%d rows, want in-memory + 3 budgets", len(rep.Rows))
	}
	for _, row := range rep.Rows[1:] {
		slow := cellFloat(t, row[3])
		if slow < 0.2 || slow > 50 {
			t.Errorf("pages=%s slowdown %.2f implausible", row[1], slow)
		}
	}
}

func TestAblationFaultsShape(t *testing.T) {
	rep, err := AblationFaults(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("%d rows, want faults 0..4", len(rep.Rows))
	}
	if norm := cellFloat(t, rep.Rows[0][3]); norm != 1.0 {
		t.Fatalf("fault-free normalized = %v, want 1.00", norm)
	}
	prevTime := 0.0
	for n, row := range rep.Rows {
		tm := cellFloat(t, row[2])
		if n > 0 {
			if tm <= prevTime {
				t.Errorf("faults=%s: time did not grow (%.3f <= %.3f)", row[0], tm, prevTime)
			}
			if cellFloat(t, row[4]) <= 0 {
				t.Errorf("faults=%s: no recovery time recorded", row[0])
			}
			if cellFloat(t, row[5]) <= 0 {
				t.Errorf("faults=%s: no recomputation recorded", row[0])
			}
		}
		prevTime = tm
	}
}

func TestAblationStragglerShape(t *testing.T) {
	rep, err := AblationStraggler(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("%d rows, want healthy + 3 slowdowns", len(rep.Rows))
	}
	// A straggler must hurt local scheduling progressively, and stealing
	// must absorb a substantial part of the damage at high slowdowns.
	prev := 1.0
	for _, row := range rep.Rows[1:] {
		localRel := cellFloat(t, row[2])
		if localRel < prev {
			t.Errorf("slowdown %s: local impact did not grow (%.2f < %.2f)", row[0], localRel, prev)
		}
		prev = localRel
		stealRel := cellFloat(t, row[4])
		if stealRel > localRel {
			t.Errorf("slowdown %s: stealing amplified the straggler (%.2f > %.2f)", row[0], stealRel, localRel)
		}
	}
	last := rep.Rows[len(rep.Rows)-1]
	if gain := cellFloat(t, last[5]); gain < 10 {
		t.Errorf("steal gain at 8x straggler only %.0f%%", gain)
	}
}

func TestRunFiles(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := RunFiles("13", true, dir, &buf); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 { // two reports x (.txt + .csv)
		names := []string{}
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("wrote %d files, want 4: %v", len(entries), names)
	}
	if err := RunFiles("nope", true, dir, &buf); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestAblationChaosShape(t *testing.T) {
	reports, err := AblationChaos(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("%d reports, want the engine ladder", len(reports))
	}
	engine := reports[0]
	if len(engine.Rows) != 5 {
		t.Fatalf("engine ladder has %d rows, want 5", len(engine.Rows))
	}
	if inj := cellFloat(t, engine.Rows[0][3]); inj != 0 {
		t.Fatalf("calm arm injected %v faults, want 0", inj)
	}
	for _, row := range engine.Rows[1:] {
		// Wall time under chaos is noisy at quick sizes; what must hold is
		// that the seeded plans actually fired.
		if cellFloat(t, row[3]) <= 0 {
			t.Errorf("arm %q injected nothing", row[0])
		}
	}
}

func TestChaosSimSweepShape(t *testing.T) {
	sim, err := chaosSimSweep(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.Rows) != 7 {
		t.Fatalf("sim sweep has %d rows, want 7", len(sim.Rows))
	}
	if norm := cellFloat(t, sim.Rows[0][3]); norm != 1.0 {
		t.Fatalf("chaos-free normalized = %v, want 1.00", norm)
	}
	// Every message costs more under chaos, but with six cores a place the
	// table's makespan is not monotone in message cost: shifted ready times
	// change which vertex a core takes next (the quick table reads 0.228 at
	// drop 0 and 0.227 at drop 0.05), and that list-scheduling reordering can
	// finish a little sooner. So the table's drop rows may sit at most 1%
	// below the chaos-free one; the strict check runs where the model
	// guarantees it. With a core for every tile row no vertex waits for one,
	// each finishes at its latest dependency's arrival plus its own fetch
	// and compute, all non-decreasing in every message's cost, so the same
	// sweep's makespan must rise at every drop step.
	base := cellFloat(t, sim.Rows[0][2])
	prev := 0.0
	for _, row := range sim.Rows[:5] { // drop sweep at zero delay
		if mk := cellFloat(t, row[2]); mk < 0.99*base {
			t.Errorf("drop=%s: makespan %.3f more than 1%% below chaos-free %.3f", row[0], mk, base)
		}
		drop := cellFloat(t, row[0])
		res, err := SimApp(Specs()[0], 3*million, 8, func(m *simcluster.Model) {
			m.CoresPerPlace = simGrid
			m.ChaosDropProb = drop
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan <= prev {
			t.Errorf("drop=%s with free cores: makespan %.6f not above %.6f", row[0], res.Makespan, prev)
		}
		prev = res.Makespan
	}
	if worst := cellFloat(t, sim.Rows[4][2]); worst <= base {
		t.Errorf("drop 0.50 makespan %.3f not above chaos-free %.3f", worst, base)
	}
	msgs := cellFloat(t, sim.Rows[0][4])
	for _, row := range sim.Rows[1:] {
		if cellFloat(t, row[4]) != msgs {
			t.Errorf("drop=%s delay=%s: message count changed under chaos", row[0], row[1])
		}
	}
}

// TestSimulatedTablesMatchResults regenerates every simulated table that
// results/ holds at paper scale and compares its CSV byte for byte with the
// committed file: the simulator is deterministic, so any change to its
// model or to the table builders shows here, and the committed tables stay
// reproducible from the tree.
func TestSimulatedTablesMatchResults(t *testing.T) {
	if raceEnabled {
		t.Skip("paper-scale simulation is slow under the race detector")
	}
	for _, fig := range []string{"10", "11", "13", "chaos-sim", "faults", "steal", "straggler"} {
		reports, err := Figures[fig](false)
		if err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
		for _, rep := range reports {
			name := slug(rep.Title) + ".csv"
			want, err := os.ReadFile(filepath.Join("..", "..", "results", name))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := rep.WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("fig %s: regenerated CSV differs from results/%s\ngot:\n%swant:\n%s", fig, name, got.Bytes(), want)
			}
		}
	}
}
