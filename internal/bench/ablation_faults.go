package bench

import "fmt"

// AblationFaults extends Figure 13 to multiple failures: SWLAG on 8 nodes
// with k faults injected at evenly spaced progress points. Each recovery
// redistributes over fewer survivors, so both the per-recovery scan and
// the recomputed work grow — the experiment quantifies how gracefully the
// paper's mechanism degrades (one fault is Figure 13's case; the paper
// does not evaluate more).
func AblationFaults(quick bool) (Report, error) {
	totalCells := int64(300) * million
	if quick {
		totalCells = 3 * million
	}
	spec := Specs()[0] // SWLAG
	const nodes = 8
	places := nodesToPlaces(nodes)

	rep := Report{
		Title:  fmt.Sprintf("Extension — multiple faults (SWLAG, %d M vertices, %d nodes)", totalCells/million, nodes),
		Header: []string{"faults", "survivors", "time(s)", "normalized", "recovery(s)", "recomputed(tiles)"},
	}
	var base float64
	var active int64 // tiles computed by the fault-free run
	for faults := 0; faults <= 4; faults++ {
		// Each fault kills the highest surviving place.
		var kills []int
		for k := 1; k <= faults; k++ {
			kills = append(kills, places-k)
		}
		res, err := SimApp(spec, totalCells, nodes, nil, kills...)
		if err != nil {
			return rep, fmt.Errorf("faults=%d: %w", faults, err)
		}
		if faults == 0 {
			base, active = res.Makespan, res.ComputedCells
		}
		rep.Add(d(int64(faults)), d(int64(places-faults)), f3(res.Makespan),
			f2(res.Makespan/base), f3(res.RecoveryTime), d(res.ComputedCells-active))
	}
	rep.Notes = append(rep.Notes,
		"faults are spread evenly across the run; each kills the highest surviving place",
		"normalized = makespan / fault-free makespan (Figure 13b generalized)")
	return rep, nil
}
