package bench

import (
	"fmt"

	"github.com/dpx10/dpx10/internal/simcluster"
)

// AblationStraggler studies a slow node — the failure mode between
// healthy and dead that the paper's fault model does not cover: one place
// computes k× slower than the rest (background load, thermal throttling,
// a failing disk). Under local scheduling the whole wavefront drags at
// the straggler's pace once its rows gate the frontier; work stealing
// lets the healthy places pull the straggler's ready vertices.
func AblationStraggler(quick bool) (Report, error) {
	totalCells := int64(300) * million
	if quick {
		totalCells = 3 * million
	}
	spec := Specs()[0] // SWLAG
	const nodes = 6
	places := nodesToPlaces(nodes)

	rep := Report{
		Title:  fmt.Sprintf("Extension — one straggling place (SWLAG, %d M vertices, %d nodes)", totalCells/million, nodes),
		Header: []string{"slowdown", "local(s)", "vs healthy", "steal(s)", "vs healthy", "steal gain"},
	}
	run := func(slow float64, steal bool) (float64, error) {
		res, err := SimApp(spec, totalCells, nodes, func(m *simcluster.Model) {
			m.Steal = steal
			m.PlaceSpeed = make([]float64, places)
			m.PlaceSpeed[places/2] = slow
		})
		return res.Makespan, err
	}

	healthyLocal, err := run(1, false)
	if err != nil {
		return rep, err
	}
	healthySteal, err := run(1, true)
	if err != nil {
		return rep, err
	}
	rep.Add("1x (healthy)", f3(healthyLocal), "1.00", f3(healthySteal), "1.00", "-")
	for _, slow := range []float64{2, 4, 8} {
		local, err := run(slow, false)
		if err != nil {
			return rep, err
		}
		steal, err := run(slow, true)
		if err != nil {
			return rep, err
		}
		rep.Add(fmt.Sprintf("%.0fx", slow), f3(local), f2(local/healthyLocal),
			f3(steal), f2(steal/healthySteal),
			fmt.Sprintf("%.0f%%", 100*(1-steal/local)))
	}
	rep.Notes = append(rep.Notes,
		"the middle place computes `slowdown` times slower than the rest",
		"vs healthy = makespan relative to the same strategy with no straggler")
	return rep, nil
}
