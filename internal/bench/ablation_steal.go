package bench

import (
	"fmt"

	"github.com/dpx10/dpx10/internal/simcluster"
)

// AblationSteal studies whether work stealing repairs the 0/1 knapsack's
// weak scaling from Figure 10. The paper attributes 0/1KP's speedup of
// only ~3 to its dependency structure; at high node counts the row
// distribution leaves some places owning twice the item rows of others,
// and idle places just wait. Stealing lets them pull ready vertices, so
// the 0/1KP curve should move toward the other applications' ~4-5×.
// (The paper lists work-stealing schedulers as planned work, citing SLAW
// and X10's work-stealing runtime.)
func AblationSteal(quick bool) (Report, error) {
	totalCells := int64(300) * million
	if quick {
		totalCells = 3 * million
	}
	spec := Specs()[3] // 0/1KP
	rep := Report{
		Title:  "Ablation — work stealing vs the 0/1KP scaling gap (simulated cluster)",
		Header: []string{"nodes", "local(s)", "speedup", "steal(s)", "speedup", "improvement"},
	}
	var baseLocal, baseSteal float64
	for _, nodes := range fig10Nodes {
		local, err := SimApp(spec, totalCells, nodes, nil)
		if err != nil {
			return rep, fmt.Errorf("steal ablation nodes=%d: %w", nodes, err)
		}
		steal, err := SimApp(spec, totalCells, nodes, func(m *simcluster.Model) { m.Steal = true })
		if err != nil {
			return rep, fmt.Errorf("steal ablation nodes=%d: %w", nodes, err)
		}
		if nodes == fig10Nodes[0] {
			baseLocal, baseSteal = local.Makespan, steal.Makespan
		}
		rep.Add(d(int64(nodes)), f3(local.Makespan), f2(baseLocal/local.Makespan),
			f3(steal.Makespan), f2(baseSteal/steal.Makespan),
			fmt.Sprintf("%.0f%%", 100*(1-steal.Makespan/local.Makespan)))
	}
	rep.Notes = append(rep.Notes,
		"paper Fig 10d: 0/1KP reaches only ~3x at 12 nodes under local scheduling",
		"steal = idle places pull ready vertices, paying the owner's fetch cost for each dependency they do not hold + result write-back")
	return rep, nil
}
