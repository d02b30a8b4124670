package bench

import "fmt"

// fig10Nodes are the x-axis points of Figure 10.
var fig10Nodes = []int{2, 4, 6, 8, 10, 12}

// Fig10 reproduces Figure 10: execution time of the four evaluation
// applications at a fixed 300 M vertices while the node count grows from
// 2 to 12 (places = 2×nodes, 6 worker threads per place). The paper's
// claims: time drops steeply then plateaus; SWLAG/MTP/LPS reach a speedup
// of about 4 at 6× the nodes, 0/1KP only about 3.
func Fig10(quick bool) ([]Report, error) {
	totalCells := int64(300) * million
	if quick {
		totalCells = 3 * million
	}
	var reports []Report
	for _, spec := range Specs() {
		rep := Report{
			Title:  fmt.Sprintf("Figure 10 — %s, %d M vertices, 2..12 nodes", spec.Name, totalCells/million),
			Header: []string{"nodes", "places", "cores", "time(s)", "speedup"},
		}
		var base float64
		for _, nodes := range fig10Nodes {
			res, err := SimApp(spec, totalCells, nodes, nil)
			if err != nil {
				return nil, fmt.Errorf("fig10 %s nodes=%d: %w", spec.Name, nodes, err)
			}
			if nodes == fig10Nodes[0] {
				base = res.Makespan
			}
			rep.Add(d(int64(nodes)), d(int64(nodesToPlaces(nodes))),
				d(int64(nodesToPlaces(nodes)*threadsPerPlace)),
				f3(res.Makespan), f2(base/res.Makespan))
		}
		rep.Notes = append(rep.Notes,
			"simulated cluster (tile-level discrete-event model); speedup is vs the 2-node run")
		reports = append(reports, rep)
	}
	return reports, nil
}
