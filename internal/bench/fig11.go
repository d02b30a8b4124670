package bench

import "fmt"

// Fig11 reproduces Figure 11: execution time of the four applications on
// a fixed 10 nodes (20 places, 120 cores) while the vertex count grows
// from 100 M to 1 B. The paper's claim: time grows linearly with size,
// with 0/1KP a little above the other three because its dependency
// resolution is more expensive.
func Fig11(quick bool) (Report, error) {
	const nodes = 10
	sizes := []int64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	unit := int64(million)
	if quick {
		unit = million / 100 // 1M .. 10M cells
	}
	rep := Report{
		Title:  "Figure 11 — execution time on 10 nodes (120 cores), 100M..1B vertices",
		Header: []string{"vertices(M)"},
	}
	for _, spec := range Specs() {
		rep.Header = append(rep.Header, spec.Name+"(s)")
	}
	for _, size := range sizes {
		total := size * unit
		row := []string{d(size * unit / million)}
		for _, spec := range Specs() {
			res, err := SimApp(spec, total, nodes, nil)
			if err != nil {
				return rep, fmt.Errorf("fig11 %s size=%dM: %w", spec.Name, size, err)
			}
			row = append(row, f3(res.Makespan))
		}
		rep.Add(row...)
	}
	rep.Notes = append(rep.Notes,
		"simulated cluster; the paper reports linear growth with 0/1KP slightly above the rest")
	return rep, nil
}
