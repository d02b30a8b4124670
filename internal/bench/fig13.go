package bench

import "fmt"

// Fig13 reproduces Figure 13: the cost of the recovery mechanism, using
// SWLAG with one fault injected manually at 50% progress, on 4 and 8
// nodes with 100 M–500 M vertices.
//
// (a) Recovery time: grows linearly with the vertex count and roughly
// halves from 4 to 8 nodes because the recovery executes in parallel on
// all alive places (the paper measured 13→65 s on 4 nodes and 6→30 s on
// 8 nodes).
//
// (b) Normalized execution time with one fault (relative to the
// fault-free run): the impact of a failure shrinks as nodes are added.
func Fig13(quick bool) (Report, Report, error) {
	sizes := []int64{100, 200, 300, 400, 500}
	unit := int64(million)
	if quick {
		unit = million / 100
	}
	spec := Specs()[0] // SWLAG
	nodeCounts := []int{4, 8}

	recRep := Report{
		Title:  "Figure 13a — recovery time, SWLAG, one fault at 50% progress",
		Header: []string{"vertices(M)", "recovery@4nodes(s)", "recovery@8nodes(s)"},
	}
	normRep := Report{
		Title:  "Figure 13b — normalized execution time with one fault",
		Header: []string{"vertices(M)", "normalized@4nodes", "normalized@8nodes"},
	}
	for _, size := range sizes {
		total := size * unit
		recRow := []string{d(size * unit / million)}
		normRow := []string{d(size * unit / million)}
		for _, nodes := range nodeCounts {
			clean, err := SimApp(spec, total, nodes, nil)
			if err != nil {
				return recRep, normRep, fmt.Errorf("fig13 clean nodes=%d: %w", nodes, err)
			}
			// Kill the last place, as the paper's manual fault does.
			faulted, err := SimApp(spec, total, nodes, nil, nodesToPlaces(nodes)-1)
			if err != nil {
				return recRep, normRep, fmt.Errorf("fig13 fault nodes=%d: %w", nodes, err)
			}
			recRow = append(recRow, f3(faulted.RecoveryTime))
			normRow = append(normRow, f2(faulted.Makespan/clean.Makespan))
		}
		recRep.Add(recRow...)
		normRep.Add(normRow...)
	}
	recRep.Notes = append(recRep.Notes,
		"paper: 13..65 s on 4 nodes, 6..30 s on 8 nodes; linear in size, halved by doubling nodes")
	normRep.Notes = append(normRep.Notes,
		"paper: the impact of one failure reduces with the number of computing nodes")
	return recRep, normRep, nil
}
