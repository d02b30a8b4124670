package bench

import (
	"fmt"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/apps"
	"github.com/dpx10/dpx10/internal/workload"
)

// AblationSpill measures the cost of the disk-spilling value store — the
// paper's §X future work ("spilling some data to local disk to enable
// computations on large scale of DP problems") — by running the same
// SWLAG instance with values fully in RAM and with progressively tighter
// resident-page budgets.
func AblationSpill(quick bool) (Report, error) {
	side := 700
	if quick {
		side = 250
	}
	a := workload.Sequence(side, workload.DNA, 5)
	b := workload.Sequence(side, workload.DNA, 6)
	rep := Report{
		Title:  "Ablation — disk-spilled vertex values (SWLAG, real runtime, 4 places)",
		Header: []string{"mode", "residentPages", "time(s)", "slowdown"},
	}
	run := func(pages int) (float64, error) {
		app := apps.NewSWLAG(a, b)
		opts := append(typed[apps.AffineCell](ExtraRunOptions),
			dpx10.Places(4),
			dpx10.WithCodec[apps.AffineCell](app.Codec()),
		)
		if pages > 0 {
			opts = append(opts, dpx10.WithSpill("", 512, pages))
		}
		dag, err := dpx10.Run[apps.AffineCell](app, app.Pattern(), opts...)
		if err != nil {
			return 0, err
		}
		if quick {
			if err := app.Verify(dag); err != nil {
				return 0, err
			}
		}
		return dag.Elapsed().Seconds(), nil
	}

	base, err := run(0)
	if err != nil {
		return rep, fmt.Errorf("spill ablation baseline: %w", err)
	}
	rep.Add("in-memory", "-", fmt.Sprintf("%.3f", base), "1.00")
	for _, pages := range []int{64, 16, 4} {
		sec, err := run(pages)
		if err != nil {
			return rep, fmt.Errorf("spill ablation pages=%d: %w", pages, err)
		}
		rep.Add("spilled", d(int64(pages)), fmt.Sprintf("%.3f", sec), f2(sec/base))
	}
	rep.Notes = append(rep.Notes,
		"512 vertex values per page; residentPages bounds RAM per place",
		"each place's values are laid out tile by tile, so a tile's walk touches a few consecutive pages")
	return rep, nil
}
