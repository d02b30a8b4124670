package bench

import (
	"fmt"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/apps"
	"github.com/dpx10/dpx10/internal/workload"
)

// AblationTileSize sweeps the scheduling granularity on the real runtime:
// the same SWLAG wavefront executed with tiles of 1 cell (the engine's
// original per-vertex scheduling), a few fixed sizes, and the auto pick.
// Coarser tiles amortize deque traffic, dependency-gathering and
// decrement bookkeeping over whole tiles — the per-vertex overhead that
// Figure 12's low per-cell-cost regime exposes — at the price of coarser
// load-balancing units and a coarser recovery resume scan. The fixed sizes
// run at the default 2 threads a place; the auto pick, which sizes tiles by
// the worker count, runs at 1, 2 and 4.
func AblationTileSize(quick bool) (Report, error) {
	side := 400
	if quick {
		side = 150
	}
	a := workload.Sequence(side, workload.DNA, 7)
	b := workload.Sequence(side, workload.DNA, 8)
	rep := Report{
		Title:  "Ablation — tile size (SWLAG, real runtime, 4 places)",
		Header: []string{"tile", "threads", "time(s)", "tileTasks", "cells/task", "msgs", "remoteFetches", "layout"},
	}
	for _, arm := range []struct{ tile, threads int }{{1, 2}, {4, 2}, {16, 2}, {64, 2}, {256, 2}, {0, 1}, {0, 2}, {0, 4}} {
		app := apps.NewSWLAG(a, b)
		dag, err := dpx10.Run[apps.AffineCell](app, app.Pattern(),
			append(typed[apps.AffineCell](ExtraRunOptions),
				dpx10.Places(4),
				dpx10.Threads(arm.threads),
				dpx10.WithCodec[apps.AffineCell](app.Codec()),
				dpx10.WithTileSize(arm.tile))...)
		if err != nil {
			return rep, fmt.Errorf("tile ablation tile=%d threads=%d: %w", arm.tile, arm.threads, err)
		}
		if quick {
			if err := app.Verify(dag); err != nil {
				return rep, err
			}
		}
		s := dag.Stats()
		label := fmt.Sprintf("%d", arm.tile)
		if arm.tile == 0 {
			label = "auto"
		}
		perTask := float64(s.ComputedCells)
		if s.TilesExecuted > 0 {
			perTask /= float64(s.TilesExecuted)
		}
		rep.Add(label, d(int64(arm.threads)), fmt.Sprintf("%.3f", dag.Elapsed().Seconds()),
			d(s.TilesExecuted), f2(perTask), d(s.MsgsSent), d(s.RemoteFetches), s.TileLayout)
	}
	rep.Notes = append(rep.Notes,
		"tile=1 is the pre-tiling engine: one schedulable task per vertex",
		"auto targets ~16 tiles per worker thread (at least 64 a place under a column split), clamped to [8, 2048] cells",
		"layout: places x (local box in tile); the engine picks the tile's shape for the asked cell count",
		"intra-tile dependencies resolve in the tile task's loop: no deque ops, no decrement messages")
	return rep, nil
}
