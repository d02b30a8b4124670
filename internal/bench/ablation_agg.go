package bench

import (
	"fmt"
	"time"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/apps"
	"github.com/dpx10/dpx10/internal/workload"
)

// aggArm is one configuration of the aggregation ablation.
type aggArm struct {
	name string
	opts []dpx10.Option[apps.AffineCell]
}

// AblationAgg measures cross-place decrement aggregation and value push on
// the real runtime: outbound messages coalesced per destination by the
// self-clocked flusher, with finished values piggybacked into the boxes of the
// tiles that read them instead of kindFetch round-trips. Every arm runs with the
// same cache capacity so the push arms differ only in *how* values arrive.
// The baseline arm also runs at tile size 1, so that each vertex settles
// alone and "one message per vertex" holds literally.
func AblationAgg(quick bool) ([]Report, error) {
	side := 400
	items, capacity := 160, int32(700)
	if quick {
		side = 150
		items, capacity = 64, 280
	}
	const cache = 4096

	a := workload.Sequence(side, workload.DNA, 11)
	b := workload.Sequence(side, workload.DNA, 12)
	swlag := Report{
		Title: "Ablation — decrement aggregation + value push (SWLAG, block-row, 6 places)",
		Header: []string{"arm", "time(s)", "sendsOut", "fetchCalls",
			"batches", "coalesce", "pushUsed", "bytes"},
	}
	arms := []aggArm{
		{"off (1 msg/vertex)", []dpx10.Option[apps.AffineCell]{
			dpx10.WithoutAggregation(), dpx10.WithTileSize(1)}},
		{"agg only", []dpx10.Option[apps.AffineCell]{
			dpx10.WithoutValuePush()}},
		{"agg+push (default)", nil},
	}
	for _, arm := range arms {
		app := apps.NewSWLAG(a, b)
		opts := append([]dpx10.Option[apps.AffineCell]{
			dpx10.Places(6),
			dpx10.WithCodec[apps.AffineCell](app.Codec()),
			dpx10.CacheSize(cache),
		}, arm.opts...)
		opts = append(opts, extra[apps.AffineCell]()...)
		dag, err := dpx10.Run[apps.AffineCell](app, app.Pattern(), opts...)
		if err != nil {
			return nil, fmt.Errorf("agg ablation swlag %s: %w", arm.name, err)
		}
		if quick {
			if err := app.Verify(dag); err != nil {
				return nil, fmt.Errorf("agg ablation swlag %s: %w", arm.name, err)
			}
		}
		swlag.Add(aggRow(arm.name, dag.Elapsed(), dag.Stats())...)
	}
	swlag.Notes = append(swlag.Notes,
		"coalesce = settlements per aggregated batch (higher = fewer messages); a settlement is what one unit owes one destination, one vertex at tile size 1",
		"pushUsed = dependency reads served by a sender-pushed value (fetch round-trips avoided)",
		"every arm runs with the same cache capacity; only the delivery mechanism differs")

	kp := Report{
		Title: "Ablation — decrement aggregation + value push (0/1 knapsack, 6 places)",
		Header: []string{"arm", "time(s)", "sendsOut", "fetchCalls",
			"batches", "coalesce", "pushUsed", "bytes"},
	}
	kpArms := []struct {
		name string
		opts []dpx10.Option[int64]
	}{
		{"off (1 msg/vertex)", []dpx10.Option[int64]{dpx10.WithoutAggregation(), dpx10.WithTileSize(1)}},
		{"agg only", []dpx10.Option[int64]{dpx10.WithoutValuePush()}},
		{"agg+push (default)", nil},
	}
	for _, arm := range kpArms {
		app := apps.NewRandomKnapsack(items, 25, 100, capacity, 11)
		pat, err := app.Pattern()
		if err != nil {
			return nil, fmt.Errorf("agg ablation knapsack: %w", err)
		}
		opts := append([]dpx10.Option[int64]{
			dpx10.Places(6),
			dpx10.WithCodec[int64](dpx10.Int64Codec{}),
			dpx10.CacheSize(cache),
		}, arm.opts...)
		opts = append(opts, extra[int64]()...)
		dag, err := dpx10.Run[int64](app, pat, opts...)
		if err != nil {
			return nil, fmt.Errorf("agg ablation knapsack %s: %w", arm.name, err)
		}
		if quick {
			if err := app.Verify(dag); err != nil {
				return nil, fmt.Errorf("agg ablation knapsack %s: %w", arm.name, err)
			}
		}
		kp.Add(aggRow(arm.name, dag.Elapsed(), dag.Stats())...)
	}
	return []Report{swlag, kp}, nil
}

// aggRow renders one ablation arm's stats as a report row.
func aggRow(name string, elapsed time.Duration, s dpx10.Stats) []string {
	coalesce := 0.0
	if s.AggBatches > 0 {
		coalesce = float64(s.DecrsCoalesced) / float64(s.AggBatches)
	}
	return []string{
		name, fmt.Sprintf("%.3f", elapsed.Seconds()),
		d(s.SendsOut), d(s.FetchCalls), d(s.AggBatches),
		f2(coalesce), d(s.PushConsumed), d(s.BytesSent),
	}
}
