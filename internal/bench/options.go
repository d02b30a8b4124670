package bench

import (
	"time"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/core"
	"github.com/dpx10/dpx10/internal/option"
)

// ExtraRunOptions is appended to every real-runtime run the figures
// launch. dpx10-bench threads observability options (metrics observer,
// span log) through every ablation arm with it, without each figure
// knowing they exist. Simulator-only figures (10/11/13) ignore it.
var ExtraRunOptions []dpx10.UntypedOption

// typed adapts untyped options to a concrete value type: an UntypedOption
// is Option[any], and every Option[T] carries the same method set, so the
// interface conversion is direct.
func typed[T any](opts []dpx10.UntypedOption) []dpx10.Option[T] {
	out := make([]dpx10.Option[T], len(opts))
	for i, o := range opts {
		out[i] = o
	}
	return out
}

// The switches below exist only to measure the engine against itself, so
// they stay out of package dpx10's public options.

// withoutAggregation is the baseline arm of the agg ablation: the
// aggregator's batch cap drops to one settlement — what one unit owes one
// destination — so every settlement leaves on its own the moment it is
// produced, and no value is pushed. With WithTileSize(1), where a unit is
// one vertex, that is the paper's §VI-C behaviour: one message per
// completed vertex per destination. Job-scoped.
func withoutAggregation() dpx10.UntypedOption {
	return option.Job("WithoutAggregation", func(c *core.Common) {
		c.AggMaxBatch = 1
		c.PushDisabled = true
	})
}

// WithoutValuePush keeps decrement aggregation but stops piggybacking
// finished vertex values onto the batches, isolating coalescing from
// fetch avoidance for measurement. Job-scoped.
func WithoutValuePush() dpx10.UntypedOption {
	return option.Job("WithoutValuePush", func(c *core.Common) { c.PushDisabled = true })
}

// WithRetry tunes the reliable delivery layer (and enables it): max is the
// attempt budget per message (0 = retry until the destination is declared
// dead), base the initial backoff and maxDelay its cap. Zero durations
// keep the defaults (500µs, 50ms). Cluster-scoped.
func WithRetry(max int, base, maxDelay time.Duration) dpx10.UntypedOption {
	return option.Cluster("WithRetry", func(c *core.Common) {
		c.Reliable = true
		c.RetryMax = max
		c.RetryBase = base
		c.RetryMaxDelay = maxDelay
	})
}
