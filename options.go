package dpx10

import (
	"fmt"
	"time"

	"github.com/dpx10/dpx10/internal/core"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/distarray"
	"github.com/dpx10/dpx10/internal/sched"
	"github.com/dpx10/dpx10/internal/trace"
	"github.com/dpx10/dpx10/internal/transport"
)

// Option configures a run. Most options are independent of the vertex value
// type and are written without a type argument:
//
//	dpx10.Run[int32](app, pattern, dpx10.Places(8), dpx10.Threads(6))
//
// Only value-typed settings (WithCodec, WithSnapshotRecovery) remain
// generic; both forms mix freely in one option list. The interface is
// satisfied through unexported methods whose signatures do not mention T,
// which is what lets an untyped option satisfy Option[T] for every T.
//
// Every option has a scope. Cluster-scoped options shape the places
// (Places, Threads, transport, chaos, metrics, admission); job-scoped
// options shape one computation (strategy, cache, tile size, codec,
// distribution, recovery). The one-shot entry points (Run, Launch) accept
// both in one list; the session API enforces the split — NewCluster
// rejects job-scoped options and Submit rejects cluster-scoped ones, each
// with an *OptionScopeError.
type Option[T any] interface {
	// applyTo receives a *core.Config[T]; implementations either use the
	// type-independent core.Common via the CommonConfig accessor or assert
	// the concrete config type.
	applyTo(cfg any)
	// optionInfo names the option and reports its scope, for the session
	// API's scope enforcement.
	optionInfo() (name string, scope optionScope)
}

// UntypedOption is the type returned by the type-independent option
// constructors. It satisfies Option[T] for every vertex value type T.
type UntypedOption = Option[any]

// optionScope classifies where an option may appear.
type optionScope uint8

const (
	// scopeCluster: configures the places; valid in NewCluster and the
	// one-shot entry points, rejected by Submit.
	scopeCluster optionScope = iota + 1
	// scopeJob: configures one computation; valid in Submit and the
	// one-shot entry points, rejected by NewCluster.
	scopeJob
)

func (s optionScope) String() string {
	if s == scopeCluster {
		return "cluster"
	}
	return "job"
}

// OptionScopeError reports an option passed where its scope does not
// allow: a job-scoped option in NewCluster, or a cluster-scoped option in
// Submit. The one-shot entry points accept both scopes and never return
// it.
type OptionScopeError struct {
	// Option is the constructor name, e.g. "Places" or "WithTileSize".
	Option string
	// Scope is the option's scope: "cluster" or "job".
	Scope string
	// Call is where the option was misplaced: "NewCluster" or "Submit".
	Call string
}

func (e *OptionScopeError) Error() string {
	return fmt.Sprintf("dpx10: %s is a %s-scoped option and cannot be passed to %s", e.Option, e.Scope, e.Call)
}

// commonOption mutates the type-independent half of the configuration.
type commonOption struct {
	name  string
	scope optionScope
	fn    func(*core.Common)
}

func (o commonOption) applyTo(cfg any) {
	cc, ok := cfg.(interface{ CommonConfig() *core.Common })
	if !ok {
		panic(fmt.Sprintf("dpx10: option applied to unsupported config %T", cfg))
	}
	o.fn(cc.CommonConfig())
}

func (o commonOption) optionInfo() (string, optionScope) { return o.name, o.scope }

// clusterOpt and jobOpt build the untyped option values.
func clusterOpt(name string, fn func(*core.Common)) UntypedOption {
	return commonOption{name: name, scope: scopeCluster, fn: fn}
}

func jobOpt(name string, fn func(*core.Common)) UntypedOption {
	return commonOption{name: name, scope: scopeJob, fn: fn}
}

// typedOption mutates the full, value-typed configuration. Every typed
// option is job-scoped: it configures the computation, not the places.
type typedOption[T any] struct {
	name string
	fn   func(*core.Config[T])
}

func (o typedOption[T]) applyTo(cfg any) {
	c, ok := cfg.(*core.Config[T])
	if !ok {
		panic(fmt.Sprintf("dpx10: option for value type %T applied to config %T", o, cfg))
	}
	o.fn(c)
}

func (o typedOption[T]) optionInfo() (string, optionScope) { return o.name, scopeJob }

// Places sets the number of places — X10_NPLACES (default 1).
// Cluster-scoped.
func Places(n int) UntypedOption {
	return clusterOpt("Places", func(c *core.Common) { c.Places = n })
}

// Threads sets the per-place worker pool width — X10_NTHREADS (default 2).
// Cluster-scoped: the worker pools are shared by every job on the places.
func Threads(n int) UntypedOption {
	return clusterOpt("Threads", func(c *core.Common) { c.Threads = n })
}

// MaxActiveJobs bounds how many jobs a cluster admits concurrently;
// submissions beyond the bound queue FIFO until a running job finishes.
// 0 keeps the default of 2; negative removes the bound. Cluster-scoped.
func MaxActiveJobs(n int) UntypedOption {
	return clusterOpt("MaxActiveJobs", func(c *core.Common) { c.MaxActiveJobs = n })
}

// Strategy selects the vertex scheduling policy (paper §VI-C).
type Strategy = sched.Strategy

// Scheduling strategies.
const (
	LocalScheduling   = sched.Local
	RandomScheduling  = sched.Random
	MinCommScheduling = sched.MinComm
	// StealScheduling keeps execution owner-local and balances load with
	// GLB lifelines (Saraswat et al.) — this repository's extension in the
	// direction of the work-stealing schedulers the paper cites. An idle
	// place makes two random steal probes, then parks on its ceil(log2 P)
	// lifeline buddies (a cyclic hypercube over the alive places) and goes
	// quiet; a victim with surplus ready tiles pushes whole tiles to its
	// parked buddies, which forward their own excess along their lifelines.
	StealScheduling = sched.Steal
)

// WithStrategy sets the scheduling strategy (default local). Job-scoped.
func WithStrategy(s Strategy) UntypedOption {
	return jobOpt("WithStrategy", func(c *core.Common) { c.Strategy = s })
}

// CacheSize sets the per-place remote-vertex cache capacity in entries
// (paper §VI-E "Cache size"); 0 disables the cache and, with it, value push.
// Values other places push wait at a place until the tiles that read them
// run, bounded by the place's own cell count, not by this size. Job-scoped:
// every job has its own cache.
func CacheSize(entries int) UntypedOption {
	return jobOpt("CacheSize", func(c *core.Common) { c.CacheSize = entries })
}

// WithTileSize sets the scheduling granularity: each place cuts its part of
// the matrix into rectangular tiles of about this many cells — the engine
// picks the shape from the distribution, and Stats.TileLayout reports it —
// tracks readiness per tile and executes a ready tile as one task in
// intra-tile dependency order — removing per-vertex queueing and intra-tile
// decrement traffic. 0 (the default) auto-sizes per place; 1 restores
// per-vertex scheduling. Patterns whose tile quotient graph would be cyclic
// under the chosen tile fall back to per-vertex scheduling automatically
// (the run stays correct, just untiled). Job-scoped.
func WithTileSize(cells int) UntypedOption {
	return jobOpt("WithTileSize", func(c *core.Common) { c.TileSize = cells })
}

// WithoutAggregation is the baseline arm of the agg ablation: the
// aggregator's batch cap drops to one settlement — what one unit owes one
// destination — so every settlement leaves on its own the moment it is
// produced, and no value is pushed. With WithTileSize(1), where a unit is
// one vertex, that is the paper's §VI-C behaviour: one message per
// completed vertex per destination. Job-scoped.
func WithoutAggregation() UntypedOption {
	return jobOpt("WithoutAggregation", func(c *core.Common) {
		c.AggMaxBatch = 1
		c.PushDisabled = true
	})
}

// WithoutValuePush keeps decrement aggregation but stops piggybacking
// finished vertex values onto the batches, isolating coalescing from
// fetch avoidance for measurement. Job-scoped.
func WithoutValuePush() UntypedOption {
	return jobOpt("WithoutValuePush", func(c *core.Common) { c.PushDisabled = true })
}

// RestoreRemote makes recovery copy finished vertices to their new owners
// instead of recomputing them — the paper's §VI-E "Restore manner" switch
// for computations that cost more than communication. Job-scoped.
func RestoreRemote() UntypedOption {
	return jobOpt("RestoreRemote", func(c *core.Common) { c.RestoreRemote = true })
}

// WithHeartbeat configures the failure detector: place 0 heartbeats every
// other place (and every other place heartbeats place 0 in the TCP
// deployment) once per interval, and threshold consecutive missed
// heartbeats declare a place dead. A negative interval disables the
// detector; 0 keeps the default of 25ms, and threshold 0 the default of 3. Cluster-scoped: one detector serves
// every job.
//
// The detection window for an unannounced crash is therefore bounded by
// roughly interval × threshold plus one round-trip.
func WithHeartbeat(interval time.Duration, threshold int) UntypedOption {
	return clusterOpt("WithHeartbeat", func(c *core.Common) {
		c.ProbeInterval = interval
		c.SuspicionThreshold = threshold
	})
}

// WithReliableDelivery turns on the reliable delivery layer: protocol
// messages carry sequence numbers, transient send failures are retried
// with exponential backoff and jitter, and receivers suppress duplicate
// deliveries. Chaos injection (WithChaos) enables it automatically.
// Cluster-scoped: it changes the shared wire format.
func WithReliableDelivery() UntypedOption {
	return clusterOpt("WithReliableDelivery", func(c *core.Common) { c.Reliable = true })
}

// WithRetry tunes the reliable delivery layer (and enables it): max is the
// attempt budget per message (0 = retry until the destination is declared
// dead), base the initial backoff and maxDelay its cap. Zero durations
// keep the defaults (500µs, 50ms). Cluster-scoped.
func WithRetry(max int, base, maxDelay time.Duration) UntypedOption {
	return clusterOpt("WithRetry", func(c *core.Common) {
		c.Reliable = true
		c.RetryMax = max
		c.RetryBase = base
		c.RetryMaxDelay = maxDelay
	})
}

// WithChaos wires a fault-injection plan into the run's transport: every
// place's outbound messages pass through a FaultFabric driven by the plan.
// Reliable delivery is enabled automatically — injected faults are meant
// to be tolerated, not to corrupt the run. Cluster-scoped: the fabric
// carries every job's traffic.
func WithChaos(plan *ChaosPlan) UntypedOption {
	return clusterOpt("WithChaos", func(c *core.Common) { c.Chaos = plan })
}

// WithEvents registers a structured run-event callback: place suspicion
// and death, recovery start/finish, chaos injections. fn runs on a
// dedicated goroutine; slow consumers drop events rather than stall the
// run. Cluster-scoped.
func WithEvents(fn func(Event)) UntypedOption {
	return clusterOpt("WithEvents", func(c *core.Common) { c.Events = fn })
}

// WithMetrics turns on the per-place metrics registry: scheduler, cache,
// transport, recovery and per-job instruments, readable after the run
// through Dag.Metrics / Job.Metrics / Cluster.Metrics. Per-place load is
// there too: sched.cells_executed (max over mean is the imbalance),
// sched.busy_ns (over elapsed × threads, the utilization) and
// engine.fetch_wait_ns. Off by default;
// the disabled path costs nothing on the hot paths. Cluster-scoped: jobs
// share the registries, isolated through the job.* vec instruments.
func WithMetrics() UntypedOption {
	return clusterOpt("WithMetrics", func(c *core.Common) { c.Metrics = true })
}

// WithMetricsObserver enables metrics and delivers the per-place
// snapshots when the cluster closes — for harnesses that execute many
// computations and want the instruments without holding the Job.
// Single-process runtime only. Cluster-scoped.
func WithMetricsObserver(fn func([]*MetricsSnapshot)) UntypedOption {
	return clusterOpt("WithMetricsObserver", func(c *core.Common) { c.MetricsObserver = fn })
}

// SpanLog collects timed spans (epochs, tiles, steal round-trips,
// recovery phases) for Chrome trace-event export; see WithSpans.
type SpanLog = trace.SpanLog

// NewSpanLog creates a span log keeping up to maxSpans spans (0 uses the
// default cap); once full, later spans are dropped, never reallocated.
func NewSpanLog(maxSpans int) *SpanLog { return trace.NewSpanLog(maxSpans) }

// WithSpans records the run's spans into sl. Write the result with
// SpanLog.WriteChromeTrace and load it in chrome://tracing or Perfetto.
// Span collection is independent of WithMetrics. Job-scoped; on a
// multi-job cluster each job's spans carry a "j<id>:" prefix.
func WithSpans(sl *SpanLog) UntypedOption {
	return jobOpt("WithSpans", func(c *core.Common) { c.Spans = sl })
}

// WithCodec overrides the value codec (default: gob; use the fixed-width
// scalar codecs or a custom implementation on hot paths). Job-scoped.
func WithCodec[T any](cd Codec[T]) Option[T] {
	return typedOption[T]{name: "WithCodec", fn: func(c *core.Config[T]) { c.Codec = cd }}
}

// DistKind names a built-in distribution of the DAG over places
// (paper §VI-E "Distribution of DAG").
type DistKind string

// Built-in distributions.
const (
	BlockRowDist  DistKind = "blockrow"
	BlockColDist  DistKind = "blockcol"
	CyclicRowDist DistKind = "cyclicrow"
	CyclicColDist DistKind = "cycliccol"
)

// WithDist selects a built-in distribution (default BlockRowDist, the
// paper's "divided by the row" layout). Job-scoped: each job distributes
// its own array.
func WithDist(kind DistKind) UntypedOption {
	return jobOpt("WithDist", func(c *core.Common) {
		c.NewDist = dist.Named(string(kind))
		if c.NewDist == nil {
			c.NewDist = dist.Named(string(BlockRowDist))
		}
	})
}

// WithBlockCyclicDist deals fixed-size row blocks round-robin — the HPC
// compromise between block rows' locality and cyclic rows' wavefront
// balance. Job-scoped.
func WithBlockCyclicDist(blockRows int32) UntypedOption {
	return jobOpt("WithBlockCyclicDist", func(c *core.Common) {
		c.NewDist = func(h, w int32, n int) dist.Dist {
			return dist.NewBlockCyclicRow(h, w, blockRows, n)
		}
	})
}

// WithBlock2DDist tiles the matrix into a pr×pc grid of blocks; the run
// must use exactly pr*pc places. Shorter per-place borders in both
// directions lower communication for diagonal-dependency patterns.
// Job-scoped.
func WithBlock2DDist(pr, pc int) UntypedOption {
	return jobOpt("WithBlock2DDist", func(c *core.Common) {
		c.NewDist = func(h, w int32, n int) dist.Dist {
			return dist.NewBlock2D(h, w, pr, pc)
		}
	})
}

// WithCustomDist installs a user-supplied cell→place mapping, the
// fully-flexible form of the paper's Dist refinement. fn must map every
// cell to a place in [0, places). Job-scoped.
func WithCustomDist(fn func(i, j int32, places int) int) UntypedOption {
	return jobOpt("WithCustomDist", func(c *core.Common) {
		c.NewDist = func(h, w int32, n int) dist.Dist {
			ps := make([]int, n)
			for k := range ps {
				ps[k] = k
			}
			d, err := dist.NewFunc(h, w, ps, func(i, j int32) int { return fn(i, j, n) })
			if err != nil {
				panic(err) // Submit turns it into its error
			}
			return d
		}
	})
}

// SnapshotStore is the stable store behind the periodic-snapshot recovery
// baseline (X10's ResilientDistArray), exposed for the ablation benchmark.
type SnapshotStore[T any] = distarray.SnapshotStore[T]

// NewSnapshotStore creates a snapshot store; valueSize is the modeled
// encoded width of one vertex value.
func NewSnapshotStore[T any](valueSize int) *SnapshotStore[T] {
	return distarray.NewSnapshotStore[T](valueSize)
}

// WithSnapshotRecovery switches recovery to the periodic-snapshot
// baseline: every place saves its finished vertices to store every
// `every` completions, and recovery restores from the store instead of
// redistributing survivor state. Job-scoped.
func WithSnapshotRecovery[T any](store *SnapshotStore[T], every int64) Option[T] {
	return typedOption[T]{name: "WithSnapshotRecovery", fn: func(c *core.Config[T]) {
		c.Recovery = core.RecoverSnapshot
		c.Snapshot = store
		c.SnapshotEvery = every
	}}
}

// WithSpill keeps vertex values in a paged disk-backed store instead of
// RAM — the paper's §X future work for problems larger than memory.
// pageVals values per page, residentPages pages kept in RAM per place;
// zero values select the defaults (4096 and 64). dir is the scratch
// directory ("" = the OS temp dir). Job-scoped.
func WithSpill(dir string, pageVals, residentPages int) UntypedOption {
	return jobOpt("WithSpill", func(c *core.Common) {
		c.Spill = &core.SpillConfig{Dir: dir, PageVals: pageVals, ResidentPages: residentPages}
	})
}

// WithSnapshotOverheadOnly keeps the paper's recovery mechanism but also
// writes periodic snapshots, to measure the baseline's fault-free cost.
// Job-scoped.
func WithSnapshotOverheadOnly[T any](store *SnapshotStore[T], every int64) Option[T] {
	return typedOption[T]{name: "WithSnapshotOverheadOnly", fn: func(c *core.Config[T]) {
		c.Snapshot = store
		c.SnapshotEvery = every
	}}
}

// ChaosPlan is a seeded fault-injection schedule applied to a run's
// transport: message drop, duplication, delay/reordering and asymmetric
// partition windows, reproducible from the seed. See WithChaos.
type ChaosPlan = transport.FaultPlan

// ChaosPartition is one directed partition window of a ChaosPlan.
type ChaosPartition = transport.Partition

// ChaosEvent describes one injected fault (ChaosPlan.OnInject).
type ChaosEvent = transport.InjectEvent

// ChaosStats counts the faults a plan injected.
type ChaosStats = transport.InjectStats
