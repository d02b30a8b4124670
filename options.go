package dpx10

import (
	"cmp"
	"fmt"
	"time"

	"github.com/dpx10/dpx10/internal/core"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/distarray"
	"github.com/dpx10/dpx10/internal/option"
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
// sealed: only this package's constructors build options.
//
// Every option has a scope. Cluster-scoped options shape the places
// (Places, Threads, transport, chaos, metrics, admission); job-scoped
// options shape one computation (strategy, cache, tile size, codec,
// distribution, recovery). The one-shot entry points (Run, Launch) accept
// both in one list; the session API enforces the split — NewCluster
// rejects job-scoped options and Submit rejects cluster-scoped ones, each
// with an *OptionScopeError.
type Option[T any] = option.Option[T]

// UntypedOption is the type returned by the type-independent option
// constructors. It satisfies Option[T] for every vertex value type T.
type UntypedOption = Option[any]

// OptionScopeError reports an option passed to NewCluster or Submit
// outside its scope, naming the option, its scope and the call.
type OptionScopeError = option.ScopeError

// Places sets the number of places — X10_NPLACES (default 1).
// Cluster-scoped.
func Places(n int) UntypedOption {
	return option.Cluster("Places", func(c *core.Common) { c.Places = n })
}

// Threads sets the per-place worker pool width — X10_NTHREADS (default 2).
// Cluster-scoped: the worker pools are shared by every job on the places.
// The auto tile size follows it: about 16 tiles per worker (WithTileSize).
func Threads(n int) UntypedOption {
	return option.Cluster("Threads", func(c *core.Common) { c.Threads = n })
}

// MaxActiveJobs bounds how many jobs a cluster admits concurrently;
// submissions beyond the bound queue FIFO until a running job finishes.
// 0 keeps the default of 2; negative removes the bound. Cluster-scoped.
func MaxActiveJobs(n int) UntypedOption {
	return option.Cluster("MaxActiveJobs", func(c *core.Common) { c.MaxActiveJobs = n })
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
	return option.Job("WithStrategy", func(c *core.Common) { c.Strategy = s })
}

// CacheSize sets the per-place remote-vertex cache capacity in entries
// (paper §VI-E "Cache size"); 0 disables the cache and, with it, value push.
// Values other places push wait at a place until the tiles that read them
// run, bounded by the place's own cell count, not by this size. Job-scoped:
// every job has its own cache.
func CacheSize(entries int) UntypedOption {
	return option.Job("CacheSize", func(c *core.Common) { c.CacheSize = entries })
}

// WithTileSize sets the scheduling granularity: each place cuts its part of
// the matrix into rectangular tiles of about this many cells — the engine
// picks the shape from the distribution, and Stats.TileLayout reports it —
// tracks readiness per tile and executes a ready tile as one task in
// intra-tile dependency order — removing per-vertex queueing and intra-tile
// decrement traffic. 0 (the default) auto-sizes per place, about 16 tiles
// per worker thread; 1 restores per-vertex scheduling. Patterns whose tile
// quotient graph would be cyclic under the chosen tile fall back to
// per-vertex scheduling automatically (the run stays correct, just
// untiled). Job-scoped.
func WithTileSize(cells int) UntypedOption {
	return option.Job("WithTileSize", func(c *core.Common) { c.TileSize = cells })
}

// RestoreRemote makes recovery copy finished vertices to their new owners
// instead of recomputing them — the paper's §VI-E "Restore manner" switch
// for computations that cost more than communication. Job-scoped.
func RestoreRemote() UntypedOption {
	return option.Job("RestoreRemote", func(c *core.Common) { c.RestoreRemote = true })
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
	return option.Cluster("WithHeartbeat", func(c *core.Common) {
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
	return option.Cluster("WithReliableDelivery", func(c *core.Common) { c.Reliable = true })
}

// WithChaos wires a fault-injection plan into the run's transport: every
// place's outbound messages pass through a FaultFabric driven by the plan.
// Reliable delivery is enabled automatically — injected faults are meant
// to be tolerated, not to corrupt the run. Cluster-scoped: the fabric
// carries every job's traffic.
func WithChaos(plan *ChaosPlan) UntypedOption {
	return option.Cluster("WithChaos", func(c *core.Common) { c.Chaos = plan })
}

// WithEvents registers a structured run-event callback: place suspicion
// and death, recovery start/finish, chaos injections. fn runs on a
// dedicated goroutine; slow consumers drop events rather than stall the
// run. Cluster-scoped.
func WithEvents(fn func(Event)) UntypedOption {
	return option.Cluster("WithEvents", func(c *core.Common) { c.Events = fn })
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
	return option.Cluster("WithMetrics", func(c *core.Common) { c.Metrics = true })
}

// WithMetricsObserver enables metrics and delivers the per-place
// snapshots when the cluster closes — for harnesses that execute many
// computations and want the instruments without holding the Job.
// Single-process runtime only. Cluster-scoped.
func WithMetricsObserver(fn func([]*MetricsSnapshot)) UntypedOption {
	return option.Cluster("WithMetricsObserver", func(c *core.Common) { c.MetricsObserver = fn })
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
	return option.Job("WithSpans", func(c *core.Common) { c.Spans = sl })
}

// WithCodec sets the value codec, for a hot struct type: without it int32,
// int64 and float64 travel fixed-width and every other type as gob. Job-scoped.
func WithCodec[T any](cd Codec[T]) Option[T] {
	return option.Typed("WithCodec", func(c *core.Config[T]) { c.Codec = cd })
}

// Layout is a distribution of the DAG over places (paper §VI-E
// "Distribution of DAG"): a DistKind, BlockCyclicRowDist, Block2DDist or
// CustomDist. WithDist selects one.
type Layout interface {
	// newDist returns the constructor the engine calls with the matrix
	// bounds and the place count. A constructor that panics fails Submit
	// with the panic's message.
	newDist() func(h, w int32, places int) dist.Dist
}

// DistKind names a built-in distribution. The empty DistKind is the
// default, BlockRowDist; a name outside the four below fails Submit.
type DistKind string

// Built-in distributions.
const (
	BlockRowDist  DistKind = "blockrow"
	BlockColDist  DistKind = "blockcol"
	CyclicRowDist DistKind = "cyclicrow"
	CyclicColDist DistKind = "cycliccol"
)

func (k DistKind) newDist() func(h, w int32, places int) dist.Dist {
	if nd := dist.Named(string(cmp.Or(k, BlockRowDist))); nd != nil {
		return nd
	}
	return func(int32, int32, int) dist.Dist {
		panic(fmt.Sprintf("unknown DistKind %q", string(k)))
	}
}

// layoutFunc is a Layout given by its constructor.
type layoutFunc func(h, w int32, places int) dist.Dist

func (f layoutFunc) newDist() func(h, w int32, places int) dist.Dist { return f }

// BlockCyclicRowDist deals fixed-size blocks of rows round-robin — the HPC
// compromise between block rows' locality and cyclic rows' wavefront
// balance. block must be positive.
func BlockCyclicRowDist(block int32) Layout {
	return layoutFunc(func(h, w int32, n int) dist.Dist {
		return dist.NewBlockCyclicRow(h, w, block, n)
	})
}

// Block2DDist tiles the matrix into a pr×pc grid of blocks; the run must
// use exactly pr*pc places. Shorter per-place borders in both directions
// lower communication for diagonal-dependency patterns.
func Block2DDist(pr, pc int) Layout {
	return layoutFunc(func(h, w int32, n int) dist.Dist {
		return dist.NewBlock2D(h, w, pr, pc)
	})
}

// CustomDist is a user-supplied cell→place mapping, the fully-flexible
// form of the paper's Dist refinement. fn must map every cell to a place
// in [0, places).
func CustomDist(fn func(i, j int32, places int) int) Layout {
	return layoutFunc(func(h, w int32, n int) dist.Dist {
		ps := make([]int, n)
		for k := range ps {
			ps[k] = k
		}
		d, err := dist.NewFunc(h, w, ps, func(i, j int32) int { return fn(i, j, n) })
		if err != nil {
			panic(err) // Submit turns it into its error
		}
		return d
	})
}

// WithDist selects the layout (default BlockRowDist, the paper's "divided
// by the row" layout). Job-scoped: each job distributes its own array.
func WithDist(l Layout) UntypedOption {
	return option.Job("WithDist", func(c *core.Common) { c.NewDist = l.newDist() })
}

// SnapshotStore is the stable store behind the periodic-snapshot recovery
// baseline (X10's ResilientDistArray), exposed for the ablation benchmark.
type SnapshotStore[T any] = distarray.SnapshotStore[T]

// NewSnapshotStore creates a snapshot store. Its byte count charges each
// saved value the encoded width of the run's codec.
func NewSnapshotStore[T any]() *SnapshotStore[T] {
	return distarray.NewSnapshotStore[T]()
}

// WithSnapshotRecovery switches recovery to the periodic-snapshot
// baseline: every place saves its finished vertices to store every
// `every` completions, and recovery restores from the store instead of
// redistributing survivor state. Job-scoped.
func WithSnapshotRecovery[T any](store *SnapshotStore[T], every int64) Option[T] {
	return option.Typed("WithSnapshotRecovery", func(c *core.Config[T]) {
		c.Recovery = core.RecoverSnapshot
		c.Snapshot = store
		c.SnapshotEvery = every
	})
}

// WithSpill keeps vertex values in a paged disk-backed store instead of
// RAM — the paper's §X future work for problems larger than memory.
// pageVals values per page, residentPages pages kept in RAM per place;
// zero values select the defaults (4096 and 64). dir is the scratch
// directory ("" = the OS temp dir). Job-scoped.
func WithSpill(dir string, pageVals, residentPages int) UntypedOption {
	return option.Job("WithSpill", func(c *core.Common) {
		c.Spill = &core.SpillConfig{Dir: dir, PageVals: pageVals, ResidentPages: residentPages}
	})
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
