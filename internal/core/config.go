package core

import (
	"fmt"
	"time"

	"github.com/dpx10/dpx10/internal/codec"
	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/distarray"
	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/sched"
	"github.com/dpx10/dpx10/internal/trace"
	"github.com/dpx10/dpx10/internal/transport"
)

// Cell is a dependency handed to Compute: the identity and finished value
// of one vertex the computing cell depends on. It corresponds to the
// paper's Vertex parameter of compute() (Figure 2) — users match cells by
// ID and read the value, without knowing where the data lived. A Cell in
// Compute's deps is read-only and valid only during the call.
type Cell[T any] struct {
	ID    dag.VertexID
	Value T
}

// ComputeFunc is the user's compute() method: given the cell coordinates
// and its dependencies, return the cell's value. deps is in the order the
// pattern's Dependencies lists them, read-only, and valid only during the
// call: the walk reuses the slice for the worker's next cell and rewrites
// every entry, ID and Value, before each call, so nothing a call writes to
// it is read back. It runs concurrently on the place worker pools and must
// be safe for concurrent invocation.
type ComputeFunc[T any] func(i, j int32, deps []Cell[T]) T

// RecoveryMode selects how lost state is reconstructed after a failure.
type RecoveryMode int

const (
	// RecoverRedistribute is the paper's mechanism (§VI-D): rebuild the
	// distributed array over the survivors, keeping finished vertices
	// whose owner did not change and recomputing the rest.
	RecoverRedistribute RecoveryMode = iota
	// RecoverSnapshot is the ResilientDistArray baseline: restore all
	// finished vertices from the last committed snapshot. Requires
	// Snapshot to be configured.
	RecoverSnapshot
)

// Common holds the configuration fields that do not depend on the vertex
// value type. It is embedded in Config[T], so field access is unchanged
// (cfg.Places, cfg.Threads, ...); its existence lets the public package's
// untyped options mutate a run's configuration without knowing T, through
// the CommonConfig accessor.
type Common struct {
	// Places is the number of places (X10_NPLACES). Must be >= 1.
	Places int
	// Threads is the per-place worker pool width (X10_NTHREADS).
	// Defaults to 2. It also shapes the tile layout: the auto tile count
	// is about 16 tiles per worker (TileSize), so the places of a TCP
	// deployment, which derive the layout each on its own, must agree on
	// it — as on every other field of the one Config they run.
	Threads int
	// Pattern is the DAG pattern describing the computation.
	Pattern dag.Pattern
	// NewDist builds the initial distribution; defaults to block-row.
	NewDist func(h, w int32, places int) dist.Dist
	// Strategy selects the scheduling policy (paper §VI-C); default Local.
	Strategy sched.Strategy
	// CacheSize bounds, per place, the vertex cache of fetched values, in
	// entries (paper §VI-C). 0 disables the cache and, with it, value push.
	// With push on, the values other places pushed wait in the boxes of the
	// tiles that read them; those are bounded by the place's own cell count,
	// not by CacheSize (boxes.go).
	CacheSize int
	// TileSize is the scheduling granularity: each place cuts its local
	// index box into rectangular tiles of about this many cells — the engine
	// picks the shape (tileShape) — and tracks readiness per tile, executing
	// a ready tile as one task in intra-tile dependency order. 0 (the
	// default) auto-sizes per place: about 16 tiles per worker (Threads),
	// at least 64 under a column split, in [8, 2048] cells; 1 schedules per
	// vertex, exactly the pre-tiling behaviour. The shape rounds its row
	// count up, so a tile may pass the count by less than one row. When
	// coarsening would deadlock — the tile quotient graph of the pattern
	// under the current distribution is cyclic — every place independently
	// falls back to 1.
	TileSize int
	// TileShape, when non-zero, is the tile's height and width in cells on
	// every place, overriding the engine's pick. For tests and
	// internal/bench; no public option sets it.
	TileShape [2]int
	// layout is the tile layout of a job's latest epoch, shared by the job's
	// in-process places; newJobRun gives every job its own.
	layout *epochLayout
	// RestoreRemote, when set, copies finished vertices to their new
	// owners during recovery instead of recomputing them (§VI-E).
	RestoreRemote bool
	// Recovery selects the recovery mechanism; default RecoverRedistribute.
	Recovery RecoveryMode
	// Spill, when non-nil, keeps each chunk's vertex values in a paged
	// disk-backed store instead of RAM — the paper's §X future work for
	// problems larger than memory. Finished flags and tile counters stay
	// resident.
	Spill *SpillConfig
	// ProbeInterval is the failure-detector heartbeat period. Place 0
	// pings every place at this interval, mirroring the X10 runtime's own
	// failure detection — pure communication-based detection can deadlock
	// when the dead place was the only one holding runnable work.
	// Default 25ms; negative disables the detector.
	ProbeInterval time.Duration
	// SuspicionThreshold is how many consecutive failed heartbeats make
	// the detector declare a place dead. Definitive transport verdicts
	// (ErrDeadPlace) declare immediately; transient failures — injected
	// chaos, link trouble — accumulate suspicion instead, so a lossy link
	// is not mistaken for a crash on the first drop. Default 3.
	SuspicionThreshold int
	// AggMaxBatch is the settlement count at which a worker flushes a
	// destination's decrement batch inline instead of leaving it to the
	// flusher — the cap on buffered memory. A settlement is what one unit
	// (a tile walk, or a tile handed back) owes one destination: one vertex
	// at tile size 1. Default 256; 1 sends one message per settlement per
	// destination — with TileSize 1, one per finished vertex, the paper's
	// §VI-C behaviour and the aggregation ablation's baseline arm.
	AggMaxBatch int
	// PushDisabled stops piggybacking finished vertex values onto
	// aggregated decrements. Push is on by default but only takes effect
	// when CacheSize > 0.
	PushDisabled bool
	// Reliable turns on sequence-numbered, retried, idempotent delivery:
	// engine messages carry a [seq u64] envelope, tracked one-way sends
	// become acknowledged calls, transient failures (ErrUnreachable) are
	// retried with exponential backoff + jitter, and receivers suppress
	// duplicate sequence numbers. Implied by Chaos. In a TCP deployment
	// every place must agree on this setting — it changes the wire format.
	Reliable bool
	// RetryMax caps delivery attempts per message when Reliable is on.
	// 0 means retry until the destination is declared dead (transient
	// faults are bounded, so this terminates); when the cap is hit the
	// sender marks the destination dead and reports ErrDeadPlace,
	// converging persistent unreachability to the recovery path.
	RetryMax int
	// RetryBase is the first backoff delay (default 500µs); RetryMaxDelay
	// caps the exponential growth (default 50ms). Jitter in [0.5, 1.5)
	// de-synchronizes concurrent senders.
	RetryBase     time.Duration
	RetryMaxDelay time.Duration
	// Chaos, when non-nil, wraps every place's transport in a FaultFabric
	// injecting the plan's faults (drop, dup, delay, partition). Implies
	// Reliable. The plan must not be shared across runs.
	Chaos *transport.FaultPlan
	// Events, when non-nil, receives structured run events (suspicions,
	// deaths, recovery progress, chaos injections). Callbacks run on a
	// dedicated goroutine, serialized; slow callbacks drop events rather
	// than stall the run.
	Events func(RunEvent)
	// Metrics turns on the per-place metrics registry: scheduler, cache,
	// transport and recovery instruments, aggregated to place 0 when the
	// run stops. Off by default — the disabled path costs nothing on the
	// hot paths (nil registry handles are inert no-ops).
	Metrics bool
	// Spans, when non-nil, records Chrome-trace spans (epochs, tiles,
	// steal round-trips, recovery phases) into the given log. Span
	// collection is independent of Metrics.
	Spans *trace.SpanLog
	// MetricsObserver, when non-nil, receives the metrics snapshots of
	// the process's places when the cluster closes, just before
	// Cluster.Run returns (a TCP deployment gathers every place's through
	// TCPNode.MetricsSnapshots, before Close). Setting it implies Metrics.
	MetricsObserver func([]*metrics.Snapshot)
	// MaxActiveJobs bounds how many jobs the manager admits concurrently;
	// submissions beyond the bound queue FIFO until a slot frees. 0 means
	// the default of 2; negative removes the bound.
	MaxActiveJobs int
	// Jobs is how many identical jobs a TCP deployment runs concurrently
	// on the shared places (every node must agree). Default 1. The
	// in-process runtime ignores it — jobs arrive through Submit there.
	Jobs int
	// NoPipeline does nothing: the TCP data plane has one send path.
	//
	// Deprecated: kept only because the benchmark module sets it; goes
	// with the next benchmark revision.
	NoPipeline bool
	// NoCompress does nothing: payload compression left the data plane.
	//
	// Deprecated: kept only because the benchmark module sets it; goes
	// with the next benchmark revision.
	NoCompress bool
}

// normalize defaults and checks the type-independent fields. The job
// manager calls it directly for cluster-level configuration (no Pattern
// or Compute yet); Config.validate calls it as part of full validation.
func (c *Common) normalize() error {
	if c.Places < 1 {
		return fmt.Errorf("core: Places = %d, need >= 1", c.Places)
	}
	if c.Threads == 0 {
		c.Threads = 2
	}
	if c.Threads < 0 {
		return fmt.Errorf("core: Threads = %d, need >= 1", c.Threads)
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 25 * time.Millisecond
	}
	if c.SuspicionThreshold == 0 {
		c.SuspicionThreshold = 3
	}
	if c.SuspicionThreshold < 1 {
		return fmt.Errorf("core: SuspicionThreshold = %d, need >= 1", c.SuspicionThreshold)
	}
	if c.Chaos != nil {
		// Injected drop/dup/delay is only survivable with acknowledged,
		// idempotent delivery; a silently lost decrement would deadlock.
		c.Reliable = true
	}
	if c.MetricsObserver != nil {
		c.Metrics = true
	}
	if c.RetryMax < 0 {
		return fmt.Errorf("core: RetryMax = %d, need >= 0 (0 = until declared dead)", c.RetryMax)
	}
	if c.RetryBase == 0 {
		c.RetryBase = 500 * time.Microsecond
	}
	if c.RetryBase < 0 {
		return fmt.Errorf("core: RetryBase = %v, need > 0", c.RetryBase)
	}
	if c.RetryMaxDelay == 0 {
		c.RetryMaxDelay = 50 * time.Millisecond
	}
	if c.RetryMaxDelay < c.RetryBase {
		return fmt.Errorf("core: RetryMaxDelay = %v below RetryBase = %v", c.RetryMaxDelay, c.RetryBase)
	}
	if c.AggMaxBatch == 0 {
		c.AggMaxBatch = 256
	}
	if c.AggMaxBatch < 1 {
		return fmt.Errorf("core: AggMaxBatch = %d, need >= 1", c.AggMaxBatch)
	}
	if c.TileSize < 0 {
		return fmt.Errorf("core: TileSize = %d, need >= 0 (0 = auto)", c.TileSize)
	}
	if c.Spill != nil {
		c.Spill.normalize()
	}
	if c.NewDist == nil {
		c.NewDist = func(h, w int32, places int) dist.Dist {
			return dist.NewBlockRow(h, w, places)
		}
	}
	if c.MaxActiveJobs == 0 {
		c.MaxActiveJobs = 2
	}
	if c.Jobs == 0 {
		c.Jobs = 1
	}
	if c.Jobs < 1 {
		return fmt.Errorf("core: Jobs = %d, need >= 1", c.Jobs)
	}
	return nil
}

// CommonConfig exposes the type-independent configuration; promoted
// through Config[T] so non-generic option values can reach it.
func (c *Common) CommonConfig() *Common { return c }

// Config parameterizes one DPX10 run.
type Config[T any] struct {
	Common
	// Compute is the user's per-vertex function.
	Compute ComputeFunc[T]
	// Codec serializes vertex values. Nil means codec.For[T]: fixed width
	// for int32, int64 and float64, gob for any other type.
	Codec codec.Codec[T]
	// Snapshot, if non-nil, receives a full snapshot of finished vertices
	// every SnapshotEvery local completions per place — the periodic
	// snapshot baseline. Required for RecoverSnapshot.
	Snapshot      *distarray.SnapshotStore[T]
	SnapshotEvery int64

	// valueWidth memoizes codec.Size of the run's codec, computed once at
	// validation instead of per worker spawn.
	valueWidth int
}

func (c *Config[T]) validate() error {
	if c.Pattern == nil {
		return fmt.Errorf("core: Pattern is required")
	}
	if c.Compute == nil {
		return fmt.Errorf("core: Compute is required")
	}
	if h, w := c.Pattern.Bounds(); h <= 0 || w <= 0 {
		return fmt.Errorf("core: pattern bounds %dx%d invalid", h, w)
	}
	if c.Recovery == RecoverSnapshot && c.Snapshot == nil {
		return fmt.Errorf("core: RecoverSnapshot requires a Snapshot store")
	}
	if err := c.Common.normalize(); err != nil {
		return err
	}
	if c.Codec == nil {
		c.Codec = codec.For[T]()
	}
	c.valueWidth = codec.Size(c.Codec)
	return nil
}

// SpillConfig sizes the disk-backed value store.
type SpillConfig struct {
	// Dir is the scratch directory; "" uses the OS temp dir.
	Dir string
	// PageVals is the number of vertex values per page (default 4096).
	PageVals int
	// ResidentPages bounds how many pages stay in RAM per place
	// (default 64).
	ResidentPages int
}

func (sc *SpillConfig) normalize() {
	if sc.PageVals <= 0 {
		sc.PageVals = 4096
	}
	if sc.ResidentPages <= 0 {
		sc.ResidentPages = 64
	}
}

// Stats aggregates observable behaviour of one run, for the benchmark
// harness and the overhead/recovery experiments.
//
// RemoteFetches and FetchCalls count per tile, not per cell: a tile fetches
// each distinct remote dependency once, whatever number of its cells read
// it, with at most one kindFetch call per owning place (per 4096 ids). With
// the cache off RemoteFetches is therefore the sum over executed tiles of
// their distinct remote dependencies, and FetchCalls is at most
// tiles × (places − 1), each counted where it ran (a stolen or exec-migrated
// tile at its executor). At TileSize 1 a tile is one cell, so there both are
// the paper's per-vertex counts: one value per remote dependency edge, one
// call per owning place per cell.
type Stats struct {
	Places         int
	Epochs         int   // 1 + number of recoveries
	Recoveries     int   // failures survived
	RecoveryNanos  int64 // total wall time spent inside recovery
	ComputedCells  int64 // compute() invocations that produced a result
	RemoteFetches  int64 // dependency values fetched from other places (see above)
	LocalReads     int64 // dependency values served from the local chunk
	CacheHits      int64 // distinct remote dependencies of a tile served without a fetch: by its box or the cache
	CacheMisses    int64 // ... and fetched
	ExecMigrated   int64 // vertices executed away from their owner (random / mincomm placement, whole tiles)
	Stolen         int64 // vertices pulled by idle workers (steal strategy)
	TilesExecuted  int64 // tile tasks run (tiles claimed with at least one cell executed)
	MsgsSent       int64 // transport messages (sends + calls)
	BytesSent      int64 // transport payload bytes
	SendsOut       int64 // one-way transport messages (decrements, notifications)
	FetchCalls     int64 // kindFetch round-trips issued (see above)
	AggBatches     int64 // aggregated decrement batches flushed
	DecrsCoalesced int64 // settlements carried by those batches: one unit's records for one destination (one vertex at tile size 1)
	ValuesPushed   int64 // vertex values piggybacked onto aggregated batches, once per reading tile
	PushDeposits   int64 // pushed values kept in the receiving tiles' boxes (the rest were dropped at the bound)
	PushConsumed   int64 // remote dependencies a tile's box served (fetches avoided); counted in CacheHits too
	Retries        int64 // reliable-delivery resends after transient failures
	DedupHits      int64 // duplicate deliveries suppressed by the receiver
	LifelinePushes int64 // tiles pushed to parked lifeline buddies (accepted deliveries, per hop)
	TilesMigrated  int64 // migrated tiles accepted from lifeline victims (per hop)
	MigratedRuns   int64 // migrated tiles executed here (the rest were forwarded onward)

	// TileLayout says what the engine cut the final epoch's places into:
	// "<places>x(<box> in <tile>)" per distinct box, then the tile DAG's size
	// and longest chain. TileParallelism is their ratio — 1 means the tiles
	// form a chain and no number of places or threads can overlap them; 0
	// means it was not measured (single-cell tiles).
	TileLayout      string
	TileParallelism float64
}
