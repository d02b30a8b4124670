package metrics

// Kind classifies an instrument. Each registered name has exactly one
// kind; asking the registry for a name under the wrong kind panics at
// construction time (and dpx10-vet's metricname analyzer catches it
// statically).
type Kind uint8

const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
	KindVec
)

// The vcache vectors' keys: VCacheKey counts the vertex cache's lookups and
// evictions, VCacheBoxKey (vcache.hits only) the remote dependencies a
// tile's push box served — hits without a fetch that never touched the
// cache.
const (
	VCacheKey    uint8 = 0
	VCacheBoxKey uint8 = 255
)

// Instrument names. Every name the runtime records under is declared
// here and registered in the instruments table below; Registry methods
// reject anything else. Naming convention: <subsystem>.<metric>, with a
// _ns suffix for nanosecond-valued instruments.
const (
	// Scheduler: tile execution and work stealing.
	SchedTilesExecuted   = "sched.tiles_executed"
	SchedStealsAttempted = "sched.steals_attempted"
	SchedStealsSucceeded = "sched.steals_succeeded"
	SchedDequeParks      = "sched.deque_parks"

	// Per-place load, counted at the place that ran each unit (an own tile,
	// a stencil tile, or a tile handed over): the cells it computed, and its
	// wall time from description to settlement — halo fill, compute and
	// settle. Busy time over elapsed × threads is the place's utilization;
	// max over mean of the cells is the imbalance.
	SchedCellsExecuted = "sched.cells_executed"
	SchedBusyNs        = "sched.busy_ns"

	// Lifeline load balancing: bounded random-victim steal probes made
	// before parking, completed park episodes (all probes spent,
	// registrations placed on the lifeline edges), ready tiles pushed to
	// parked buddies, and migrated tiles accepted.
	SchedLifelineProbes = "sched.lifeline_probes"
	SchedLifelineParks  = "sched.lifeline_parks"
	SchedLifelinePushes = "sched.lifeline_pushes"
	SchedTilesMigrated  = "sched.tiles_migrated"

	// Engine-wide state, and the time workers spent blocked in remote
	// dependency fetches (kindFetch calls).
	EngineEpoch       = "engine.epoch"
	EngineFetchWaitNs = "engine.fetch_wait_ns"

	// Remote-vertex cache, under VCacheKey; vcache.hits also counts the
	// dependencies push boxes served, under VCacheBoxKey.
	VCacheHits      = "vcache.hits"
	VCacheMisses    = "vcache.misses"
	VCacheEvictions = "vcache.evictions"

	// Transport, one Vec key per wire kind.
	TransportMsgsOut         = "transport.msgs_out"
	TransportBytesOut        = "transport.bytes_out"
	TransportMsgsIn          = "transport.msgs_in"
	TransportBytesIn         = "transport.bytes_in"
	TransportSendErrors      = "transport.send_errors"
	TransportRetries         = "transport.retries"
	TransportDedupDrops      = "transport.dedup_drops"
	TransportHeartbeatMisses = "transport.heartbeat_misses"

	// Data plane: wire bytes per vectored write (one frame each).
	TransportBatchBytes = "transport.batch_bytes"

	// Deprecated: payload compression and the per-connection writer's
	// coalescing left the data plane, and the recovery's pause and restore
	// rounds went into its rebuild and exchange rounds. No instrument is
	// registered under these names, so every snapshot reads 0 for them; the
	// constants stay only because the benchmark module reads them and go
	// with the next benchmark revision.
	TransportCompressRaw  = "transport.compress_raw_bytes"
	TransportCompressWire = "transport.compress_wire_bytes"
	TransportBatchFrames  = "transport.batch_frames"
	RecoveryPauseNs       = "recovery.pause_ns"
	RecoveryRestoreNs     = "recovery.restore_ns"

	// Recovery round durations (nanoseconds), one histogram per round:
	// rebuild, exchange (under the replay name it had when replay was a
	// round of its own) and resume.
	RecoveryRebuildNs = "recovery.rebuild_ns"
	RecoveryReplayNs  = "recovery.replay_ns"
	RecoveryResumeNs  = "recovery.resume_ns"

	// Per-job accounting on multi-job clusters, one Vec key per job id
	// (low byte): a slot names the latest job with that low byte — it is
	// cleared when the cluster registers job id+256 — so on a long-lived
	// cluster the slots cover the last 256 jobs, not all of them. Tiles and
	// outbound traffic are recorded by the place that did the work;
	// queue-wait is recorded once per admitted job, on place 0, when the
	// job leaves the admission queue.
	JobTilesExecuted = "job.tiles_executed"
	JobMsgsOut       = "job.msgs_out"
	JobBytesOut      = "job.bytes_out"
	JobQueueWaitNs   = "job.queue_wait_ns"
)

// instruments is the closed registry of instrument names: the single
// source of truth cross-checked against call sites by dpx10-vet's
// metricname analyzer.
var instruments = map[string]Kind{
	SchedTilesExecuted:   KindCounter,
	SchedStealsAttempted: KindCounter,
	SchedStealsSucceeded: KindCounter,
	SchedDequeParks:      KindCounter,
	SchedCellsExecuted:   KindCounter,
	SchedBusyNs:          KindCounter,
	SchedLifelineProbes:  KindCounter,
	SchedLifelineParks:   KindCounter,
	SchedLifelinePushes:  KindCounter,
	SchedTilesMigrated:   KindCounter,

	EngineEpoch:       KindGauge,
	EngineFetchWaitNs: KindCounter,

	VCacheHits:      KindVec,
	VCacheMisses:    KindVec,
	VCacheEvictions: KindVec,

	TransportMsgsOut:         KindVec,
	TransportBytesOut:        KindVec,
	TransportMsgsIn:          KindVec,
	TransportBytesIn:         KindVec,
	TransportSendErrors:      KindCounter,
	TransportRetries:         KindCounter,
	TransportDedupDrops:      KindCounter,
	TransportHeartbeatMisses: KindCounter,

	TransportBatchBytes: KindHistogram,

	RecoveryRebuildNs: KindHistogram,
	RecoveryReplayNs:  KindHistogram,
	RecoveryResumeNs:  KindHistogram,

	JobTilesExecuted: KindVec,
	JobMsgsOut:       KindVec,
	JobBytesOut:      KindVec,
	JobQueueWaitNs:   KindVec,
}

// DurationBounds are the default bucket upper bounds for nanosecond
// duration histograms: 10µs up to 10s, one decade per bucket.
var DurationBounds = []int64{1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// histBounds overrides the bucket bounds for histograms that are not
// nanosecond durations; names absent here get DurationBounds.
var histBounds = map[string][]int64{
	// Wire bytes per writev.
	TransportBatchBytes: {256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20},
}
