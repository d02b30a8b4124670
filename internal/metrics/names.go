package metrics

// The vcache vectors' keys: VCacheKey counts the vertex cache's lookups and
// evictions, VCacheBoxKey (vcache.hits only) the remote dependencies a
// tile's push box served — hits without a fetch that never touched the
// cache.
const (
	VCacheKey    uint8 = 0
	VCacheBoxKey uint8 = 255
)

// Instrument names, the keys of a Snapshot. Every name the runtime records
// under is declared here and has one handle in the table below; Registry
// methods take only handles. Naming convention: <subsystem>.<metric>, with
// a _ns suffix for nanosecond-valued instruments.
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

	// Lifeline load balancing (the Steal strategy): bounded random-victim
	// steal probes made before parking, completed park episodes (all probes spent,
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
	// rounds went into its rebuild and exchange rounds. No handle is
	// declared under these names, so every snapshot reads 0 for them; the
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

// CounterID, GaugeID, HistogramID and VecID each name one instrument of
// their kind. The handles below are the only values that name one, so a
// Registry lookup under a misspelt name, a runtime string or the wrong kind
// does not compile.
type (
	CounterID   struct{ name string }
	GaugeID     struct{ name string }
	HistogramID struct {
		name   string
		bounds []int64 // inclusive bucket upper bounds, ascending
	}
	VecID struct{ name string }
)

// The instrument table: one handle per name above, except the deprecated
// ones, named after its name's constant with an ID suffix.
var (
	SchedTilesExecutedID   = counter(SchedTilesExecuted)
	SchedStealsAttemptedID = counter(SchedStealsAttempted)
	SchedStealsSucceededID = counter(SchedStealsSucceeded)
	SchedDequeParksID      = counter(SchedDequeParks)
	SchedCellsExecutedID   = counter(SchedCellsExecuted)
	SchedBusyNsID          = counter(SchedBusyNs)
	SchedLifelineProbesID  = counter(SchedLifelineProbes)
	SchedLifelineParksID   = counter(SchedLifelineParks)
	SchedLifelinePushesID  = counter(SchedLifelinePushes)
	SchedTilesMigratedID   = counter(SchedTilesMigrated)

	EngineEpochID       = gauge(EngineEpoch)
	EngineFetchWaitNsID = counter(EngineFetchWaitNs)

	VCacheHitsID      = vec(VCacheHits)
	VCacheMissesID    = vec(VCacheMisses)
	VCacheEvictionsID = vec(VCacheEvictions)

	TransportMsgsOutID         = vec(TransportMsgsOut)
	TransportBytesOutID        = vec(TransportBytesOut)
	TransportMsgsInID          = vec(TransportMsgsIn)
	TransportBytesInID         = vec(TransportBytesIn)
	TransportSendErrorsID      = counter(TransportSendErrors)
	TransportRetriesID         = counter(TransportRetries)
	TransportDedupDropsID      = counter(TransportDedupDrops)
	TransportHeartbeatMissesID = counter(TransportHeartbeatMisses)

	// Wire bytes per writev.
	TransportBatchBytesID = histogram(TransportBatchBytes, []int64{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20})

	RecoveryRebuildNsID = histogram(RecoveryRebuildNs, DurationBounds)
	RecoveryReplayNsID  = histogram(RecoveryReplayNs, DurationBounds)
	RecoveryResumeNsID  = histogram(RecoveryResumeNs, DurationBounds)

	JobTilesExecutedID = vec(JobTilesExecuted)
	JobMsgsOutID       = vec(JobMsgsOut)
	JobBytesOutID      = vec(JobBytesOut)
	JobQueueWaitNsID   = vec(JobQueueWaitNs)
)

// DurationBounds are the bucket upper bounds for nanosecond duration
// histograms: 10µs up to 10s, one decade per bucket.
var DurationBounds = []int64{1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// minted holds every name a handle has been built from. A name minted
// twice panics at package initialisation, so a duplicate in the table
// fails every binary that imports the package.
var minted = map[string]bool{}

func mint(name string) string {
	if minted[name] {
		panic("metrics: instrument " + name + " declared twice")
	}
	minted[name] = true
	return name
}

func counter(name string) CounterID { return CounterID{mint(name)} }
func gauge(name string) GaugeID     { return GaugeID{mint(name)} }
func vec(name string) VecID         { return VecID{mint(name)} }

func histogram(name string, bounds []int64) HistogramID {
	return HistogramID{mint(name), bounds}
}
