#!/bin/sh
# Tier-1 gate: everything a change must keep green before merging.
# Build, standard vet, the repo's own analyzers (dpx10-vet), the full
# test suite, then the race detector over the whole tree.
set -eux
cd "$(dirname "$0")/.."
go build ./...
# Formatting drift must not accumulate: every Go file outside the analyzers'
# testdata corpora is gofmt-clean.
test -z "$(gofmt -l . | grep -v '/testdata/')"
go vet ./...
# The benchmark is its own module, so `go build ./...` above never compiles
# it against the engine types it uses.
go -C benchmark vet ./...
# ... and nothing else executes the calls benchmark/layers.go makes into
# distarray directly (ConfigureTiles, InitActivateTiles, one TileDecrement
# per cross-tile edge, which panics if a counter goes negative): one quick
# pass of every workload, traced, ~1 min.
make bench-e2e >/dev/null
# The repo's own analyzers, under a wall-clock budget: the suite shares
# type-checked facts (CFGs, call graph) across analyzers in one process,
# and 30s is the line past which that sharing has regressed. The budget
# excludes the binary build so cold caches don't trip it.
go build -o /tmp/dpx10-vet.tier1 ./cmd/dpx10-vet
vet_start=$(date +%s)
/tmp/dpx10-vet.tier1 ./...
vet_elapsed=$(( $(date +%s) - vet_start ))
if [ "$vet_elapsed" -gt 30 ]; then
    echo "dpx10-vet took ${vet_elapsed}s, over the 30s tier-1 budget" >&2
    exit 1
fi
# Fast chaos signal before the full suite: the soak matrix in short mode
# (fewer seeds per fault profile, one kill arm each). The TestChaosSoak
# prefix deliberately matches the two-job variant as well, so enveloped
# multi-job traffic gets the same quick chaos pass.
go test -short -run TestChaosSoak -count=1 ./internal/core/
go test ./...
# The in-process benchmarks, once each: `go test ./...` compiles them but runs
# none, and each checks its own results (BenchmarkStencilTile: the tile's
# values against native.Strip's; BenchmarkTCPPush, the pushed-value path over
# two TCP nodes: every cell against the reference). BenchmarkDistLookup times
# the layouts' per-edge lookups.
go test -run '^$' -bench 'SchedulePerVertex|GenericArm|StencilTile|TCPPush' -benchtime 1x ./internal/core/
go test -run '^$' -bench 'DistLookup' -benchtime 1x ./internal/dist/
# BenchmarkVCacheChurn checks that each of its Gets misses and each Put evicts.
go test -run '^$' -bench VCache -benchtime 1x ./internal/vcache/
# cmd/dpx10-sim has no test of its own: one smoke run of the simulator CLI
# over two cluster sizes with stealing on and a fault at half progress.
go run ./cmd/dpx10-sim -pattern triangle -h 48 -w 48 -nodes 2,4 -steal -fault 0.5 >/dev/null
go test -race -timeout 10m ./...
# Metrics-invariant suite again under the race detector: every snapshot
# read races against live increments unless the registry is correct.
go test -race -run 'TestMetrics' -count=1 ./internal/core/
# The vertex cache's open-addressed index against the map-plus-ring
# reference, over fresh random sequences of Put, PutAll and Get.
go test -race -run 'TestMatchesReference$' -count=5 ./internal/vcache/
# The stencil arm against the generic one (the capability exposed and
# hidden) and recovery under it, repeated under the race detector: a
# recovery's activation scan adds to tile counters that early decrements
# are already taking below zero, with no lock between them; and a walk
# paused between rows leaves exactly its published rows for the recovery.
# The recovery rounds fan out concurrently, so survivors rebuild while others
# still run the old epoch, and a place that dies inside a round restarts the
# recovery: the recovery tests (kept, restored, snapshot, spilled) and the
# restart matrix repeat here too. With them, the rebuild's run-wise carry-over
# and replay against their per-cell oracle (every fuzz seed) and the replay's
# emit-count bound. With them, the auto tile shape's table (tiles per worker).
go test -race -run 'TestAutoTileShape$|TestTiling(StrategyParity|NoDepCacheParity|ShapeParity|KillMidRunRecovers)$|TestShapeKillMidRunRecovers$|TestStencilWalkMakesNoPatternCalls$|TestStencilWalkPausesBetweenRows$|TestKillMidRunRecovers$|TestSnapshotRecovery$|TestSpilledRestoreRemoteRecovery$|TestRecoveryRestartsWhenPlaceDiesMidRecovery$|FuzzRecoveryRuns$|TestReplayRunsScaleWithRows$' -count=5 ./internal/core/ ./internal/distarray/
# ... and the stencil walk's dependency oracle beside them: every Compute
# call's deps against the pattern and the serial table, fault-free, with a
# Compute that writes over deps, and with a kill mid-run whose recovery walks
# rows with restored cells.
go test -race -run 'TestStencilWalkDependencyOracle$' -count=3 ./internal/core/
# ... and that race in isolation, many times: every tile reported ready
# exactly once, by the scan or by a decrement, with the decrements aimed at
# restored cells applied, not absorbed. With it, rows published from two
# goroutines into shared words of finished bits.
go test -race -run 'TestActivationRacesEarlyDecrements$|TestSetResultLifecycle$' -count=20 ./internal/distarray/
# Moving tiles, repeated under the race detector: a pushed tile waits in the
# epoch's inbox, which lifeline and exec pushes both feed and the workers and
# the lifeline pusher both drain, and a recovery races all of them; a tile
# handed back settles what it owes through the same path as a walk. A tile
# that leaves frees its push box, which handlers fill and workers empty; a
# stencil tile pours its box straight into its ghost slab, dropping what
# falls outside it, while handlers deposit into other boxes. The Steal arm of
# the chaos soak runs here too: lifeline registrations, pushes and steal-done
# results over lossy links.
go test -race -run 'TestChaosSoakLifelines|TestLifeline|TestSteal|TestRunAcrossStrategies|TestWireIDsVetted|TestSkewCorrectnessWithLifelines|TestExecTargetKilled|TestSettlementPerUnit|TestPushedBoxesBounded|TestStencilBoxRunOutsideSlabDropped' -count=3 ./internal/core/
# Multi-job scheduling and the session API again under the race
# detector: concurrent jobs' tiles interleave on shared worker deques,
# and the admission queue hands slots across goroutines. Repeated, with
# the coordinator's abort-versus-finish ordering: a job closed at its last
# cell must still end with the abort's error.
go test -race -run 'TestMultiJob|TestManagerClose|TestCoordinatorAbortOutranksFinishedScan$' -count=20 ./internal/core/
# The TCP job lifecycle, repeated: stop is acknowledged rather than timed, so
# the interleavings of stop, Close and the failure detector have to hold
# every time (~5 s; TestTCPNodeFaultRecovery takes 10 s a run and stays out).
go test -race -run 'TestTCPNode(EndToEnd|MultiJob|CloseWaitsForStop|StopOutranksAbort)$' -count=25 ./internal/core/
go test -race -run 'TestCluster|TestSubmit|TestNewCluster|TestBadDistribution|TestPublicSurface' -count=1 .
# Killing place 0 mid-run must end the job with a *PlaceDeadError, every
# time: the kill lands while Compute is held at a gate, so a job that
# finishes first is a bug, not a lost race.
go test -race -run 'TestPlaceDeadErrorUnwrap$' -count=50 .
# Concurrent TCP senders, repeated under the race detector: each send writes
# its own frame under the connection's write lock, so per-peer order, the
# release of senders blocked on that lock when the connection goes, and the
# reader's checks on the sender id all hang on one mutex.
go test -race -count=10 -run 'TestPipelinedSendPerPeerFIFO|TestTCPCloseReleasesBlockedSenders|TestTCPRejectsBadSender|TestTCPConcurrentCalls' ./internal/transport/
# The CLI's live observability surfaces, repeated: the Prometheus endpoint
# binds port 0 and is scraped mid-run, and the span file is written after it.
go test -race -run 'TestRunLocal(MetricsAddr|TraceOut)$' -count=10 ./internal/cli/
