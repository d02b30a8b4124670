package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/dist"
	"github.com/dpx10/dpx10/internal/distarray"
	"github.com/dpx10/dpx10/internal/metrics"
	"github.com/dpx10/dpx10/internal/sched"
	"github.com/dpx10/dpx10/internal/spill"
	"github.com/dpx10/dpx10/internal/transport"
	"github.com/dpx10/dpx10/internal/vcache"
)

// stealRetryDelay is the park interval between remote steal attempts when
// a Steal-strategy worker finds no local work and no victim with any.
const stealRetryDelay = 200 * time.Microsecond

// epochState is the per-epoch mutable state of one place. A recovery
// replaces the whole struct atomically; goroutines capture one state and
// work against it, so activities from a previous epoch mutate only the
// discarded state and their outbound messages are rejected by peers'
// epoch checks.
type epochState[T any] struct {
	epoch uint64
	d     dist.Dist
	chunk *distarray.Chunk[T]
	sched *tileSched           // per-worker deques of schedulable tiles
	prio  []int32              // per-tile claim order among ready tiles (tilePriorities)
	grids []distarray.TileGrid // every place's tile grid, indexed like d.Places()
	rank  []int                // place id -> its index in d.Places() and grids
	lay   tileLayout           // what the tile-quotient check made of grids
	quit  chan struct{}
	cache *vcache.Cache[T]  // fetched values
	boxes *pushBoxes[T]     // pushed values, per local tile, until it runs (boxes.go); nil without push
	agg   *aggregator[T]    // outbound decrement aggregator
	life  *lifelineState[T] // lifeline balancing state; nil unless a Steal job on more than one place
	inbox tileInbox         // tiles other places pushed here (transfer.go)

	// out is what the recovery that made this epoch sends in its exchange
	// round (handleExchange); nil once sent.
	out atomic.Pointer[handover[T]]

	// runGate serializes tile execution against a recovery's pause. Workers
	// hold it shared for the duration of one tile; the rebuild handler takes
	// it exclusively — once, forever, the epoch is dead after a pause — to
	// wait out in-flight tiles without joining worker goroutines, which
	// the place host owns and which outlive every epoch and every job.
	runGate   sync.RWMutex
	pauseOnce sync.Once

	doneReported atomic.Bool
	quitOnce     sync.Once
}

// drainWorkers blocks until no worker is mid-tile on this epoch, then
// keeps the gate closed so none re-enters. Idempotent: a restarted
// recovery may re-pause an epoch it already paused.
func (st *epochState[T]) drainWorkers() {
	st.pauseOnce.Do(func() { st.runGate.Lock() })
}

// closeQuit tears the epoch's workers down; safe to call repeatedly (a
// restarted recovery may re-pause an epoch that never started workers).
func (st *epochState[T]) closeQuit() {
	st.quitOnce.Do(func() { close(st.quit) })
}

// tileOf is the tile of owner's grid that holds owner's local offset off.
func (st *epochState[T]) tileOf(owner, off int) int { return st.grids[st.rank[owner]].TileOf(off) }

// placeEngine runs one place: worker pool, protocol handlers and the
// local chunk of the distributed array (paper §VI-C).
type placeEngine[T any] struct {
	self int
	cfg  *Config[T]
	tr   transport.Transport

	// host is the place's shared worker pool and job this engine's id on
	// it (0 for single-job runs). The engine is a jobRunner: the host's
	// workers call tryRun/idlePull rather than the engine owning
	// goroutines, which is what lets many jobs share one pool.
	host   *placeHost
	job    uint32
	jobKey uint8

	// workers holds per-worker persistent execution state (scratch, RNG,
	// picker), indexed by the host's worker id — the locals the dedicated
	// worker goroutines used to keep on their stacks.
	workers []workerCtx[T]

	// spanTile/spanSteal carry a "j<id>:" prefix for non-zero jobs so
	// concurrent jobs' spans stay separable in one SpanLog.
	spanTile  string
	spanSteal string

	st    atomic.Pointer[epochState[T]]
	alive []atomic.Bool

	// abort tears the whole run down (unrecoverable error).
	abort func(error)
	// inbox takes the places' reports to the coordinator; non-nil only on
	// place 0.
	inbox *coInbox

	stopCh   chan struct{}
	stopOnce sync.Once

	snapSeq atomic.Int64 // local completions since the last snapshot
	snapOn  bool         // snapshotting configured; hoists maybeSnapshot's check out of the per-vertex path

	// scratchPool recycles per-worker hot-path buffers; protocol handlers
	// (steal, steal-done, aggregated decrements) draw from the same pool.
	scratchPool sync.Pool

	// reg is this place's metrics registry (nil when Config.Metrics is
	// off). The m* instrument handles are wired unconditionally: a nil
	// registry hands out nil handles whose methods are inert no-ops, so
	// the hot paths below never branch on whether metrics are enabled —
	// except to skip a clock read (unitClock, fetchValues).
	reg         *metrics.Registry
	mTiles      *metrics.Counter
	mCells      *metrics.Counter
	mBusy       *metrics.Counter
	mFetchWait  *metrics.Counter
	mStealAtt   *metrics.Counter
	mStealOK    *metrics.Counter
	mParks      *metrics.Counter
	mLifeProbes *metrics.Counter
	mLifeParks  *metrics.Counter
	mLifePush   *metrics.Counter
	mTilesMigr  *metrics.Counter
	mVCHits     *metrics.Vec
	mVCMiss     *metrics.Vec
	mVCEvict    *metrics.Vec
	mEpoch      *metrics.Gauge
	mJobTiles   *metrics.Vec

	// counters for Stats
	computed       atomic.Int64
	remoteFetches  atomic.Int64
	localReads     atomic.Int64
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	execMigrated   atomic.Int64
	stolen         atomic.Int64
	tilesRun       atomic.Int64
	fetchCalls     atomic.Int64
	aggBatches     atomic.Int64
	decrsCoalesced atomic.Int64
	valuesPushed   atomic.Int64
	pushDeposits   atomic.Int64
	pushConsumed   atomic.Int64
	lifePushes     atomic.Int64
	migrRecv       atomic.Int64
	migrRun        atomic.Int64
}

// scratch bundles the reusable buffers of the vertex hot path — the tile
// descriptor, anti-dependency lists, per-owner grouping, fetch id batches,
// wire encode space, batch decode state and the stencil slab — so
// steady-state vertex execution allocates nothing, not even the Cell slice
// Compute is passed: it is reused between calls (the App contract).
type scratch[T any] struct {
	td      tileDesc       // the unit being described or walked (walk.go)
	antiBuf []dag.VertexID // Pattern.AntiDependencies output
	antiRes []cellRef      // a cell's resolved anti-dependencies (steal-done)

	// The stencil tile being walked, ghost-framed (ghostFrame): cell (i, j) at
	// slab[at(i, j)]. It grows to the largest tile plus reach and is reused.
	slab             []T
	gi0, gj0, stride int
	mark             []uint32   // what the frame put at each index, as mark[x]-gen (markPoured …)
	gen              uint32     // moves on every walk, so mark is never cleared
	ghostReads       []int32    // per tile row: the reads of other places' values
	dx               []int      // per offset of the row being walked: its slab delta (rowFrame)
	pushed           []pushSpan // what remote tiles read of the walk's cells (settleRow)

	remote [][]dag.VertexID // by owning place: ids to fetch (cachedOrQueued)
	owners []int            // owners with buffered ids, in first-use order

	cells []Cell[T]      // deps passed to Compute; valid only during the call
	ids   []dag.VertexID // decode state (handlers, a steal reply); a tile's cells in order, to send
	enc   []byte         // wire encode buffer
	vals  []T            // fetched values (fetchValues)
	batch decrBatch[T]   // decrement record decode state (applyBatch)

	// What the unit completing cells of this place owes, parked until it
	// ends (settle): by place, decrements per target tile and the values
	// pushed there; and its completions, which the done counter has not
	// seen yet.
	owed  []settlement[T]
	owing []int // places with a settlement in owed, in first-use order
	doneN int64

	extDeps []dag.VertexID            // PickTile inputs (MinComm)
	extSeen map[dag.VertexID]struct{} // dedup for extDeps; lazily allocated
	// halo holds the values the unit being walked reads from other places:
	// filled by fillHalo before the cells run and — when another place owns
	// the cells — extended with each result, which the owner has not stored
	// yet. It is the only place gatherDeps finds a remote value, so a walk's
	// inputs do not depend on surviving the cache's FIFO. Bounded by the
	// distinct remote dependencies of one tile (plus the tile's own cells on
	// a thief, and its push box's values); emptied by the next walk's
	// fillHalo, never shrunk.
	halo haloTable[T]

	// wkr is the owning worker's deque index, or -1 when the scratch is
	// used by a protocol handler; enqueueTile uses it for LIFO locality.
	wkr int
}

func newScratch[T any](places, wkr int) *scratch[T] {
	return &scratch[T]{remote: make([][]dag.VertexID, places), owed: make([]settlement[T], places), wkr: wkr}
}

func (sc *scratch[T]) at(i, j int32) int { return (int(i)-sc.gi0)*sc.stride + int(j) - sc.gj0 }

// resetGroups empties the per-owner grouping, which a previous,
// error-aborted use may have left half-filled.
func (sc *scratch[T]) resetGroups() {
	for _, owner := range sc.owners {
		sc.remote[owner] = sc.remote[owner][:0]
	}
	sc.owners = sc.owners[:0]
}

func (pe *placeEngine[T]) getScratch() *scratch[T] {
	if sc, ok := pe.scratchPool.Get().(*scratch[T]); ok {
		sc.wkr = -1
		return sc
	}
	return newScratch[T](pe.cfg.Places, -1)
}

func (pe *placeEngine[T]) putScratch(sc *scratch[T]) { pe.scratchPool.Put(sc) }

// cellRef is a dist.PlaceOffset resolution: the owning place and the dense
// local offset of a cell within it: distarray's type, which Stencil.Locate
// returns. A walk resolves each anti-dependency into one once, so park
// records its decrement without asking the dist again.
type cellRef = distarray.CellRef

// workerCtx is one host worker's persistent per-engine state. The picker
// is epoch-scoped (it captures the epoch's distribution), so it is
// rebuilt lazily whenever the worker first touches a new epoch.
type workerCtx[T any] struct {
	sc   *scratch[T]
	rng  *rand.Rand
	pk   *sched.Picker
	pkSt *epochState[T]

	// probesLeft is the worker's remaining random-steal probe budget for
	// the current idle episode (Steal jobs only): refilled whenever the
	// worker runs a tile, spent one per idle pull; at zero the worker parks
	// the place on its lifelines instead of probing.
	probesLeft int
}

func newPlaceEngine[T any](self int, cfg *Config[T], tr transport.Transport, abort func(error), reg *metrics.Registry, host *placeHost, job uint32) *placeEngine[T] {
	pe := &placeEngine[T]{
		self:      self,
		cfg:       cfg,
		tr:        tr,
		host:      host,
		job:       job,
		jobKey:    uint8(job),
		workers:   make([]workerCtx[T], cfg.Threads),
		spanTile:  "tile",
		spanSteal: "steal",
		alive:     make([]atomic.Bool, cfg.Places),
		abort:     abort,
		stopCh:    make(chan struct{}),
		reg:       reg,
	}
	if job != 0 {
		pe.spanTile = fmt.Sprintf("j%d:tile", job)
		pe.spanSteal = fmt.Sprintf("j%d:steal", job)
	}
	for w := range pe.workers {
		pe.workers[w].sc = newScratch[T](cfg.Places, w)
	}
	pe.mTiles = reg.Counter(metrics.SchedTilesExecutedID)
	pe.mCells = reg.Counter(metrics.SchedCellsExecutedID)
	pe.mBusy = reg.Counter(metrics.SchedBusyNsID)
	pe.mFetchWait = reg.Counter(metrics.EngineFetchWaitNsID)
	pe.mStealAtt = reg.Counter(metrics.SchedStealsAttemptedID)
	pe.mStealOK = reg.Counter(metrics.SchedStealsSucceededID)
	pe.mParks = reg.Counter(metrics.SchedDequeParksID)
	pe.mLifeProbes = reg.Counter(metrics.SchedLifelineProbesID)
	pe.mLifeParks = reg.Counter(metrics.SchedLifelineParksID)
	pe.mLifePush = reg.Counter(metrics.SchedLifelinePushesID)
	pe.mTilesMigr = reg.Counter(metrics.SchedTilesMigratedID)
	pe.mVCHits = reg.Vec(metrics.VCacheHitsID)
	pe.mVCMiss = reg.Vec(metrics.VCacheMissesID)
	pe.mVCEvict = reg.Vec(metrics.VCacheEvictionsID)
	pe.mEpoch = reg.Gauge(metrics.EngineEpochID)
	pe.mJobTiles = reg.Vec(metrics.JobTilesExecutedID)
	for p := 0; p < cfg.Places; p++ {
		pe.alive[p].Store(true)
	}
	pe.snapOn = cfg.Snapshot != nil && cfg.SnapshotEvery > 0
	pe.registerHandlers()
	return pe
}

// prepare initializes epoch 0: distribute and initialize the local
// vertices and seed the work deques with the immediately schedulable
// tiles (paper §VI-A step 1). Every place must have prepared before any
// place launches — otherwise an early decrement could reach a place with
// no state to receive it and be lost with nothing to replay it.
func (pe *placeEngine[T]) prepare(d dist.Dist) {
	chunk := pe.newChunk(0, d)
	st := pe.newEpochState(0, d, chunk)
	// Epoch 0 marks the inactive cells and counts the tile edges before the
	// chunk is published; a recovery runs the same scan in its resume round,
	// after the replay.
	for _, t := range chunk.InitActivateTiles(pe.cfg.Pattern) {
		pe.enqueueTile(st, t, -1)
	}
	pe.st.Store(st)
}

// newEpochState assembles per-epoch state — shared by prepare (epoch 0)
// and the recovery rebuild, in both the single-process and TCP
// deployments. The chunk's tile layout is configured here (the counters
// start at zero; ActivateTiles adds their edge counts once the epoch's
// finished flags are final).
// The decrement aggregator is epoch-owned: its flusher goroutine exits
// when this epoch's quit channel closes.
func (pe *placeEngine[T]) newEpochState(epoch uint64, d dist.Dist, chunk *distarray.Chunk[T]) *epochState[T] {
	grids, lay := pe.cfg.layout.get(&pe.cfg.Common, epoch, d)
	rank := make([]int, pe.cfg.Places)
	for k, p := range d.Places() {
		rank[p] = k
	}
	grid := distarray.NewTileGrid(0, 0, 1, 1) // what a place d gives no cells has
	if k := slices.Index(d.Places(), pe.self); k >= 0 {
		grid = grids[k]
	}
	chunk.ConfigureGrid(grid)
	st := &epochState[T]{
		epoch: epoch,
		d:     d,
		chunk: chunk,
		sched: newTileSched(pe.cfg.Threads, pe.host.notify),
		prio:  tilePriorities(&chunk.TileGrid, d.LocalBox(pe.self)),
		grids: grids,
		rank:  rank,
		lay:   lay,
		quit:  make(chan struct{}),
		cache: pe.newCache(),
		agg:   newAggregator(pe, epoch),
	}
	if st.agg.push {
		st.boxes = newPushBoxes[T](chunk.NumTiles(), chunk.Len())
	}
	go st.agg.loop(st.quit)
	if pe.usesSteal() && pe.cfg.Places > 1 { // one place has no one to balance with
		st.life = newLifelineState[T](pe.lifelineEdges(d))
		go pe.lifelineLoop(st)
	}
	pe.mEpoch.Set(int64(epoch))
	return st
}

// lifelineEdges derives this place's outgoing lifeline edges for an
// epoch: the cyclic hypercube is laid over the distribution's alive
// places (by rank), so a recovery's shrunken place set keeps the graph
// strongly connected instead of leaving edges pointing at the dead.
func (pe *placeEngine[T]) lifelineEdges(d dist.Dist) []int {
	places := d.Places()
	rank := slices.Index(places, pe.self)
	if rank < 0 {
		return nil
	}
	ranks := sched.LifelineEdges(rank, len(places), 0) // default fan-out
	edges := make([]int, len(ranks))
	for k, r := range ranks {
		edges[k] = places[r]
	}
	return edges
}

// launch makes the prepared epoch-0 state runnable on the shared worker
// pool (paper §VI-A step 2). The pool itself lives with the place; launch
// only signals that this engine's deques have work.
func (pe *placeEngine[T]) launch() {
	st := pe.current()
	pe.maybeReportDone(st)
	pe.host.wakeAll()
}

// workerFor returns worker w's persistent context, rebuilding its picker
// when the worker first touches a new epoch (the picker captures the
// epoch's distribution; the seed mirrors the old per-spawn formula so
// random placement stays deterministic per (place, worker, epoch)).
func (pe *placeEngine[T]) workerFor(st *epochState[T], w int) *workerCtx[T] {
	wc := &pe.workers[w]
	if wc.pkSt != st {
		seed := int64(pe.self)<<32 | int64(w)<<8 | int64(st.epoch&0xff)
		wc.pk = sched.NewPicker(pe.cfg.Strategy, st.d, pe.isAlive, pe.cfg.valueWidth, seed)
		if pe.usesSteal() { // only trySteal draws from it
			wc.rng = rand.New(rand.NewPCG(uint64(seed^0x5bd1e995), 0))
		}
		wc.pkSt = st
		wc.probesLeft = lifelineProbes
	}
	return wc
}

// gated runs fn against the live epoch while holding its run gate shared,
// so a recovery pause can drain it, and turns a panic in fn into an abort.
// It reports fn's result: whether any work was done (jobRunner contract),
// false with no live epoch or one being paused or torn down.
func (pe *placeEngine[T]) gated(fn func(st *epochState[T]) bool) bool {
	st := pe.st.Load()
	if st == nil {
		return false
	}
	select {
	case <-st.quit:
		return false
	case <-pe.stopCh:
		return false
	default:
	}
	if !st.runGate.TryRLock() {
		return false // epoch is being paused
	}
	defer st.runGate.RUnlock()
	defer func() {
		if r := recover(); r != nil {
			pe.abort(fmt.Errorf("core: place %d worker panic: %v", pe.self, r))
		}
	}()
	return fn(st)
}

// tryRun executes at most one ready tile for host worker w. A tile another
// place pushed here goes first: its owner gave it away, and the successors
// there wait on it.
func (pe *placeEngine[T]) tryRun(w int) bool {
	return pe.gated(func(st *epochState[T]) bool {
		wc := pe.workerFor(st, w)
		if mt, ok := st.inbox.take(0, false); ok {
			wc.probesLeft = lifelineProbes
			pe.runForeign(st, wc.sc, mt.reason, mt.cells)
			return true
		}
		t, ok := st.sched.take(w)
		if ok {
			wc.probesLeft = lifelineProbes
			pe.runTile(st, wc.pk, wc.sc, t)
		}
		return ok
	})
}

// idlePull is the jobRunner idle path of a Steal-strategy job: a bounded
// budget of random steal probes per idle episode, then one registration
// pass that parks this place on its lifelines. Progress after that is
// message-driven (a push wakes the pool), so an armed place sends no
// further probes at all. The host paces the attempts (parkDelay), so the
// engine only attempts; it never sleeps.
func (pe *placeEngine[T]) idlePull(w int) bool {
	return pe.gated(func(st *epochState[T]) bool {
		if st.life == nil {
			return false // not a Steal job, or one place: no one to steal from
		}
		wc := pe.workerFor(st, w)
		if wc.probesLeft <= 0 {
			if pe.maybePark(st, wc.sc) {
				wc.probesLeft = lifelineProbes
				return true
			}
			return false
		}
		wc.probesLeft--
		if pe.trySteal(st, wc.sc, wc.rng) {
			wc.probesLeft = lifelineProbes
			return true
		}
		return false
	})
}

func (pe *placeEngine[T]) usesSteal() bool { return pe.cfg.Strategy == sched.Steal }

// parkDelay is the host's park interval for worker w when this job found
// no work: the ordinary short steal-retry pace while probes remain, the
// long message-driven pace once the worker's place is parked on its
// lifelines (jobRunner contract).
func (pe *placeEngine[T]) parkDelay(w int) time.Duration {
	if pe.workers[w].probesLeft <= 0 {
		return lifelineParkDelay
	}
	return stealRetryDelay
}

// runTile executes one claimed tile of this place: its unfinished cells, in
// intra-tile dependency order, as one stack-local loop — no channel
// operations, no readiness counters and no decrement traffic for edges
// inside the tile. Cross-tile and cross-place edges settle once, when the
// walk ends.
// A tile the strategy places elsewhere goes there whole (transfer.go); one
// the target refuses, or a dead target's, runs here.
func (pe *placeEngine[T]) runTile(st *epochState[T], pk *sched.Picker, sc *scratch[T], tile int) {
	t0 := pe.unitClock()
	// One placement decision for the whole tile. Only MinComm weighs the tile's
	// inputs, which describeTile lists; else a stencil tile staying here is walked.
	exec := pe.self
	if pe.cfg.Strategy != sched.MinComm {
		if exec = pk.PickTile(pe.self, 0, nil); exec == pe.self && st.chunk.Stencil() != nil {
			pe.countTile(st, sc, pe.walkStencil(st, sc, tile), t0)
			return
		}
	}
	td := pe.describeTile(st, sc, tile)
	if pe.cfg.Strategy == sched.MinComm {
		exec = pk.PickTile(pe.self, len(td.order), pe.tileExtDeps(sc, td))
	}
	if exec != pe.self {
		if sc.ids = td.appendOrder(sc.ids[:0]); pe.pushTile(st, sc, exec, transferExec, sc.ids) {
			st.boxes.drop(tile)
			return
		}
	}
	// A dead peer or superseded epoch abandons the rest of the tile; the
	// recovery's rebuilt tile counters reschedule it.
	done, _ := pe.walk(st, sc, td)
	pe.countTile(st, sc, done, t0)
}

// unitClock reads the clock when a unit starts here — runTile, or runForeign
// for a tile from the inbox or a steal — and only when the registry or the
// span log will record the unit; it is the zero time otherwise. No clock is
// read per cell.
func (pe *placeEngine[T]) unitClock() time.Time {
	if pe.reg == nil && pe.cfg.Spans == nil {
		return time.Time{}
	}
	return time.Now()
}

// countTile records one unit run here that computed cells: one tile task,
// its cells and — when unitClock read t0 — its busy time, which covers the
// whole unit (halo fill, compute and settle), and its tile span. A unit that
// computed nothing is not counted. Then, with the unit's counts in for any
// reader of the job's Stats, the place reports done if it is.
func (pe *placeEngine[T]) countTile(st *epochState[T], sc *scratch[T], cells int, t0 time.Time) {
	if cells == 0 {
		return
	}
	pe.tilesRun.Add(1)
	pe.mTiles.Inc(sc.wkr)
	pe.mJobTiles.Add(pe.jobKey, 1)
	pe.mCells.Add(sc.wkr, int64(cells))
	if !t0.IsZero() {
		pe.mBusy.Add(sc.wkr, int64(time.Since(t0)))
		pe.cfg.Spans.Add(pe.spanTile, pe.self, sc.wkr, t0)
	}
	pe.maybeReportDone(st)
}

// trySteal asks one random alive peer for a ready tile and runs it here
// (runForeign). Returns whether any work was done.
func (pe *placeEngine[T]) trySteal(st *epochState[T], sc *scratch[T], rng *rand.Rand) bool {
	places := st.d.Places()
	victim := places[rng.IntN(len(places))]
	if victim == pe.self || !pe.isAlive(victim) {
		return false
	}
	return pe.stealFrom(st, sc, victim, false)
}

// stealFrom asks one victim for a ready tile. The payload's lifeline flag
// piggybacks parking on the probe: when set and the victim has nothing
// ready, its empty reply doubles as a registration — this place becomes a
// parked buddy the victim will push surplus tiles to later.
func (pe *placeEngine[T]) stealFrom(st *epochState[T], sc *scratch[T], victim int, lifeline bool) bool {
	pe.mStealAtt.Inc(sc.wkr)
	if !lifeline {
		// A random probe, counted where it is also counted as an attempt: a
		// draw that landed on self or a dead place sent nothing, and
		// probes <= attempts holds at every instant.
		pe.mLifeProbes.Inc(sc.wkr)
	}
	sp := pe.cfg.Spans
	var spanStart time.Time
	if sp != nil {
		spanStart = time.Now()
	}
	sc.enc = encodeSteal(sc.enc[:0], st.epoch, lifeline)
	reply, err := pe.tr.Call(victim, kindSteal, sc.enc)
	if err != nil {
		pe.peerError(victim, err)
		return false
	}
	got, _, cells, err := pe.takeTransfer(victim, reply, sc.ids[:0], false)
	sc.ids = cells
	if err != nil || got != st || pe.runForeign(st, sc, transferSteal, cells) == 0 {
		return false // nothing ready, not a tile the victim could have handed over, or not run
	}
	pe.mStealOK.Inc(sc.wkr)
	if sp != nil {
		sp.Add(pe.spanSteal, pe.self, sc.wkr, spanStart)
	}
	return true
}

func (pe *placeEngine[T]) isAlive(p int) bool {
	return p >= 0 && p < len(pe.alive) && pe.alive[p].Load()
}

// newChunk allocates this place's chunk under d, disk-backed when the
// run is configured to spill vertex values (paper §X future work). A
// spilled chunk stores its cells tile by tile under epoch's tile grid, so
// the walk of one tile touches a few consecutive pages (TileGrid.TileMajor).
func (pe *placeEngine[T]) newChunk(epoch uint64, d dist.Dist) *distarray.Chunk[T] {
	if sc := pe.cfg.Spill; sc != nil {
		var remap func(int) int
		if k := slices.Index(d.Places(), pe.self); k >= 0 {
			grids, _ := pe.cfg.layout.get(&pe.cfg.Common, epoch, d)
			remap = grids[k].TileMajor
		}
		store, err := spill.NewMapped[T](d.LocalCount(pe.self), sc.PageVals, sc.ResidentPages,
			pe.cfg.Codec, sc.Dir, remap)
		if err != nil {
			// Spilling is an explicit opt-in; failing to set it up is an
			// unrecoverable configuration/environment error.
			pe.abort(fmt.Errorf("core: place %d spill store: %w", pe.self, err))
			return distarray.NewChunk[T](pe.self, d)
		}
		return distarray.NewChunkBacked[T](pe.self, d, store)
	}
	return distarray.NewChunk[T](pe.self, d)
}

// newCache builds a fresh per-epoch remote-vertex cache. Recovery must not
// reuse the old one: cached values may have lived on the dead place and
// been recomputed to the same ids.
func (pe *placeEngine[T]) newCache() *vcache.Cache[T] {
	return vcache.New[T](pe.cfg.CacheSize)
}

// current returns the live epoch state.
func (pe *placeEngine[T]) current() *epochState[T] { return pe.st.Load() }

// stale reports whether st has been superseded by a recovery.
func (pe *placeEngine[T]) stale(st *epochState[T]) bool { return pe.st.Load() != st }

// publish stores and publishes the value of cell off inside a unit that owns
// the cell exclusively (walk, handleStealDone), which counts it done when it
// settles. A stencil tile publishes its cells a row at a time instead.
func (pe *placeEngine[T]) publish(st *epochState[T], sc *scratch[T], off int, value T) {
	st.chunk.SetValue(off, value)
	st.chunk.Publish(off, 1)
	sc.doneN++
	if pe.snapOn {
		pe.maybeSnapshot(st, 1)
	}
}

// park records what cell off, of tile, owes its anti-dependencies (anti)
// until the unit ends and settles. An edge inside the tile owes nothing: the
// unit's order satisfied it. A local edge owes its target's tile one
// decrement while the target is unfinished; a restored target's edge was
// never counted. A remote edge always owes one, to the target's tile at its
// owner, which counted it whatever the target's state; under value push that
// tile also gets the value, once.
func (pe *placeEngine[T]) park(st *epochState[T], sc *scratch[T], tile distarray.TileBox, off int, value T, anti []cellRef) {
	for _, a := range anti {
		owner, aoff := int(a.Owner), int(a.Off)
		if owner == pe.self {
			if !tile.Holds(aoff) && !st.chunk.Finished(aoff) {
				sc.owe(owner, st.chunk.TileOf(aoff), 1)
			}
			continue
		}
		s, k := sc.owe(owner, st.tileOf(owner, aoff), 1)
		if st.agg.push {
			s.valsAt(k).add(uint32(off), value)
		}
	}
}

// settlement is what a unit owes one place when it ends: decrements per
// tile of that place's grid and, under value push, what each of those tiles
// reads of the unit's cells — one decrement record (proto.go).
type settlement[T any] struct {
	tiles []tileCount
	vals  []tileVals[T] // vals[k] is what tiles[k] reads; only under push
}

// valsAt returns what tile entry k carries, lining vals up with tiles as far
// as k.
func (s *settlement[T]) valsAt(k int) *tileVals[T] {
	for len(s.vals) <= k {
		s.vals = nextVals(s.vals)
	}
	return &s.vals[k]
}

// owe parks n decrements against tile t of place p and returns p's
// settlement and the tile's entry in it. A unit's edges reach few tiles,
// nearly always one of the last few they reached, so a short backward scan
// finds it; a miss appends, and a tile listed twice is only a second add.
func (sc *scratch[T]) owe(p, t, n int) (*settlement[T], int) {
	s := &sc.owed[p]
	for k := len(s.tiles) - 1; k >= 0 && k >= len(s.tiles)-4; k-- {
		if s.tiles[k].tile == uint32(t) {
			s.tiles[k].count += uint32(n)
			return s, k
		}
	}
	if len(s.tiles) == 0 {
		sc.owing = append(sc.owing, p)
	}
	s.tiles = append(s.tiles, tileCount{tile: uint32(t), count: uint32(n)})
	return s, len(s.tiles) - 1
}

// settle ends a unit that completed cells of this place: each of this
// place's tiles it owes takes its count in one TileAdd (scheduling the tiles
// that makes ready), each other place gets its settlement as one aggregator
// record, the flusher is woken — the quantum's end — and the done counter
// advances by the unit's completions (the caller reports the place done).
// Every such unit settles once on every exit, an early one (pause, stale
// epoch, peer error, panic) included: harmless when the epoch is being torn
// down, since the recovery derives the counters afresh from the finished
// bits. It returns the unit's completions.
func (pe *placeEngine[T]) settle(st *epochState[T], sc *scratch[T]) (done int) {
	for _, p := range sc.owing {
		s := &sc.owed[p]
		if p == pe.self {
			pe.applyTiles(st, sc, s.tiles)
		} else {
			st.agg.add(p, s)
		}
		s.tiles, s.vals = s.tiles[:0], s.vals[:0]
	}
	sc.owing = sc.owing[:0]
	st.agg.kick()
	if done = int(sc.doneN); done > 0 {
		st.chunk.AddDone(sc.doneN)
		pe.computed.Add(sc.doneN)
		sc.doneN = 0
	}
	return done
}

// applyTiles settles decrement counts against this place's tiles and
// schedules the tiles they make ready: a unit's own, and a record's.
func (pe *placeEngine[T]) applyTiles(st *epochState[T], sc *scratch[T], tiles []tileCount) {
	for _, tc := range tiles {
		if st.chunk.TileAdd(int(tc.tile), int32(tc.count)) {
			pe.enqueueTile(st, int(tc.tile), sc.wkr)
		}
	}
}

// enqueueTile puts a ready tile on the place's work deques, exactly once
// per epoch (the chunk's tileQueued flag arbitrates concurrent paths),
// keyed by its priority so workers drain toward the place's boundary.
func (pe *placeEngine[T]) enqueueTile(st *epochState[T], t, wkr int) {
	if !st.chunk.TryMarkTileQueued(t) {
		return
	}
	st.sched.push(t, wkr, st.prio[t])
	if life := st.life; life != nil {
		// New local work: leave the parked state (idle workers may probe
		// again) and, if buddies are parked on us, offer them the surplus.
		life.armed.Store(false)
		if life.parkedCount() > 0 {
			life.kickPush()
		}
	}
}

// peerError classifies a transport error: dead peers are reported to the
// coordinator; anything else is ignored here (stale epochs resolve via
// recovery, transient unreachability is the reliable layer's business, and
// other errors surface through aborts elsewhere).
func (pe *placeEngine[T]) peerError(peer int, err error) {
	if errors.Is(err, transport.ErrDeadPlace) {
		pe.reportFault(peer)
	}
}

// reportFault tells the coordinator that peer appears dead. The death of
// place 0 is unrecoverable (paper §VI-D) and aborts the run.
func (pe *placeEngine[T]) reportFault(peer int) {
	if !pe.tr.Alive(pe.self) {
		return // this place is itself dead; its observations are void
	}
	if peer == 0 {
		pe.abort(placeDead(0))
		return
	}
	st := pe.current()
	if err := pe.tr.Send(0, kindFault, encodePlaceEvent(make([]byte, 0, 12), st.epoch, peer)); pe.coordinatorLost(err) {
		pe.abort(placeDead(0))
	}
}

// coordinatorLost reports whether a failed send to place 0 means place 0
// died. A dead destination does — unless the dead place is this one: a
// kill can land between the caller's liveness check and its send, and a
// dead place's observations are void.
func (pe *placeEngine[T]) coordinatorLost(err error) bool {
	return errors.Is(err, transport.ErrDeadPlace) && pe.tr.Alive(pe.self)
}

// maybeReportDone notifies the coordinator once every local active vertex
// has finished ("once all local vertices are finished the worker exits",
// paper §VI-A).
func (pe *placeEngine[T]) maybeReportDone(st *epochState[T]) {
	if !pe.tr.Alive(pe.self) {
		return
	}
	if !st.chunk.AllFinished() || st.doneReported.Swap(true) {
		return
	}
	if err := pe.tr.Send(0, kindPlaceDone, encodePlaceEvent(make([]byte, 0, 12), st.epoch, pe.self)); pe.coordinatorLost(err) {
		pe.abort(placeDead(0))
	}
}

// maybeSnapshot feeds the periodic-snapshot baseline (snapOn) n published
// cells; it saves one each time the count passes a multiple of SnapshotEvery.
func (pe *placeEngine[T]) maybeSnapshot(st *epochState[T], n int64) {
	if after, every := pe.snapSeq.Add(n), pe.cfg.SnapshotEvery; after/every == (after-n)/every {
		return
	}
	pe.cfg.Snapshot.Save(st.chunk, pe.cfg.Pattern, pe.cfg.valueWidth)
	pe.cfg.Snapshot.Commit()
}

// addStats adds this engine's counters, and its job port's transport
// counts, to s: the one place a Stats field is mapped to its source.
func (pe *placeEngine[T]) addStats(s *Stats) {
	s.ComputedCells += pe.computed.Load()
	s.RemoteFetches += pe.remoteFetches.Load()
	s.LocalReads += pe.localReads.Load()
	s.ExecMigrated += pe.execMigrated.Load()
	s.Stolen += pe.stolen.Load()
	s.TilesExecuted += pe.tilesRun.Load()
	s.CacheHits += pe.cacheHits.Load()
	s.CacheMisses += pe.cacheMisses.Load()
	s.FetchCalls += pe.fetchCalls.Load()
	s.AggBatches += pe.aggBatches.Load()
	s.DecrsCoalesced += pe.decrsCoalesced.Load()
	s.ValuesPushed += pe.valuesPushed.Load()
	s.PushDeposits += pe.pushDeposits.Load()
	s.PushConsumed += pe.pushConsumed.Load()
	s.LifelinePushes += pe.lifePushes.Load()
	s.TilesMigrated += pe.migrRecv.Load()
	s.MigratedRuns += pe.migrRun.Load()
	ts := pe.tr.Stats().Snapshot()
	s.MsgsSent += ts.SendsOut + ts.CallsOut
	s.BytesSent += ts.BytesOut
	s.SendsOut += ts.SendsOut
}

// stop ends the run for this place; the live epoch's workers quit with it.
func (pe *placeEngine[T]) stop() {
	pe.stopOnce.Do(func() { close(pe.stopCh) })
	if st := pe.current(); st != nil {
		st.closeQuit()
	}
}

// quiesce waits out what a stopped engine may still have in flight, so a
// finished job's counters are final before its ports detach: workers
// already inside an idle steal probe (one that landed after the detach
// would fail with errUnknownJob and read as a send error of a fault-free
// run), the aggregator's flusher, which may still be accounting for its
// last send, and the lifeline pusher, which counts a push only after the
// buddy accepted it — by when the buddy may have run the tile and the job
// finished. Only for a job that ran to completion — an aborted one may
// have a worker parked in user code.
func (pe *placeEngine[T]) quiesce() {
	st := pe.current()
	st.drainWorkers()
	<-st.agg.done
	if st.life != nil {
		<-st.life.done
	}
}
