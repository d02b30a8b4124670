package core

import (
	"errors"
	"fmt"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/distarray"
)

func (pe *placeEngine[T]) registerHandlers() {
	pe.tr.Handle(kindFetch, pe.handleFetch)
	pe.tr.Handle(kindPause, pe.handlePause)
	pe.tr.Handle(kindRebuild, pe.handleRebuild)
	pe.tr.Handle(kindRestore, pe.handleRestore)
	pe.tr.Handle(kindRestoreTx, pe.handleRestoreTx)
	pe.tr.Handle(kindReplay, pe.handleReplay)
	pe.tr.Handle(kindReplayTx, pe.handleReplayTx)
	pe.tr.Handle(kindResume, pe.handleResume)
	pe.tr.Handle(kindStop, pe.handleStop)
	pe.tr.Handle(kindReadVal, pe.handleReadVal)
	pe.tr.Handle(kindPlaceDone, pe.handleCoordinatorEvent(false))
	pe.tr.Handle(kindFault, pe.handleCoordinatorEvent(true))
	pe.tr.Handle(kindSteal, pe.handleSteal)
	pe.tr.Handle(kindStealDone, pe.handleStealDone)
	pe.tr.Handle(kindDecrBatch, pe.handleDecrBatch)
	pe.tr.Handle(kindTransfer, pe.handleTransfer)
}

// handlePing echoes the failure detector's heartbeat payload ([seq u64]
// [send-nanos u64]) so the detector can verify liveness end to end. The
// payload is copied — handlers must not let the transport buffer escape.
func handlePing(_ int, payload []byte) ([]byte, error) {
	echo := make([]byte, len(payload))
	copy(echo, payload)
	return echo, nil
}

// handleCoordinatorEvent adapts placeDone/fault notifications into
// coordinator events. Only place 0 has a coordinator; other places ignore
// the traffic (it should never reach them).
func (pe *placeEngine[T]) handleCoordinatorEvent(fault bool) func(int, []byte) ([]byte, error) {
	return func(from int, payload []byte) ([]byte, error) {
		if pe.events == nil {
			return nil, nil
		}
		r := reader{b: payload}
		epoch := r.u64()
		place := int(r.u32())
		if r.err != nil {
			return nil, r.err
		}
		select {
		case pe.events <- coEvent{fault: fault, place: place, epoch: epoch}:
		case <-pe.stopCh:
		}
		return nil, nil
	}
}

// stateAt returns the live epoch state iff it matches the message's
// epoch. A nil state (the engine has not started yet — possible when a
// fast peer races this place's initialization) is treated like a stale
// epoch: Calls fail with errStaleEpoch and one-way traffic is dropped,
// which the sender already handles.
func (pe *placeEngine[T]) stateAt(epoch uint64) (*epochState[T], error) {
	st := pe.current()
	if st == nil || st.epoch != epoch {
		return nil, errStaleEpoch
	}
	return st, nil
}

// ownedOffset vets a vertex id that came off the wire: ok only when it lies
// inside the grid and place want owns it under this epoch's distribution, in
// which case off is its local offset there. The dist tables do no bounds
// check of their own, so every handler resolves wire ids through here.
func (st *epochState[T]) ownedOffset(id dag.VertexID, want int) (off int, ok bool) {
	if !st.inGrid(id) {
		return 0, false
	}
	owner, off := st.d.PlaceOffset(id.I, id.J)
	return off, owner == want
}

func (st *epochState[T]) inGrid(id dag.VertexID) bool {
	h, w := st.d.Bounds()
	return id.I >= 0 && id.J >= 0 && id.I < h && id.J < w
}

// errBadID is what a Call carrying such an id is answered with.
func (pe *placeEngine[T]) errBadID(kind string, id dag.VertexID, from int) error {
	return fmt.Errorf("core: place %d: %s from place %d names %v, which is outside the grid or owned elsewhere", pe.self, kind, from, id)
}

// handleFetch serves finished vertex values to a peer resolving its
// dependencies — the halo of a tile, wherever it runs. Values are encoded
// in request order.
func (pe *placeEngine[T]) handleFetch(from int, payload []byte) ([]byte, error) {
	sc := pe.getScratch()
	defer pe.putScratch(sc)
	epoch, ids, err := decodeFetchReq(payload, sc.ids[:0])
	sc.ids = ids // keep grown capacity in the pool
	if err != nil {
		return nil, err
	}
	st, err := pe.stateAt(epoch)
	if err != nil {
		return nil, err
	}
	reply := make([]byte, 0, len(ids)*pe.valueSize())
	for _, id := range ids {
		off, ok := st.ownedOffset(id, pe.self)
		if !ok {
			return nil, pe.errBadID("fetch", id, from)
		}
		if !st.chunk.Finished(off) {
			return nil, fmt.Errorf("core: fetch of unfinished vertex %v from place %d", id, from)
		}
		reply = pe.cfg.Codec.Encode(reply, st.chunk.Value(off))
	}
	return reply, nil
}

// handleDecrBatch applies one batch of decrement records (applyDecrs). A
// stale-epoch batch is dropped: the recovery replay covers it.
func (pe *placeEngine[T]) handleDecrBatch(from int, payload []byte) ([]byte, error) {
	if err := pe.applyDecrs(from, payload); !errors.Is(err, errStaleEpoch) {
		return nil, err
	}
	return nil, nil
}

// applyDecrs is the one apply body of a decrement batch, runtime or
// replayed: pushed values are bulk-deposited into the epoch's cache first,
// so that by the time a count makes a consumer tile ready, the value it will
// want is already cached; then the counts settle against this place's tiles.
// A batch naming a tile this place does not have is refused whole, before
// any counter moves.
func (pe *placeEngine[T]) applyDecrs(from int, payload []byte) error {
	sc := pe.getScratch()
	defer pe.putScratch(sc)
	b := &sc.batch
	if err := decodeDecrBatch(payload, pe.cfg.Codec, b); err != nil {
		return err
	}
	st, err := pe.stateAt(b.epoch)
	if err != nil {
		return err
	}
	n := st.chunk.NumTiles()
	for _, tc := range b.tiles {
		if int(tc.tile) >= n {
			return fmt.Errorf("core: place %d: decrements from place %d name tile %d of %d", pe.self, from, tc.tile, n)
		}
	}
	if pe.cfg.CacheSize > 0 && len(b.ids) > 0 {
		pe.pushDeposits.Add(int64(st.cache.PutPushed(b.ids, b.vals)))
	}
	pe.applyTiles(st, sc, b.tiles)
	return nil
}

// handleSteal hands one locally ready tile to an idle thief, as a transfer
// body with reason steal, or replies empty when nothing is queued. The tile
// leaves the deques; its cells complete when the thief's steal-done
// arrives. If the thief (or this place) dies first, the cells are neither
// finished nor queued — exactly the state the recovery's rebuilt tile
// counters cover. The payload's trailing lifeline flag turns an unlucky
// probe into a registration: the empty reply also parks the thief as a
// lifeline buddy this place will push surplus ready tiles to.
func (pe *placeEngine[T]) handleSteal(from int, payload []byte) ([]byte, error) {
	r := reader{b: payload}
	epoch := r.u64()
	lifeline := r.u8()
	if r.err != nil {
		return nil, r.err
	}
	st, err := pe.stateAt(epoch)
	if err != nil {
		return nil, err
	}
	sc := pe.getScratch()
	defer pe.putScratch(sc)
	t, ok := st.sched.steal()
	if !ok {
		if lifeline == 1 && st.life != nil && from != pe.self {
			st.life.addParked(from)
			// Surplus may already sit in the inbox even though the
			// deques are empty; let the pusher check.
			st.life.kickPush()
		}
		return nil, nil
	}
	sc.ids = pe.describeTile(st, sc, t).appendOrder(sc.ids[:0])
	return encodeTransfer(nil, st.epoch, transferSteal, sc.ids), nil
}

// --- recovery protocol (paper §VI-D) ----------------------------------
//
// The coordinator drives five synchronous phases across the survivors:
// pause → rebuild → restore → replay → resume. Each phase only starts
// after every place acknowledged the previous one, so a place handler can
// rely on cluster-wide phase ordering.

// handlePause quiesces the worker pool and records the authoritative dead
// set. After it returns, no activity of this place mutates pre-recovery
// state and no new epoch-stamped messages leave it.
func (pe *placeEngine[T]) handlePause(from int, payload []byte) ([]byte, error) {
	r := reader{b: payload}
	_ = r.u64() // new epoch; installed at rebuild
	nDead := r.u32()
	for k := uint32(0); k < nDead; k++ {
		p := int(r.u32())
		if r.err != nil {
			return nil, r.err
		}
		if p >= 0 && p < len(pe.alive) {
			pe.alive[p].Store(false)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if st := pe.current(); st != nil {
		st.closeQuit()
		st.drainWorkers()
		// Quiesce flush: with the workers stopped, drain the buffered
		// decrements so they become ordinary in-flight messages — applied
		// if they land before the receiver rebuilds, dropped as stale
		// after. Either way the decrement replay re-derives them.
		st.agg.flushAll()
	}
	return nil, nil
}

// handleRebuild creates this place's chunk under the restricted
// distribution, carrying over surviving results per the configured
// recovery mode, and installs the new epoch state (workers not yet
// running).
func (pe *placeEngine[T]) handleRebuild(from int, payload []byte) ([]byte, error) {
	r := reader{b: payload}
	newEpoch := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	old := pe.current()
	if old == nil {
		return nil, errStaleEpoch
	}
	newDist, err := old.d.Restrict(pe.isAlive)
	if err != nil {
		return nil, err
	}
	chunk := pe.newChunk(newDist)
	chunk.InitFlags(pe.cfg.Pattern)
	var transfers []distarray.Transfer[T]
	switch pe.cfg.Recovery {
	case RecoverSnapshot:
		pe.cfg.Snapshot.RestoreInto(chunk, pe.cfg.Pattern)
	default:
		transfers = distarray.CarryOver(old.chunk, chunk, pe.cfg.Pattern, pe.cfg.RestoreRemote)
	}
	// The superseded chunk's storage (spill scratch file, if any) is no
	// longer reachable once the new state is installed.
	defer old.chunk.Close()
	// The old epoch's cache is about to be discarded with it; bank its
	// shard counters in the registry so cumulative totals survive.
	pe.foldCacheStats(old.cache)
	pe.transferMu.Lock()
	pe.pendingTransfers = transfers
	pe.transferMu.Unlock()
	pe.st.Store(pe.newEpochState(newEpoch, newDist, chunk))
	return nil, nil
}

// handleRestore ships this place's outbound transfers (finished vertices
// whose owner changed, restore-remote mode only) to their new owners.
func (pe *placeEngine[T]) handleRestore(from int, payload []byte) ([]byte, error) {
	r := reader{b: payload}
	epoch := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	pe.transferMu.Lock()
	pending := pe.pendingTransfers
	pe.pendingTransfers = nil
	pe.transferMu.Unlock()
	byDest := make(map[int][]distarray.Transfer[T])
	for _, tr := range pending {
		byDest[tr.To] = append(byDest[tr.To], tr)
	}
	for dest, trs := range byDest {
		msg := make([]byte, 0, 12+len(trs)*12)
		msg = putU64(msg, epoch)
		msg = putU32(msg, uint32(len(trs)))
		for _, tr := range trs {
			msg = putID(msg, tr.ID)
			msg = pe.cfg.Codec.Encode(msg, tr.Value)
		}
		if _, err := pe.tr.Call(dest, kindRestoreTx, msg); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// handleRestoreTx installs restored finished values into the new chunk.
func (pe *placeEngine[T]) handleRestoreTx(from int, payload []byte) ([]byte, error) {
	return nil, pe.eachOwnedValue(from, "restore", payload, func(st *epochState[T], off int, _ dag.VertexID, v T) {
		st.chunk.SetResult(off, v)
	})
}

// handleReplay re-sends what finished local vertices owe other places:
// every anti-dependency edge that leaves this place becomes a decrement of
// the target's tile, counted per tile and sent to each owner as one record
// with no values. An edge between two local cells sends nothing; the resume
// scan reads its source's finished flag.
func (pe *placeEngine[T]) handleReplay(from int, payload []byte) ([]byte, error) {
	r := reader{b: payload}
	epoch := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	st, err := pe.stateAt(epoch)
	if err != nil {
		return nil, err
	}
	counts := make([][]uint32, pe.cfg.Places) // by owner, by tile of its grid
	distarray.ReplayDecrements(st.chunk, pe.cfg.Pattern, func(target dag.VertexID) {
		owner, off := st.d.PlaceOffset(target.I, target.J)
		if owner == pe.self {
			return
		}
		if counts[owner] == nil {
			counts[owner] = make([]uint32, st.grids[st.rank[owner]].NumTiles())
		}
		counts[owner][st.tileOf(owner, off)]++
	})
	for owner, per := range counts {
		b := decrBatch[T]{epoch: epoch}
		for t, n := range per {
			if n > 0 {
				b.tiles = append(b.tiles, tileCount{tile: uint32(t), count: n})
			}
		}
		if len(b.tiles) == 0 {
			continue
		}
		b.ends = []decrEnd{{tiles: len(b.tiles)}}
		if _, err := pe.tr.Call(owner, kindReplayTx, encodeDecrBatch(pe.cfg.Codec, &b)); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// handleReplayTx applies replayed decrements (applyDecrs). They precede this
// place's activation scan, so they only take tile counters below zero and
// never schedule anything; the resume phase finds the ready tiles.
func (pe *placeEngine[T]) handleReplayTx(from int, payload []byte) ([]byte, error) {
	return nil, pe.applyDecrs(from, payload)
}

// handleResume runs the activation scan, which adds each tile's edge count
// to the decrements already applied, seeds the work deques and wakes the
// shared worker pool onto the new epoch. It replies 1 if this place already
// has no unfinished work so the coordinator can count it done immediately.
func (pe *placeEngine[T]) handleResume(from int, payload []byte) ([]byte, error) {
	r := reader{b: payload}
	epoch := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	st, err := pe.stateAt(epoch)
	if err != nil {
		return nil, err
	}
	for _, t := range st.chunk.ActivateTiles(pe.cfg.Pattern) {
		pe.enqueueTile(st, t, -1)
	}
	pe.host.wakeAll()
	if st.chunk.AllFinished() {
		st.doneReported.Store(true)
		return []byte{1}, nil
	}
	return []byte{0}, nil
}

// handleStop ends the run for this place.
func (pe *placeEngine[T]) handleStop(from int, payload []byte) ([]byte, error) {
	pe.stop()
	return nil, nil
}

// handleReadVal serves post-run result access for multi-process
// deployments: [id] -> [finished u8][value?].
func (pe *placeEngine[T]) handleReadVal(from int, payload []byte) ([]byte, error) {
	r := reader{b: payload}
	id := r.id()
	if r.err != nil {
		return nil, r.err
	}
	st := pe.current()
	if st == nil {
		return nil, errStaleEpoch
	}
	off, ok := st.ownedOffset(id, pe.self)
	if !ok {
		return nil, pe.errBadID("readval", id, from)
	}
	if !st.chunk.Finished(off) {
		return []byte{0}, nil
	}
	return pe.cfg.Codec.Encode([]byte{1}, st.chunk.Value(off)), nil
}
