package core

import (
	"errors"
	"fmt"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/distarray"
	"github.com/dpx10/dpx10/internal/transport"
)

func (pe *placeEngine[T]) registerHandlers() {
	pe.tr.Handle(kindFetch, pe.handleFetch)
	pe.tr.Handle(kindRebuild, pe.handleRebuild)
	pe.tr.Handle(kindExchange, pe.handleExchange)
	pe.tr.Handle(kindRestoreTx, pe.handleRestoreTx)
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
// replayed: pushed values are deposited into the boxes of the tiles that
// read them first (boxes.go), so that by the time a count makes a consumer
// tile ready, the values it will want are in its box; then the counts settle
// against this place's tiles. A batch naming a tile this place does not
// have, or a run past the sender's cells, is refused whole, before any
// counter moves.
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
	n, cells, pushed := st.chunk.NumTiles(), uint32(st.d.LocalCount(from)), false
	for k, tc := range b.tiles {
		if int(tc.tile) >= n {
			return fmt.Errorf("core: place %d: decrements from place %d name tile %d of %d", pe.self, from, tc.tile, n)
		}
		for _, r := range b.vals[k].runs {
			if r.off+r.n > cells {
				return fmt.Errorf("core: place %d: values from place %d name its offsets %d..%d of %d", pe.self, from, r.off, r.off+r.n, cells)
			}
			pushed = true
		}
	}
	if pushed && st.boxes != nil {
		pe.pushDeposits.Add(int64(st.boxes.deposit(st.chunk, from, b)))
	}
	pe.applyTiles(st, sc, b.tiles)
	return nil
}

// handleSteal hands one locally ready tile to an idle thief, as a transfer
// body with reason steal, or replies empty when nothing is queued. The tile
// leaves the deques and its box is freed (the thief fetches what it held);
// its cells complete when the thief's steal-done arrives. If the thief (or
// this place) dies first, the cells are neither finished nor queued —
// exactly the state the recovery's rebuilt tile counters cover. The
// payload's trailing lifeline flag turns an unlucky probe into a
// registration: the empty reply also parks the thief as a lifeline buddy
// this place will push surplus ready tiles to.
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
	st.boxes.drop(t)
	sc.ids = pe.describeTile(st, sc, t).appendOrder(sc.ids[:0])
	return encodeTransfer(nil, st.epoch, transferSteal, sc.ids), nil
}

// --- recovery protocol (paper §VI-D) ----------------------------------
//
// The coordinator drives three rounds across the survivors: rebuild →
// exchange → resume. Each round is one concurrent fan-out and a barrier: it
// only starts after every place acknowledged the previous one, so a place
// handler can rely on cluster-wide round ordering.

// handleRebuild is the first round. It pauses this place (records the dead
// set, stops the old epoch's workers and waits out their tiles), creates the
// chunk under the restricted distribution, carrying over surviving results
// per the recovery mode, works out what it owes the new epoch (planHandover)
// and installs the new epoch state with no workers running. Decrements the
// old aggregator still buffers die with it: the replay re-derives them.
func (pe *placeEngine[T]) handleRebuild(from int, payload []byte) ([]byte, error) {
	r := reader{b: payload}
	newEpoch := r.u64()
	nDead := r.u32()
	for k := uint32(0); k < nDead && r.err == nil; k++ {
		if p := int(r.u32()); p >= 0 && p < len(pe.alive) && r.err == nil {
			pe.alive[p].Store(false)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	old := pe.current()
	if old == nil {
		return nil, errStaleEpoch
	}
	old.closeQuit()
	old.drainWorkers()
	newDist, err := old.d.Restrict(pe.isAlive)
	if err != nil {
		return nil, err
	}
	chunk := pe.newChunk(newDist)
	chunk.InitFlags(pe.cfg.Pattern)
	var out []distarray.Transfer[T]
	if pe.cfg.Recovery == RecoverSnapshot {
		pe.cfg.Snapshot.RestoreInto(chunk, pe.cfg.Pattern)
	} else {
		out = distarray.CarryOver(old.chunk, chunk, pe.cfg.Pattern, pe.cfg.RestoreRemote)
	}
	// The old epoch's cache is about to be discarded with it; bank its
	// shard counters in the registry so cumulative totals survive.
	pe.foldCacheStats(old.cache)
	// A restart supersedes an epoch whose exchange never ran.
	if h := old.out.Swap(nil); h != nil {
		h.prev.Close()
	}
	st := pe.newEpochState(newEpoch, newDist, chunk)
	st.out.Store(pe.planHandover(st, out, old.chunk))
	pe.st.Store(st)
	return nil, nil
}

// handover is what a rebuild leaves the exchange round: the Calls it owes,
// and the superseded chunk, which old-epoch traffic may read until every
// survivor has rebuilt.
type handover[T any] struct {
	msgs []outMsg
	prev *distarray.Chunk[T]
}

// outMsg is one Call of the exchange round.
type outMsg struct {
	to      int
	kind    uint8
	payload []byte
}

// planHandover works out what this place owes the new epoch from the new
// chunk and the cells it hands over (out), never from the old chunk: each
// handed-over value goes to its new owner, and each anti-dependency edge of a
// finished cell is one decrement of the target's tile — none when both ends
// have one new owner (its resume scan reads the source's flag), a TileAdd
// here when a handed-over cell's edge comes back into this place, which can
// only take the counter below zero before the scan, and otherwise one in the
// target owner's replay record.
func (pe *placeEngine[T]) planHandover(st *epochState[T], out []distarray.Transfer[T], prev *distarray.Chunk[T]) *handover[T] {
	counts := make([][]uint32, pe.cfg.Places) // by owner, by tile of its grid
	distarray.ReplayDecrements(st.chunk, out, pe.cfg.Pattern, func(from int, target dag.VertexID) {
		owner, off := st.d.PlaceOffset(target.I, target.J)
		switch {
		case owner == from:
		case owner == pe.self:
			st.chunk.TileAdd(st.chunk.TileOf(off), 1)
		default:
			if counts[owner] == nil {
				counts[owner] = make([]uint32, st.grids[st.rank[owner]].NumTiles())
			}
			counts[owner][st.tileOf(owner, off)]++
		}
	})
	h := &handover[T]{prev: prev}
	byDest := make(map[int][]distarray.Transfer[T])
	for _, tr := range out {
		byDest[tr.To] = append(byDest[tr.To], tr)
	}
	for dest, trs := range byDest {
		msg := putU32(putU64(make([]byte, 0, 12+len(trs)*12), st.epoch), uint32(len(trs)))
		for _, tr := range trs {
			msg = pe.cfg.Codec.Encode(putID(msg, tr.ID), tr.Value)
		}
		h.msgs = append(h.msgs, outMsg{to: dest, kind: kindRestoreTx, payload: msg})
	}
	for owner, per := range counts {
		b := decrBatch[T]{epoch: st.epoch}
		for t, n := range per {
			if n > 0 {
				b.tiles = append(b.tiles, tileCount{tile: uint32(t), count: n})
			}
		}
		if len(b.tiles) > 0 {
			b.ends = []int{len(b.tiles)}
			h.msgs = append(h.msgs, outMsg{to: owner, kind: kindReplayTx, payload: encodeDecrBatch(pe.cfg.Codec, &b)})
		}
	}
	return h
}

// handleExchange is the second round: it sends what this place's rebuild
// worked out it owes — the values it hands over, then the decrements it
// replays — and releases the superseded chunk, which no survivor's traffic
// reads any more. A destination that died is reported to the coordinator,
// which restarts the recovery without it; the death is not this place's.
func (pe *placeEngine[T]) handleExchange(from int, payload []byte) ([]byte, error) {
	r := reader{b: payload}
	epoch := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	st, err := pe.stateAt(epoch)
	if err != nil {
		return nil, err
	}
	h := st.out.Swap(nil)
	if h == nil {
		return nil, nil
	}
	h.prev.Close()
	for _, m := range h.msgs {
		if _, err := pe.tr.Call(m.to, m.kind, m.payload); errors.Is(err, transport.ErrDeadPlace) {
			pe.peerError(m.to, err)
		} else if err != nil {
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

// handleReplayTx applies replayed decrements (applyDecrs). They precede this
// place's activation scan, so they only take tile counters below zero and
// never schedule anything; the resume round finds the ready tiles.
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
	st.boxes.dropRetired(st.chunk)
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
