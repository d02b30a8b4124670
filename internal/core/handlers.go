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
	pe.tr.Handle(kindHandover, pe.handleHandover)
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

// handlePing echoes the failure detector's heartbeat so the detector can
// verify liveness end to end.
func handlePing(_ int, payload []byte) ([]byte, error) {
	seq, sent, err := decodePing(payload)
	return encodePing(nil, seq, sent), err
}

// handleCoordinatorEvent records placeDone/fault notifications in the
// coordinator's inbox. Only place 0 has a coordinator; other places ignore
// the traffic (it should never reach them).
func (pe *placeEngine[T]) handleCoordinatorEvent(fault bool) func(int, []byte) ([]byte, error) {
	return func(from int, payload []byte) ([]byte, error) {
		if pe.inbox == nil {
			return nil, nil
		}
		epoch, place, err := decodePlaceEvent(payload)
		switch {
		case err != nil:
			return nil, err
		case uint(place) >= uint(pe.cfg.Places):
			return nil, fmt.Errorf("core: event from place %d names place %d of %d", from, place, pe.cfg.Places)
		case fault:
			pe.inbox.reportFault(place)
		default:
			pe.inbox.reportDone(place, epoch)
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
func (pe *placeEngine[T]) errBadID(kind uint8, id dag.VertexID, from int) error {
	return fmt.Errorf("core: place %d: %s from place %d names %v, which is outside the grid or owned elsewhere", pe.self, KindName(kind), from, id)
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
			return nil, pe.errBadID(kindFetch, id, from)
		}
		if !st.chunk.Finished(off) {
			return nil, fmt.Errorf("core: fetch of unfinished vertex %v from place %d", id, from)
		}
		reply = pe.cfg.Codec.Encode(reply, st.chunk.Value(off))
	}
	return reply, nil
}

// handleDecrBatch applies one batch of decrement records (applyBatch). A
// stale-epoch batch is dropped: the recovery replay covers it.
func (pe *placeEngine[T]) handleDecrBatch(from int, payload []byte) ([]byte, error) {
	sc := pe.getScratch()
	defer pe.putScratch(sc)
	if err := decodeDecrBatch(payload, pe.cfg.Codec, &sc.batch); err != nil {
		return nil, err
	}
	st, err := pe.stateAt(sc.batch.epoch)
	if err != nil {
		return nil, nil // stale: errStaleEpoch is stateAt's only error
	}
	return nil, pe.applyBatch(st, sc, from, &sc.batch)
}

// applyBatch is the one apply body of a decoded decrement batch b from
// place from, runtime or replayed: pushed values are deposited into the
// boxes of the tiles that read them first (boxes.go), so that by the time a
// count makes a consumer tile ready, the values it will want are in its box;
// then the counts settle against this place's tiles. A batch naming a tile
// this place does not have, or a run past the sender's cells, is refused
// whole, before any counter moves.
func (pe *placeEngine[T]) applyBatch(st *epochState[T], sc *scratch[T], from int, b *decrBatch[T]) error {
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
	epoch, lifeline, err := decodeSteal(payload)
	if err != nil {
		return nil, err
	}
	st, err := pe.stateAt(epoch)
	if err != nil {
		return nil, err
	}
	sc := pe.getScratch()
	defer pe.putScratch(sc)
	t, ok := st.sched.steal()
	if !ok {
		if lifeline && st.life != nil && from != pe.self {
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
	newEpoch, dead, err := decodeRebuild(payload)
	if err != nil {
		return nil, err
	}
	for _, p := range dead {
		if p >= 0 && p < len(pe.alive) {
			pe.alive[p].Store(false)
		}
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
	chunk := pe.newChunk(newEpoch, newDist)
	chunk.InitFlags(pe.cfg.Pattern)
	var out []distarray.Transfer[T]
	if pe.cfg.Recovery == RecoverSnapshot {
		pe.cfg.Snapshot.RestoreInto(chunk, pe.cfg.Pattern)
	} else {
		out = distarray.CarryOver(old.chunk, chunk, pe.cfg.Pattern, pe.cfg.RestoreRemote)
	}
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

// outMsg is one handover Call of the exchange round.
type outMsg struct {
	to      int
	payload []byte
}

// planHandover works out what this place owes the new epoch from the new
// chunk and the cells it hands over (out), never from the old chunk: each
// handed-over value goes to its new owner, and each anti-dependency edge of a
// finished cell whose ends have two new owners is one decrement of the
// target's tile (an edge within one place needs none: its resume scan reads
// the source's flag). ReplayDecrements hands those edges over a run of
// targets at a time, which is cut here where the owner's tiles end: a TileAdd
// per piece when a handed-over cell's edges come back into this place, which
// can only take the counter below zero before the scan, and otherwise one
// count per piece in the target owner's replay record. Each destination gets
// one handover: its values, a cell at a time as ever, then its replay record.
func (pe *placeEngine[T]) planHandover(st *epochState[T], out []distarray.Transfer[T], prev *distarray.Chunk[T]) *handover[T] {
	counts := make([][]uint32, pe.cfg.Places) // by owner, by tile of its grid
	distarray.ReplayDecrements(st.chunk, out, pe.cfg.Pattern, func(_, owner, off, n int) {
		g := &st.grids[st.rank[owner]]
		if owner != pe.self && counts[owner] == nil {
			counts[owner] = make([]uint32, g.NumTiles())
		}
		for end, k := off+n, 0; off < end; off += k {
			t := g.TileOf(off)
			k = min(end, g.RunEnd(off)) - off
			if owner == pe.self {
				st.chunk.TileAdd(t, int32(k))
			} else {
				counts[owner][t] += uint32(k)
			}
		}
	})
	h := &handover[T]{prev: prev}
	byDest := make([][]distarray.Transfer[T], pe.cfg.Places)
	cells := make([]int, pe.cfg.Places)
	for _, tr := range out {
		byDest[tr.To] = append(byDest[tr.To], tr)
		cells[tr.To] += len(tr.Values)
	}
	for dest, trs := range byDest {
		b := decrBatch[T]{epoch: st.epoch}
		for t, n := range counts[dest] {
			if n > 0 {
				b.tiles = append(b.tiles, tileCount{tile: uint32(t), count: n})
			}
		}
		if len(b.tiles) > 0 {
			b.ends = []int{len(b.tiles)}
		} else if len(trs) == 0 {
			continue
		}
		// encodeHandover asks for the cells in order: walk the runs with it.
		run, base := 0, 0
		h.msgs = append(h.msgs, outMsg{to: dest, payload: encodeHandover(pe.cfg.Codec, &b, cells[dest], func(k int) (dag.VertexID, T) {
			for ; k-base >= len(trs[run].Values); run++ {
				base += len(trs[run].Values)
			}
			tr := trs[run]
			return dag.VertexID{I: tr.ID.I, J: tr.ID.J + int32(k-base)}, tr.Values[k-base]
		})})
	}
	return h
}

// handleExchange is the second round: it sends what this place's rebuild
// worked out it owes — one handover per destination — and releases the
// superseded chunk, which no survivor's traffic reads any more. A destination that died is reported to the coordinator,
// which restarts the recovery without it; the death is not this place's.
func (pe *placeEngine[T]) handleExchange(from int, payload []byte) ([]byte, error) {
	epoch, err := decodeEpoch(payload)
	if err != nil {
		return nil, err
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
		if _, err := pe.tr.Call(m.to, kindHandover, m.payload); errors.Is(err, transport.ErrDeadPlace) {
			pe.peerError(m.to, err)
		} else if err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// handleHandover installs the finished values another survivor hands this
// place into the new chunk, then applies the decrements it replays here
// (applyBatch). These precede this place's activation scan, so they only take
// tile counters below zero and never schedule anything; the resume round
// finds the ready tiles.
func (pe *placeEngine[T]) handleHandover(from int, payload []byte) ([]byte, error) {
	sc := pe.getScratch()
	defer pe.putScratch(sc)
	ids, vals, err := decodeHandover(payload, pe.cfg.Codec, sc.ids[:0], sc.vals[:0], &sc.batch)
	sc.ids, sc.vals = ids, vals // keep grown capacity in the pool
	if err != nil {
		return nil, err
	}
	st, err := pe.stateAt(sc.batch.epoch)
	if err != nil {
		return nil, err
	}
	for k, id := range ids {
		off, ok := st.ownedOffset(id, pe.self)
		if !ok {
			return nil, pe.errBadID(kindHandover, id, from)
		}
		st.chunk.SetResult(off, vals[k])
	}
	return nil, pe.applyBatch(st, sc, from, &sc.batch)
}

// handleResume runs the activation scan, which adds each tile's edge count
// to the decrements already applied, seeds the work deques and wakes the
// shared worker pool onto the new epoch. It replies 1 if this place already
// has no unfinished work so the coordinator can count it done immediately.
func (pe *placeEngine[T]) handleResume(from int, payload []byte) ([]byte, error) {
	epoch, err := decodeEpoch(payload)
	if err != nil {
		return nil, err
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
	done := st.chunk.AllFinished()
	if done {
		st.doneReported.Store(true)
	}
	return encodeFlag(done), nil
}

// handleStop ends the run for this place.
func (pe *placeEngine[T]) handleStop(from int, payload []byte) ([]byte, error) {
	pe.stop()
	return nil, nil
}

// handleReadVal serves post-run result access for multi-process
// deployments: [id] -> [finished u8][value?].
func (pe *placeEngine[T]) handleReadVal(from int, payload []byte) ([]byte, error) {
	id, err := decodeReadVal(payload)
	if err != nil {
		return nil, err
	}
	st := pe.current()
	if st == nil {
		return nil, errStaleEpoch
	}
	off, ok := st.ownedOffset(id, pe.self)
	if !ok {
		return nil, pe.errBadID(kindReadVal, id, from)
	}
	if !st.chunk.Finished(off) {
		var unfinished T
		return encodeReadValReply(pe.cfg.Codec, unfinished, false), nil
	}
	return encodeReadValReply(pe.cfg.Codec, st.chunk.Value(off), true), nil
}
