package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/dpx10/dpx10/internal/dag"
)

// One way to move a tile (GLB's split/merge, Saraswat et al.). Work leaves
// its owner as a transfer body (proto.go) because a thief asked for it (the
// kindSteal reply), a victim pushed it to a parked lifeline buddy, or the
// owner's placement sent it where it runs (exec, paper §VI-E). Whatever the
// reason, the receiver vets it once (takeTransfer), a pushed tile waits in
// the epoch's inbox for a worker, it runs once (runForeign), and its results
// return once, over kindStealDone, to be completed as if the owner ran it.

// migratedTile is one ready tile in flight between places: its unfinished
// cells in intra-tile dependency order, and why it moved.
type migratedTile struct {
	reason uint8
	cells  []dag.VertexID
}

// tileInbox holds the tiles pushed to this place, oldest first, until a
// worker claims one or the lifeline pusher forwards one.
type tileInbox struct {
	mu    sync.Mutex
	tiles []migratedTile
	n     atomic.Int32 // len(tiles), so an empty inbox costs one load
}

func (b *tileInbox) len() int { return int(b.n.Load()) }

func (b *tileInbox) put(mt migratedTile) {
	b.mu.Lock()
	b.tiles = append(b.tiles, mt)
	b.n.Store(int32(len(b.tiles)))
	b.mu.Unlock()
}

// take claims the oldest tile for a worker, or — for the lifeline pusher,
// which forwards what its own workers cannot drain and leaves them the
// oldest — the newest, while more than keep remain.
func (b *tileInbox) take(keep int, newest bool) (migratedTile, bool) {
	if b.len() <= keep {
		return migratedTile{}, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.tiles) <= keep {
		return migratedTile{}, false
	}
	k := 0
	if newest {
		k = len(b.tiles) - 1
	}
	mt := b.tiles[k]
	b.tiles = slices.Delete(b.tiles, k, k+1)
	b.n.Store(int32(len(b.tiles)))
	return mt, true
}

// appendOrder appends td's cells in execution order to dst: the tile as the
// place that receives it computes it.
func (td *tileDesc) appendOrder(dst []dag.VertexID) []dag.VertexID {
	for _, s := range td.order {
		dst = append(dst, td.ids[s])
	}
	return dst
}

// pushTile hands a tile to place to and reports whether it accepted it.
func (pe *placeEngine[T]) pushTile(st *epochState[T], sc *scratch[T], to int, reason uint8, cells []dag.VertexID) bool {
	if !pe.isAlive(to) {
		return false
	}
	sc.enc = encodeTransfer(sc.enc[:0], st.epoch, reason, cells)
	reply, err := pe.tr.Call(to, kindTransfer, sc.enc)
	if err != nil {
		pe.peerError(to, err)
		return false
	}
	return decodeFlag(reply)
}

// takeTransfer decodes a tile in flight — pushed here, or a steal reply —
// and vets it against the epoch it names: a push is a lifeline or exec tile
// and a steal reply neither, and its cells lie in the grid and one place
// owns them all — the sender for a steal reply or an exec push, which hand
// over their own cells; any one place for a lifeline push, which may have
// diffused through buddies. The ids are appended to buf.
func (pe *placeEngine[T]) takeTransfer(from int, payload []byte, buf []dag.VertexID, pushed bool) (st *epochState[T], reason uint8, cells []dag.VertexID, err error) {
	epoch, reason, cells, err := decodeTransfer(payload, buf)
	if err == nil && pushed == (reason == transferSteal) {
		err = errTransfer
	}
	if err != nil {
		return nil, 0, cells, err
	}
	if st, err = pe.stateAt(epoch); err != nil {
		return nil, 0, cells, err
	}
	owner := from
	if reason == transferLifeline && st.inGrid(cells[0]) {
		owner = st.d.Place(cells[0].I, cells[0].J)
	}
	for _, id := range cells {
		if _, ok := st.ownedOffset(id, owner); !ok {
			return nil, 0, cells, pe.errBadID(kindTransfer, id, from)
		}
	}
	return st, reason, cells, nil
}

// handleTransfer accepts a tile pushed here into the epoch's inbox. Reply
// [1] is the acceptance the pusher keys on; an error leaves the tile with
// the pusher. The decode allocates (nil buffer): the tile outlives this
// handler, so it must not alias the transport's payload.
func (pe *placeEngine[T]) handleTransfer(from int, payload []byte) ([]byte, error) {
	st, reason, cells, err := pe.takeTransfer(from, payload, nil, true)
	switch {
	case err != nil:
		return nil, err
	case reason == transferLifeline && st.life == nil:
		return nil, fmt.Errorf("core: place %d received a lifeline push for a job that does not steal", pe.self)
	}
	pe.depositMigrated(st, migratedTile{reason: reason, cells: cells})
	if reason == transferLifeline {
		// The armed latch stays set (only new local work re-arms probing), and
		// buddies parked here get what lands beyond the local keep, so a bulk
		// push cascades along the lifeline graph instead of pooling here.
		if st.life.parkedCount() > 0 {
			st.life.kickPush()
		}
		pe.migrRecv.Add(1)
		pe.mTilesMigr.Inc(-1)
	}
	return encodeFlag(true), nil
}

// depositMigrated makes a tile runnable on this place from its inbox: one
// pushed here, or one the lifeline pusher failed to place. A stale epoch
// drops it — the recovery's rebuilt counters cover it.
func (pe *placeEngine[T]) depositMigrated(st *epochState[T], mt migratedTile) {
	if pe.stale(st) {
		return
	}
	st.inbox.put(mt)
	pe.host.notify()
}

// runForeign executes a tile handed over for reason, its cells vetted and in
// the owner's order, as one unit (countTile), counts it as the reason says
// (Stolen, ExecMigrated, or a migrated run when a lifeline tile went home)
// and returns how many cells it computed. Their results go home as one
// kindStealDone batch [epoch][count][(id, value)...]. A mid-tile error (the owner died, or a
// recovery superseded the epoch) still returns the finished prefix — the
// owner can keep restored work across a redistribution — and the recovery
// reschedules the rest. A tile back at its own owner completes locally.
func (pe *placeEngine[T]) runForeign(st *epochState[T], sc *scratch[T], reason uint8, cells []dag.VertexID) (done int) {
	t0 := pe.unitClock()
	defer func() { pe.countTile(st, sc, done, t0) }()
	owner := st.d.Place(cells[0].I, cells[0].J)
	td := pe.describeCells(st, sc, owner, cells)
	if done, _ = pe.walk(st, sc, td); done == 0 {
		return 0
	}
	switch reason {
	case transferSteal:
		pe.stolen.Add(int64(done))
	case transferExec:
		pe.execMigrated.Add(int64(done))
	}
	if owner == pe.self {
		return done
	}
	if reason == transferLifeline {
		pe.migrRun.Add(1)
	}
	sc.enc = encodeIDVals(sc.enc[:0], pe.cfg.Codec, st.epoch, done, func(k int) (dag.VertexID, T) {
		id := td.ids[td.order[k]]
		v, _ := sc.halo.get(id)
		return id, v
	})
	if _, err := pe.tr.Call(owner, kindStealDone, sc.enc); err != nil {
		pe.peerError(owner, err)
	}
	return done
}

// handleStealDone completes a handed-over tile's cells from the values the
// place that ran it returned, in the order this place stated, as one unit
// that settles when the batch ends. A short batch (the executor hit an error
// mid-tile) is fine: the unfinished suffix stays pending for the recovery to
// reschedule.
func (pe *placeEngine[T]) handleStealDone(from int, payload []byte) ([]byte, error) {
	sc := pe.getScratch()
	defer pe.putScratch(sc)
	var unit *epochState[T]
	defer func() {
		if unit != nil {
			pe.settle(unit, sc)
			pe.maybeReportDone(unit)
		}
	}()
	return nil, pe.eachOwnedValue(from, kindStealDone, payload, sc, func(st *epochState[T], off int, id dag.VertexID, v T) {
		unit = st
		sc.antiRes = pe.appendAnti(st, sc, sc.antiRes[:0], id)
		pe.publish(st, sc, off, v)
		pe.park(st, sc, st.chunk.TileBox(st.chunk.TileOf(off)), off, v, sc.antiRes)
	})
}

// eachOwnedValue walks a steal-done batch, [epoch][n][(id, value)...],
// calling fn for each cell, whose id must be this place's under the epoch the
// payload names.
func (pe *placeEngine[T]) eachOwnedValue(from int, kind uint8, payload []byte, sc *scratch[T], fn func(st *epochState[T], off int, id dag.VertexID, v T)) error {
	epoch, ids, vals, err := decodeIDVals(payload, pe.cfg.Codec, sc.ids[:0], sc.vals[:0])
	sc.ids, sc.vals = ids, vals // keep grown capacity in the pool
	if err != nil {
		return err
	}
	st, err := pe.stateAt(epoch)
	if err != nil {
		return err
	}
	for k, id := range ids {
		off, ok := st.ownedOffset(id, pe.self)
		if !ok {
			return pe.errBadID(kind, id, from)
		}
		fn(st, off, id, vals[k])
	}
	return nil
}
