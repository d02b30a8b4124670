package core

import (
	"fmt"
	"slices"
	"time"

	"github.com/dpx10/dpx10/internal/dag"
	"github.com/dpx10/dpx10/internal/distarray"
	"github.com/dpx10/dpx10/internal/metrics"
)

// The tile walk (paper §VI-C): take a ready unit, gather its dependencies,
// compute, decrement. Every unit — one of this place's own tiles, or a tile
// another place handed over (transfer.go: stolen, pushed along a lifeline, or
// sent by exec placement) — is described once (describeTile / describeCells:
// resolve, then order) and executed by walk, which sources every remote value
// in fillHalo; the one other arm is walkStencil, for an own tile of a stencil
// run.

// tileDesc is the scratch-resident description of a unit about to execute:
// its cells with their resolved dependencies, and the cells to run, in order,
// with their resolved anti-dependencies. For one of this place's own tiles
// slot s is local offset box.Lo+s — so the slots of a tile more than one row
// high lie in runs, and those between the runs belong to other tiles — and
// cells already finished keep their slot; neither kind is ever in order. For
// a cell list that came over the wire slot s is its s-th cell, in one run,
// and box.Lo is -1.
type tileDesc struct {
	owner  int               // the place that owns the cells
	tile   int               // which of this place's tiles the unit is, or -1: a cell list from the wire
	box    distarray.TileBox // which slots are the unit's cells
	remote bool              // a dependency lives on another place: the walk needs a halo
	ids    []dag.VertexID    // per slot
	depAt  []int32           // per slot, len(ids)+1: slot s depends on deps[depAt[s]:depAt[s+1]]
	deps   []dag.VertexID
	res    []cellRef // dist.PlaceOffset of each entry of deps
	order  []int32   // slots in execution order
	antiAt []int32   // per order position, len(order)+1; filled only when owner is this place
	anti   []cellRef // what park records decrements for
	rem    []int32   // the Kahn pass: unfinished same-tile deps per slot
	stack  []int32
}

// haloTable holds vertex values by id for the span of one walk: open
// addressing over power-of-two arrays, emptied in O(1) by moving on to the
// next generation stamp. A walk at tile size 1 fills and empties it once per
// cell, which is where a built-in map's clear() and hashing showed up as the
// hottest lines of the whole engine. A value a push box poured in (pour)
// carries the stamp below the generation's until a dependency first claims
// it (slot), which is how fillHalo counts what the box served.
type haloTable[T any] struct {
	keys []dag.VertexID
	vals []T
	gen  []uint32 // slot i is live iff gen[i]|1 == cur: cur once claimed, cur-1 while only poured
	cur  uint32   // odd, from 3
	n    int
}

func (h *haloTable[T]) reset() {
	h.n = 0
	if h.cur += 2; h.cur < 3 { // wrapped, or never set: stale stamps would read as live
		clear(h.gen)
		h.cur = 3
	}
}

// find returns the index holding id, or of the free slot id would take.
func (h *haloTable[T]) find(id dag.VertexID) (i int, ok bool) {
	mask := len(h.keys) - 1
	key := uint64(uint32(id.I))<<32 | uint64(uint32(id.J))
	for i = int(key*0x9E3779B97F4A7C15>>33) & mask; h.gen[i]|1 == h.cur; i = (i + 1) & mask {
		if h.keys[i] == id {
			return i, true
		}
	}
	return i, false
}

func (h *haloTable[T]) get(id dag.VertexID) (v T, ok bool) {
	if h.n == 0 {
		return v, false
	}
	i, ok := h.find(id)
	return h.vals[i], ok
}

// insert returns the index of id's slot, making room for it if it is new
// (stamped claimed), and reports whether it was held already.
func (h *haloTable[T]) insert(id dag.VertexID) (i int, held bool) {
	if 2*(h.n+1) > len(h.keys) {
		old := *h
		size := max(16, 2*len(old.keys))
		*h = haloTable[T]{keys: make([]dag.VertexID, size), vals: make([]T, size), gen: make([]uint32, size), cur: 3}
		for k, g := range old.gen {
			if g|1 == old.cur {
				i, _ := h.insert(old.keys[k])
				h.vals[i], h.gen[i] = old.vals[k], g-old.cur+h.cur
			}
		}
	}
	i, held = h.find(id)
	if !held {
		h.keys[i], h.gen[i] = id, h.cur
		h.n++
	}
	return i, held
}

// slot returns where id's value lives, making room for it if it is new, and
// reports whether it was held already and whether this is the first claim of
// a value a box poured. The pointer is good until the next insert.
func (h *haloTable[T]) slot(id dag.VertexID) (v *T, held, poured bool) {
	i, held := h.insert(id)
	if poured = h.gen[i] != h.cur; poured {
		h.gen[i] = h.cur
	}
	return &h.vals[i], held, poured
}

// pour holds v for id, unclaimed, unless id is held already.
func (h *haloTable[T]) pour(id dag.VertexID, v T) {
	if i, held := h.insert(id); !held {
		h.vals[i], h.gen[i] = v, h.cur-1
	}
}

// describeTile resolves and orders this place's own tile t, asking the
// pattern and the distribution again for what the activation scan counted:
// the chunk keeps no dependency lists.
func (pe *placeEngine[T]) describeTile(st *epochState[T], sc *scratch[T], t int) *tileDesc {
	td := &sc.td
	td.owner, td.tile, td.box = pe.self, t, st.chunk.TileBox(t)
	n := td.box.Span()
	td.ids = slices.Grow(td.ids[:0], n)[:n]
	for base := 0; base < n; base += td.box.Stride {
		for s := base; s < base+td.box.W; s++ {
			i, j := st.d.CellAt(pe.self, td.box.Lo+s)
			td.ids[s] = dag.VertexID{I: i, J: j}
		}
	}
	pe.fillDeps(st, td)
	pe.orderTile(st, sc, td)
	return td
}

// describeCells resolves a tile that arrived over the wire, all owned by
// owner and already in the order its owner stated.
func (pe *placeEngine[T]) describeCells(st *epochState[T], sc *scratch[T], owner int, cells []dag.VertexID) *tileDesc {
	td := &sc.td
	td.owner, td.tile = owner, -1
	td.box = distarray.TileBox{Lo: -1, W: len(cells), Rows: 1, Stride: len(cells)}
	td.ids = append(td.ids[:0], cells...)
	pe.fillDeps(st, td)
	pe.orderTile(st, sc, td)
	return td
}

// fillDeps resolves the dependencies of td's cells from the pattern and the
// distribution, noting whether any lives on another place. Slots between the
// runs, and an own tile's finished cells, get an empty list.
func (pe *placeEngine[T]) fillDeps(st *epochState[T], td *tileDesc) {
	n := len(td.ids)
	td.depAt, td.deps, td.res, td.remote = slices.Grow(td.depAt[:0], n+1)[:n+1], td.deps[:0], td.res[:0], false
	s := 0
	for base := 0; base < n; base += td.box.Stride {
		for ; s < base+td.box.W; s++ {
			at := len(td.deps)
			td.depAt[s] = int32(at)
			if s < base || td.box.Lo >= 0 && st.chunk.Finished(td.box.Lo+s) {
				continue
			}
			td.deps = pe.cfg.Pattern.Dependencies(td.ids[s].I, td.ids[s].J, td.deps)
			for _, dep := range td.deps[at:] {
				owner, off := st.d.PlaceOffset(dep.I, dep.J)
				td.res = append(td.res, cellRef{Owner: int32(owner), Off: int32(off)})
				td.remote = td.remote || owner != pe.self
			}
		}
	}
	td.depAt[n] = int32(len(td.deps))
}

// appendAnti appends id's anti-dependencies to dst with their ownership
// resolved, so park records decrements without querying the distribution
// again.
func (pe *placeEngine[T]) appendAnti(st *epochState[T], sc *scratch[T], dst []cellRef, id dag.VertexID) []cellRef {
	sc.antiBuf = pe.cfg.Pattern.AntiDependencies(id.I, id.J, sc.antiBuf[:0])
	for _, a := range sc.antiBuf {
		owner, off := st.d.PlaceOffset(a.I, a.J)
		dst = append(dst, cellRef{Owner: int32(owner), Off: int32(off)})
	}
	return dst
}

// appendRun makes slot s the next cell of td.order and, when this place owns
// the cells, resolves its anti-dependencies into td.anti; it returns those.
func (pe *placeEngine[T]) appendRun(st *epochState[T], sc *scratch[T], td *tileDesc, s int32) []cellRef {
	td.order = append(td.order, s)
	at := len(td.anti)
	td.antiAt = append(td.antiAt, int32(at))
	if td.owner == pe.self {
		td.anti = pe.appendAnti(st, sc, td.anti, td.ids[s])
	}
	return td.anti[at:]
}

// orderTile fills td.order with the unfinished slots in an order that honors
// the dependencies among them, and — when this place owns the cells — td.anti
// with each one's anti-dependencies. A cell list from the wire keeps the
// order its owner stated. An own tile takes a Kahn walk over the edges inside
// it: its cross-tile dependencies are finished already (that is what its
// counter tracked), so only those constrain the order.
func (pe *placeEngine[T]) orderTile(st *epochState[T], sc *scratch[T], td *tileDesc) {
	td.order, td.antiAt, td.anti = td.order[:0], td.antiAt[:0], td.anti[:0]
	n, lo, box := len(td.ids), td.box.Lo, td.box
	if lo < 0 {
		for s := range n {
			pe.appendRun(st, sc, td, int32(s))
		}
		td.antiAt = append(td.antiAt, int32(len(td.anti)))
		return
	}
	rem := slices.Grow(td.rem[:0], n)[:n]
	td.rem, td.stack = rem, td.stack[:0]
	pending := 0
	for base := 0; base < n; base += box.Stride {
		for s := base; s < base+box.W; s++ {
			if st.chunk.Finished(lo + s) {
				rem[s] = -1
				continue
			}
			cnt := int32(0)
			for _, r := range td.res[td.depAt[s]:td.depAt[s+1]] {
				if doff := int(r.Off); int(r.Owner) == pe.self && box.Holds(doff) && !st.chunk.Finished(doff) {
					cnt++
				}
			}
			rem[s] = cnt
			pending++
			if cnt == 0 {
				td.stack = append(td.stack, int32(s))
			}
		}
	}
	for len(td.stack) > 0 {
		s := td.stack[len(td.stack)-1]
		td.stack = td.stack[:len(td.stack)-1]
		for _, a := range pe.appendRun(st, sc, td, s) {
			if int(a.Owner) != pe.self || !box.Holds(int(a.Off)) {
				continue
			}
			if r := rem[int(a.Off)-lo]; r > 0 {
				rem[int(a.Off)-lo] = r - 1
				if r == 1 {
					td.stack = append(td.stack, a.Off-int32(lo))
				}
			}
		}
	}
	td.antiAt = append(td.antiAt, int32(len(td.anti)))
	if len(td.order) != pending {
		// The intra-tile subgraph of a DAG cannot be cyclic; an incomplete
		// walk means the pattern's deps/anti-deps disagree.
		panic(fmt.Sprintf("core: place %d tile %+v: intra-tile order covers %d of %d cells",
			pe.self, box, len(td.order), pending))
	}
}

// tileExtDeps collects the distinct dependencies of an own tile's runnable
// cells that live outside the tile — the inputs PickTile's MinComm cost
// model weighs.
func (pe *placeEngine[T]) tileExtDeps(sc *scratch[T], td *tileDesc) []dag.VertexID {
	sc.extDeps = sc.extDeps[:0]
	if sc.extSeen == nil {
		sc.extSeen = make(map[dag.VertexID]struct{}, 16)
	}
	clear(sc.extSeen)
	for _, s := range td.order {
		for k := td.depAt[s]; k < td.depAt[s+1]; k++ {
			if r := td.res[k]; int(r.Owner) == pe.self && td.box.Holds(int(r.Off)) {
				continue
			}
			dep := td.deps[k]
			if _, dup := sc.extSeen[dep]; dup {
				continue
			}
			sc.extSeen[dep] = struct{}{}
			sc.extDeps = append(sc.extDeps, dep)
		}
	}
	return sc.extDeps
}

// walk executes a described unit here, after one halo step. The only
// variation is where a result goes: into this place's chunk through publish
// and park when it owns the cells, otherwise into sc.halo, where the
// unit's later cells read it and from where runForeign returns it to the
// owner. walk reports how many cells of td.order completed, a prefix.
// Anything short of all of them — a pause or stop, a dead peer, a superseded
// epoch — leaves the remainder neither finished nor queued, exactly the state
// a recovery's rebuilt counters cover.
func (pe *placeEngine[T]) walk(st *epochState[T], sc *scratch[T], td *tileDesc) (done int, err error) {
	own := td.owner == pe.self
	if own {
		defer pe.settle(st, sc)
	}
	if err := pe.fillHalo(st, sc, td); err != nil {
		return 0, err
	}
	for k, s := range td.order {
		select {
		case <-st.quit:
			return done, errStaleEpoch
		default:
		}
		id := td.ids[s]
		a, b := td.depAt[s], td.depAt[s+1]
		cells, err := pe.gatherDeps(st, sc, td.deps[a:b], td.res[a:b])
		if err != nil {
			return done, err
		}
		v := pe.cfg.Compute(id.I, id.J, cells)
		if pe.stale(st) {
			return done, errStaleEpoch
		}
		if own {
			off, tile := td.box.Lo+int(s), td.box
			if td.box.Lo < 0 {
				off = st.d.LocalOffset(id.I, id.J)
				tile = st.chunk.TileBox(st.chunk.TileOf(off))
			}
			pe.publish(st, sc, off, v)
			pe.park(st, sc, tile, off, v, td.anti[td.antiAt[k]:td.antiAt[k+1]])
		} else {
			p, _, _ := sc.halo.slot(id)
			*p = v
		}
		done++
	}
	return done, nil
}

// walkStencil runs own tile t of a stencil run (distarray.Stencil) the way
// native.RunStrip runs a strip: row-major, in one loop over the tile's
// ghost-framed slab. A cell reads each dependency at its own slab index plus
// DI·stride + DJ and stores its value in the slab and the chunk; a row whose
// one test of its finished bits found no restored cell is published whole.
// Only cells within reach of the bottom and right edges park decrements. It
// reports how many cells it computed.
func (pe *placeEngine[T]) walkStencil(st *epochState[T], sc *scratch[T], t int) (done int) {
	ch, s, td := st.chunk, st.chunk.Stencil(), &sc.td
	b := ch.TileBox(t)
	top, left := b.Lo/b.Stride, b.Lo%b.Stride
	if pe.ghostFrame(st, sc, s, t) != nil {
		return 0 // a dead peer or superseded epoch: the recovery reschedules the tile
	}
	defer func() { done = pe.settle(st, sc) }()
	// A cell before (outBottom, outRight) has all its anti-dependencies in the tile.
	outBottom, outRight := top+b.Rows-s.ReachRows, left+b.W-s.ReachCols
	for r := top; r < top+b.Rows; r++ {
		select {
		case <-st.quit:
			return // a pause: the epoch is superseded only once this walk is over
		default:
		}
		i, lo := s.RowOf[r], r*b.Stride+left
		offs, fresh := s.Offsets(i), ch.FinishedRun(lo, b.W) == 0
		cells := slices.Grow(sc.cells[:0], len(offs))[:len(offs)]
		n, reads := 0, -int(td.depAt[r-top+1]-td.depAt[r-top]) // the halo served those
		for c := left; c < left+b.W; c++ {
			off, j := lo+c-left, s.ColOf[c]
			x := sc.at(i, j)
			if !fresh && ch.Finished(off) {
				sc.slab[x] = ch.Value(off) // restored by a recovery; later cells read it
				continue
			}
			k := 0
			for _, o := range offs {
				if i+o.DI >= 0 && j+o.DJ >= 0 { // inside the grid
					cells[k] = Cell[T]{ID: dag.VertexID{I: i + o.DI, J: j + o.DJ}, Value: sc.slab[x+int(o.DI)*sc.stride+int(o.DJ)]}
					k++
				}
			}
			v := pe.cfg.Compute(i, j, cells[:k])
			sc.slab[x], n, reads = v, n+1, reads+k
			ch.SetValue(off, v)
			if !fresh {
				ch.Publish(off, 1)
			}
			if r >= outBottom || c >= outRight {
				sc.antiBuf, sc.antiRes = s.AntiDependencies(i, j, sc.antiBuf[:0]), sc.antiRes[:0]
				for _, a := range sc.antiBuf {
					ref, _ := s.Locate(r, c, i, j, a.I-i, a.J-j)
					sc.antiRes = append(sc.antiRes, ref)
				}
				pe.park(st, sc, b, off, v, sc.antiRes)
			}
		}
		if fresh {
			ch.Publish(lo, b.W)
		}
		sc.cells, sc.doneN = cells, sc.doneN+int64(n)
		pe.localReads.Add(int64(reads))
		if pe.snapOn {
			pe.maybeSnapshot(st, int64(n))
		}
	}
	return // the deferred settle reports the count
}

// ghostFrame readies sc.slab for a walk of own stencil tile t: it spans the
// tile's global bounding box plus the stencil's reach, and gets what the
// tile's unfinished cells read outside the tile, nothing else. Only cells
// within reach of the top and left edges do, so only they locate their
// dependencies: local ones are copied from the chunk, remote ones listed in
// td per row and filled through fillHalo.
func (pe *placeEngine[T]) ghostFrame(st *epochState[T], sc *scratch[T], s *distarray.Stencil, t int) error {
	ch, td, b := st.chunk, &sc.td, st.chunk.TileBox(t)
	top, left := b.Lo/b.Stride, b.Lo%b.Stride
	sc.gi0, sc.gj0 = int(s.RowOf[top]-s.ReachI), int(s.ColOf[left]-s.ReachJ)
	sc.stride = int(s.ColOf[left+b.W-1]) - sc.gj0 + 1
	n := (int(s.RowOf[top+b.Rows-1]) - sc.gi0 + 1) * sc.stride
	sc.slab = slices.Grow(sc.slab[:0], n)[:n]
	td.owner, td.tile, td.deps, td.res, td.depAt, td.order = pe.self, t, td.deps[:0], td.res[:0], td.depAt[:0], td.order[:0]
	for r := top; r < top+b.Rows; r++ {
		td.depAt, td.order = append(td.depAt, int32(len(td.deps))), append(td.order, int32(r-top))
		for c, i := left, s.RowOf[r]; c < left+b.W && (r-top < s.ReachRows || c-left < s.ReachCols); c++ {
			if ch.Finished(r*b.Stride + c) {
				continue
			}
			for _, o := range s.Offsets(i) {
				dep := dag.VertexID{I: i + o.DI, J: s.ColOf[c] + o.DJ}
				switch ref, ok := s.Locate(r, c, i, s.ColOf[c], o.DI, o.DJ); {
				case !ok || int(ref.Owner) == pe.self && b.Holds(int(ref.Off)): // outside the grid, or the walk writes it
				case int(ref.Owner) != pe.self:
					td.deps, td.res = append(td.deps, dep), append(td.res, ref)
				case ch.Finished(int(ref.Off)):
					sc.slab[sc.at(dep.I, dep.J)] = ch.Value(int(ref.Off))
				default:
					panic(fmt.Sprintf("core: place %d walked (%d,%d) before its dependency %v was finished", pe.self, i, s.ColOf[c], dep))
				}
			}
		}
	}
	td.remote, td.depAt = len(td.deps) > 0, append(td.depAt, int32(len(td.deps)))
	if err := pe.fillHalo(st, sc, td); err != nil {
		return err
	}
	for _, dep := range td.deps {
		sc.slab[sc.at(dep.I, dep.J)], _ = sc.halo.get(dep)
	}
	return nil
}

// fillHalo is the one place a walk's remote inputs come from, and the one
// place their cache accounting happens. An own tile's box goes first: the
// values other places pushed for it (boxes.go) are poured into sc.halo, and
// the box's storage is released. Then every distinct dependency of the cells
// about to run that another place owns, and the box did not hold, is copied
// out of the vertex cache or, failing that, fetched — one fetchValues per
// owning place — into sc.halo beside the box's values. A dependency the box
// served counts as a cache hit and a pushed value consumed. The cells
// themselves, when another place owns them, are held as placeholders: their
// values exist only here until walk stores them, so they are never fetched.
// So is a value still to be fetched, which also keeps a second edge to it
// from listing it twice. On an error the caller abandons the walk.
func (pe *placeEngine[T]) fillHalo(st *epochState[T], sc *scratch[T], td *tileDesc) error {
	sc.halo.reset()
	if td.tile >= 0 {
		pe.pourBox(st, sc, td.tile)
	}
	if !td.remote {
		return nil
	}
	if td.owner != pe.self {
		for _, s := range td.order {
			sc.halo.slot(td.ids[s])
		}
	}
	sc.resetGroups()
	var hits, misses, pushHits int64
	for _, s := range td.order {
		for k := td.depAt[s]; k < td.depAt[s+1]; k++ {
			owner := int(td.res[k].Owner)
			if owner == pe.self {
				continue
			}
			dep := td.deps[k]
			p, held, poured := sc.halo.slot(dep)
			if poured {
				pushHits++
			}
			if held {
				continue
			}
			var ok bool
			if *p, ok = st.cache.Get(dep); ok {
				hits++
				continue
			}
			misses++
			lst := sc.remote[owner]
			if len(lst) == 0 {
				sc.owners = append(sc.owners, owner)
			}
			sc.remote[owner] = append(lst, dep)
		}
	}
	if hits+misses+pushHits == 0 {
		return nil
	}
	pe.cacheHits.Add(hits + pushHits)
	pe.cacheMisses.Add(misses)
	if pushHits > 0 {
		pe.pushConsumed.Add(pushHits)
		pe.mVCHits.Add(metrics.VCacheBoxKey, pushHits)
	}
	for _, owner := range sc.owners {
		ids := sc.remote[owner]
		sc.remote[owner] = ids[:0]
		vals, err := pe.fetchValues(st, sc, owner, ids)
		if err != nil {
			return err
		}
		for k, id := range ids {
			p, _, _ := sc.halo.slot(id)
			*p = vals[k]
		}
	}
	sc.owners = sc.owners[:0]
	return nil
}

// pourBox takes own tile t's box, pours its values into sc.halo, unclaimed,
// and releases the box's storage: the tile runs now, here.
func (pe *placeEngine[T]) pourBox(st *epochState[T], sc *scratch[T], t int) {
	bs := st.boxes.take(t)
	if bs == nil {
		return
	}
	at := 0
	for _, r := range bs.runs {
		for off := int(r.off); off < int(r.off+r.n); off++ {
			i, j := st.d.CellAt(int(r.from), off)
			sc.halo.pour(dag.VertexID{I: i, J: j}, bs.vals[at])
			at++
		}
	}
	st.boxes.release(bs)
}

// fetchValues reads the finished values of ids, all owned by owner, into
// sc.vals in id order: one kindFetch call per fetchMaxIDs ids, each timed
// into engine.fetch_wait_ns when the registry is on. Every value is offered
// to the vertex cache.
func (pe *placeEngine[T]) fetchValues(st *epochState[T], sc *scratch[T], owner int, ids []dag.VertexID) ([]T, error) {
	sc.vals = sc.vals[:0]
	for len(ids) > 0 {
		req := ids[:min(len(ids), fetchMaxIDs)]
		ids = ids[len(req):]
		sc.enc = appendFetchReq(sc.enc[:0], st.epoch, req)
		pe.fetchCalls.Add(1)
		var f0 time.Time
		if pe.reg != nil {
			f0 = time.Now()
		}
		reply, err := pe.tr.Call(owner, kindFetch, sc.enc)
		if pe.reg != nil {
			pe.mFetchWait.Add(sc.wkr, int64(time.Since(f0)))
		}
		if err != nil {
			pe.peerError(owner, err)
			return nil, err
		}
		for _, id := range req {
			v, n, derr := pe.cfg.Codec.Decode(reply)
			if derr != nil {
				return nil, fmt.Errorf("core: fetch decode from place %d: %w", owner, derr)
			}
			reply = reply[n:]
			sc.vals = append(sc.vals, v)
			st.cache.Put(id, v)
		}
		pe.remoteFetches.Add(int64(len(req)))
	}
	return sc.vals, nil
}

// gatherDeps reads dependency values in the pattern's order: from the local
// chunk when this place owns the dependency, from the walk's halo otherwise.
// It moves nothing; a value in neither is an engine bug, reported as an error.
func (pe *placeEngine[T]) gatherDeps(st *epochState[T], sc *scratch[T], deps []dag.VertexID, res []cellRef) ([]Cell[T], error) {
	if cap(sc.cells) < len(deps) {
		sc.cells = make([]Cell[T], len(deps))
	}
	cells := sc.cells[:len(deps)]
	localReads := 0
	for k, id := range deps {
		cells[k].ID = id
		if off := int(res[k].Off); int(res[k].Owner) == pe.self {
			if !st.chunk.Finished(off) {
				return nil, fmt.Errorf("core: place %d scheduled a vertex before local dependency %v finished", pe.self, id)
			}
			cells[k].Value = st.chunk.Value(off)
			localReads++
			continue
		}
		v, ok := sc.halo.get(id)
		if !ok {
			return nil, fmt.Errorf("core: place %d walked a tile whose halo lacks remote dependency %v", pe.self, id)
		}
		cells[k].Value = v
	}
	if localReads > 0 {
		pe.localReads.Add(int64(localReads))
	}
	return cells, nil
}
