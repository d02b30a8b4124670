package core

import (
	"cmp"
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
// DI·stride + DJ and stores its value in the slab. A fresh row — one test of
// its finished bits found no restored cell — whose columns are contiguous is
// resolved once (rowFrame): from the first column where every offset lands
// inside the grid, its cells step the slab index instead of locating each
// cell, and the row goes into the chunk as one copy. The other cells — left
// of that column, on a row with a restored cell, or on a dealt column axis —
// each test the grid's bounds and are stored one at a time. A fresh row is
// published whole. What a row's cells owe other tiles is parked a run at a
// time (settleRow). It reports how many cells it computed.
func (pe *placeEngine[T]) walkStencil(st *epochState[T], sc *scratch[T], t int) (done int) {
	ch, s := st.chunk, st.chunk.Stencil()
	b := ch.TileBox(t)
	top, left, right := b.Lo/b.Stride, b.Lo%b.Stride, b.Lo%b.Stride+b.W
	if pe.ghostFrame(st, sc, s, t) != nil {
		return 0 // a dead peer or superseded epoch: the recovery reschedules the tile
	}
	defer func() { pe.pushSettled(st, sc); done = pe.settle(st, sc) }()
	compute, slab := pe.cfg.Compute, sc.slab
	for r := top; r < top+b.Rows; r++ {
		select {
		case <-st.quit:
			return // a pause: the epoch is superseded only once this walk is over
		default:
		}
		i, lo := s.RowOf[r], r*b.Stride+left
		offs, fresh := s.Offsets(i), ch.FinishedRun(lo, b.W) == 0
		cells := slices.Grow(sc.cells[:0], len(offs))[:len(offs)]
		pe.settleRow(st, sc, s, b, r) // before the row runs, which it then does whole
		rowStore, interior, prev := fresh && !s.DealtCols(), right, -1
		if rowStore {
			interior, prev = sc.rowFrame(s, i, offs, left, right)
		}
		n, reads := 0, -int(sc.ghostReads[r-top]) // the ghost frame counted those
		for c := left; c < interior; c++ {
			off, j := lo+c-left, s.ColOf[c]
			x := sc.at(i, j)
			if !fresh && ch.Finished(off) {
				slab[x] = ch.Value(off) // restored by a recovery; later cells read it
				continue
			}
			k := 0
			for _, o := range offs {
				if i+o.DI >= 0 && j+o.DJ >= 0 { // inside the grid
					cells[k] = Cell[T]{ID: dag.VertexID{I: i + o.DI, J: j + o.DJ}, Value: slab[x+int(o.DI)*sc.stride+int(o.DJ)]}
					k++
				}
			}
			v := compute(i, j, cells[:k])
			slab[x], n, reads = v, n+1, reads+k
			if !rowStore {
				ch.SetValue(off, v)
				if !fresh {
					ch.Publish(off, 1)
				}
			}
		}
		if interior < right {
			j := s.ColOf[interior]
			stencilInterior(compute, cells, slab, sc.dx, offs, prev, i, j, sc.at(i, j), right-interior)
			n, reads = n+right-interior, reads+(right-interior)*len(offs)
		}
		if rowStore {
			x := sc.at(i, s.ColOf[left])
			ch.SetValues(lo, slab[x:x+b.W])
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

// rowFrame is the preamble of row i of a stencil tile whose columns run
// contiguously over local columns [left, right): it fills sc.dx with each
// offset's slab delta, DI·stride + DJ, and returns the first local column
// from which every offset lands inside the grid — right when some offset's
// row is outside it — and the index of the (0, -1) offset in offs, or -1.
func (sc *scratch[T]) rowFrame(s *distarray.Stencil, i int32, offs []dag.Offset, left, right int) (interior, prev int) {
	sc.dx, prev = sc.dx[:0], -1
	j0 := int32(0) // the first global column every offset reaches inside the grid from
	for k, o := range offs {
		if i+o.DI < 0 {
			return right, -1
		}
		if o == (dag.Offset{DJ: -1}) {
			prev = k
		}
		j0 = max(j0, -o.DJ)
		sc.dx = append(sc.dx, int(o.DI)*sc.stride+int(o.DJ))
	}
	return left + int(min(max(j0-s.ColOf[left], 0), int32(right-left))), prev
}

// stencilInterior computes the n cells of row i from column j on, at slab
// index x on, where every offset in offs lands inside the grid at dx from the
// cell. Before each call it rewrites every Cell of deps, ID and Value, but
// the one of the (0, -1) offset at index prev, which it stores as soon as the
// previous call returns the value, not through the slab.
func stencilInterior[T any](compute ComputeFunc[T], deps []Cell[T], slab []T, dx []int, offs []dag.Offset, prev int, i, j int32, x, n int) {
	deps, dx = deps[:len(offs)], dx[:len(offs)]
	if prev >= 0 {
		deps[prev].Value = slab[x-1]
	}
	for end := x + n; x < end; j, x = j+1, x+1 {
		for k, o := range offs {
			deps[k].ID = dag.VertexID{I: i + o.DI, J: j + o.DJ}
			if k != prev {
				deps[k].Value = slab[x+dx[k]]
			}
		}
		v := compute(i, j, deps)
		slab[x] = v
		if prev >= 0 {
			deps[prev].Value = v
		}
	}
}

// settleRow parks, by park's rules, what the unfinished cells of local row r
// of own stencil tile b within reach of its bottom, or else of its right
// edge, owe, a run of them at a time. For each successor row the offsets that
// land on row r map a run to one interval of target columns, gone through
// one (owner, tile) run at a time — one Locate, one owe — which ends with the
// owner's tile in that row, or box, or, along a dealt column axis, at once.
// A remote target run also gets the cells that map into it (pushSettled).
func (pe *placeEngine[T]) settleRow(st *epochState[T], sc *scratch[T], s *distarray.Stencil, b distarray.TileBox, r int) {
	h, w := s.Bounds()
	i, left, right := s.RowOf[r], b.Lo%b.Stride, b.Lo%b.Stride+b.W
	c := left
	if r < b.Lo/b.Stride+b.Rows-s.ReachRows {
		c = max(left, right-s.ReachCols)
	}
	for c0 := c; c0 < right; c0 = c {
		if c++; st.chunk.Finished(r*b.Stride + c0) {
			continue // restored: it owes nothing
		}
		for c < right && !st.chunk.Finished(r*b.Stride+c) && s.ColOf[c] == s.ColOf[c-1]+1 {
			c++
		}
		src, j0 := r*b.Stride+c0, s.ColOf[c0]
		j1 := j0 + int32(c-c0)
		for i2 := i; i2 <= min(i+s.ReachI, h-1); i2++ {
			offs := s.Offsets(i2)
			lo, end := w, int32(0)
			for _, o := range offs {
				if i2+o.DI == i {
					lo, end = min(lo, j0-o.DJ), max(end, min(j1-o.DJ, w))
				}
			}
			for J, n := lo, 0; J < end; J += int32(n) {
				ref, _ := s.Locate(r, c0, i, j0, i2-i, J-j0)
				p, off, g := int(ref.Owner), int(ref.Off), &st.grids[st.rank[ref.Owner]]
				if n = 1; !s.DealtCols() {
					n = min(int(end-J), g.RunEnd(off)-off)
				}
				if p == pe.self && b.Holds(off) {
					continue // the walk's order satisfies it
				}
				owed := 0
				for _, o := range offs {
					a, z := max(J, j0-o.DJ), min(J+int32(n), j1-o.DJ) // the targets o maps into the run
					switch {
					case i2+o.DI != i || a >= z:
					case p == pe.self:
						owed += int(z-a) - st.chunk.FinishedRun(off+int(a-J), int(z-a))
					default:
						owed += int(z - a)
						if st.agg.push {
							sc.pushed = append(sc.pushed, pushSpan{p: p, tile: g.TileOf(off), lo: src + int(a+o.DJ-j0), hi: src + int(z+o.DJ-j0)})
						}
					}
				}
				if owed > 0 {
					sc.owe(p, g.TileOf(off), owed)
				}
			}
		}
	}
}

// pushSpan is a run of a walk's cells, offsets [lo, hi), that tile of p reads.
type pushSpan struct{ p, tile, lo, hi int }

// pushSettled adds the values of the cells settleRow found each remote tile
// reads to the tile's entry, in offset order and each once — however many
// offsets and rows brought it — a span at a time: the part of a span past
// what the entry holds is one copy out of the chunk, and one run, or the
// last run's extension when it follows it. Then it empties the list.
func (pe *placeEngine[T]) pushSettled(st *epochState[T], sc *scratch[T]) {
	slices.SortFunc(sc.pushed, func(x, y pushSpan) int { return cmp.Or(x.p-y.p, x.tile-y.tile, x.lo-y.lo) })
	var tv *tileVals[T]
	next := 0
	for k, x := range sc.pushed {
		if k == 0 || x.p != sc.pushed[k-1].p || x.tile != sc.pushed[k-1].tile {
			so := &sc.owed[x.p]
			tv, next = so.valsAt(slices.IndexFunc(so.tiles, func(tc tileCount) bool { return tc.tile == uint32(x.tile) })), x.lo
		}
		if lo := max(next, x.lo); lo < x.hi {
			st.chunk.Values(tv.grow(uint32(lo), x.hi-lo), lo)
			next = x.hi
		}
	}
	sc.pushed = sc.pushed[:0]
}

// What ghostFrame put at a slab index this walk, as mark[x]-gen: a value of
// the tile's box not read yet; another place's value, from the box, the
// cache or a fetch; a value of this place's chunk.
const markPoured, markRemote, markLocal = 0, 1, 2

// ghostFrame readies sc.slab for a walk of own stencil tile t: it spans the
// tile's global bounding box plus the stencil's reach, and gets what the
// tile's unfinished cells read outside the tile, nothing else. The tile's box
// is poured straight into it a piece at a time (pourBox; a value outside it
// is dropped). Then each row's reads outside the tile come a run at a time
// (Chunk.Border), and each cell once, however many offsets read it: a local
// run's cells are copied from the chunk; a remote run's are a push hit when
// the box filled them and they are first read, and otherwise come from the
// cache or a fetch. Reads of remote values are counted per row into
// sc.ghostReads, which walkStencil keeps out of LocalReads.
func (pe *placeEngine[T]) ghostFrame(st *epochState[T], sc *scratch[T], s *distarray.Stencil, t int) error {
	ch, b := st.chunk, st.chunk.TileBox(t)
	top, left := b.Lo/b.Stride, b.Lo%b.Stride
	sc.gi0, sc.gj0 = int(s.RowOf[top]-s.ReachI), int(s.ColOf[left]-s.ReachJ)
	sc.stride = int(s.ColOf[left+b.W-1]) - sc.gj0 + 1
	rows := int(s.RowOf[top+b.Rows-1]) - sc.gi0 + 1
	sc.slab, sc.mark = slices.Grow(sc.slab[:0], rows*sc.stride)[:rows*sc.stride], slices.Grow(sc.mark[:0], rows*sc.stride)[:rows*sc.stride]
	if sc.gen += 4; sc.gen < 4 { // wrapped: stale marks would read as this walk's
		clear(sc.mark[:cap(sc.mark)])
		sc.gen = 4
	}
	pe.pourBox(st, sc, s, t, rows)
	sc.resetGroups()
	var n haloCounts
	sc.ghostReads = sc.ghostReads[:0]
	for r := top; r < top+b.Rows; r++ {
		reads := int32(0)
		ch.Border(s, b, r, func(run distarray.BorderRun) {
			x, p, off := sc.at(run.I, run.J), int(run.Ref.Owner), int(run.Ref.Off)
			switch {
			case run.Done: // restored: it reads nothing
			case p == pe.self:
				if ch.FinishedRun(off, run.N) != run.N {
					panic(fmt.Sprintf("core: place %d walked row %d of tile %d before its dependencies (%d,%d)-(%d,%d) were finished",
						pe.self, s.RowOf[r], t, run.I, run.J, run.I, run.J+int32(run.N)-1))
				}
				for k, e := 0, 0; k < run.N; k = e + 1 {
					for e = k; e < run.N && sc.mark[x+e] != sc.gen+markLocal; e++ {
						sc.mark[x+e] = sc.gen + markLocal
					}
					ch.Values(sc.slab[x+k:x+e], off+k)
				}
			default:
				reads += int32(run.N)
				for k := range run.N {
					switch sc.mark[x+k] - sc.gen {
					case markRemote:
					case markPoured: // a push hit, the first time it is read
						sc.mark[x+k], n.pushHits = sc.gen+markRemote, n.pushHits+1
					default:
						sc.mark[x+k] = sc.gen + markRemote
						pe.cachedOrQueued(st, sc, p, dag.VertexID{I: run.I, J: run.J + int32(k)}, &sc.slab[x+k], &n)
					}
				}
			}
		})
		sc.ghostReads = append(sc.ghostReads, reads)
	}
	return pe.fetchQueued(st, sc, n, func(id dag.VertexID, v T) { sc.slab[sc.at(id.I, id.J)] = v })
}

// pourBox takes own stencil tile t's box and pours it into the slab of
// ghostFrame's window, rows × sc.stride from (sc.gi0, sc.gj0), a piece at a
// time: a run of a sender's offsets is cut where the sender's box rows end
// (Stencil.RowEnd) into pieces of consecutive columns of one global row, each
// located with one CellAt, clipped to the window, copied, and its cells marked
// poured; what falls outside the window is dropped. The box's storage is
// released: the tile runs now, here.
func (pe *placeEngine[T]) pourBox(st *epochState[T], sc *scratch[T], s *distarray.Stencil, t, rows int) {
	bs := st.boxes.take(t)
	if bs == nil {
		return
	}
	at := 0
	for _, r := range bs.runs {
		p := int(r.from)
		for off, end := int(r.off), int(r.off+r.n); off < end; {
			e := min(end, s.RowEnd(p, off))
			i, j := st.d.CellAt(p, off)
			if di, dj := int(i)-sc.gi0, int(j)-sc.gj0; uint(di) < uint(rows) {
				if k0, k1 := max(-dj, 0), min(e-off, sc.stride-dj); k0 < k1 {
					x := di*sc.stride + dj
					copy(sc.slab[x+k0:x+k1], bs.vals[at+k0:at+k1])
					for m := x + k0; m < x+k1; m++ {
						sc.mark[m] = sc.gen + markPoured
					}
				}
			}
			at, off = at+e-off, e
		}
	}
	st.boxes.release(bs)
}

// fillHalo sources a generic walk's remote inputs into sc.halo. An own
// tile's box goes first: the values other places pushed for it (boxes.go)
// are poured into sc.halo, unclaimed. Then every distinct dependency of the
// cells about to run that another place owns, and the box did not hold, is
// copied out of the vertex cache or, failing that, fetched — one fetchValues
// per owning place — into sc.halo beside the box's values, through the steps
// ghostFrame shares (cachedOrQueued, fetchQueued). The cells themselves, when
// another place owns them, are held as placeholders: their values exist only
// here until walk stores them, so they are never fetched. So is a value
// still to be fetched, which also keeps a second edge to it from listing it
// twice. On an error the caller abandons the walk.
func (pe *placeEngine[T]) fillHalo(st *epochState[T], sc *scratch[T], td *tileDesc) error {
	sc.halo.reset()
	if td.tile >= 0 {
		pe.drainBox(st, td.tile, func(i, j int32, v T) { sc.halo.pour(dag.VertexID{I: i, J: j}, v) })
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
	var n haloCounts
	for _, s := range td.order {
		for k := td.depAt[s]; k < td.depAt[s+1]; k++ {
			owner := int(td.res[k].Owner)
			if owner == pe.self {
				continue
			}
			dep := td.deps[k]
			p, held, poured := sc.halo.slot(dep)
			if poured {
				n.pushHits++
			}
			if !held {
				pe.cachedOrQueued(st, sc, owner, dep, p, &n)
			}
		}
	}
	return pe.fetchQueued(st, sc, n, func(id dag.VertexID, v T) { p, _, _ := sc.halo.slot(id); *p = v })
}

// haloCounts is what one halo step's distinct remote dependencies came from.
type haloCounts struct{ hits, misses, pushHits int64 }

// cachedOrQueued copies dep, which owner holds, out of the vertex cache into
// *v, or queues it for fetchQueued.
func (pe *placeEngine[T]) cachedOrQueued(st *epochState[T], sc *scratch[T], owner int, dep dag.VertexID, v *T, n *haloCounts) {
	var ok bool
	if *v, ok = st.cache.Get(dep); ok {
		n.hits++
		return
	}
	if n.misses++; len(sc.remote[owner]) == 0 {
		sc.owners = append(sc.owners, owner)
	}
	sc.remote[owner] = append(sc.remote[owner], dep)
}

// fetchQueued books a halo step's counts, in Stats and the vcache vecs
// alike — a value a box held is a cache hit and a pushed value consumed —
// then fetches what cachedOrQueued queued, one fetchValues per owning place,
// and hands each value to put. Each place's ids go in ascending order,
// whatever order the walk queued them in, so every delta in the request is
// as short as it can be.
func (pe *placeEngine[T]) fetchQueued(st *epochState[T], sc *scratch[T], n haloCounts, put func(dag.VertexID, T)) error {
	pe.cacheHits.Add(n.hits + n.pushHits)
	pe.cacheMisses.Add(n.misses)
	if n.hits > 0 {
		pe.mVCHits.Add(metrics.VCacheKey, n.hits)
	}
	if n.misses > 0 {
		pe.mVCMiss.Add(metrics.VCacheKey, n.misses)
	}
	if n.pushHits > 0 {
		pe.pushConsumed.Add(n.pushHits)
		pe.mVCHits.Add(metrics.VCacheBoxKey, n.pushHits)
	}
	for _, owner := range sc.owners {
		ids := sc.remote[owner]
		sc.remote[owner] = ids[:0]
		slices.SortFunc(ids, cmpID)
		vals, err := pe.fetchValues(st, sc, owner, ids)
		if err != nil {
			return err
		}
		for k, id := range ids {
			put(id, vals[k])
		}
	}
	sc.owners = sc.owners[:0]
	return nil
}

// cmpID orders vertex ids by row, then column.
func cmpID(a, b dag.VertexID) int { return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J)) }

// drainBox takes own tile t's box, hands put each value it holds with its
// cell, and releases the box's storage: the tile runs now, here. It locates
// every value on its own, which only the generic arm's halo needs; a stencil
// tile's box is poured a piece at a time (pourBox).
func (pe *placeEngine[T]) drainBox(st *epochState[T], t int, put func(i, j int32, v T)) {
	bs := st.boxes.take(t)
	if bs == nil {
		return
	}
	at := 0
	for _, r := range bs.runs {
		for off := int(r.off); off < int(r.off+r.n); off++ {
			i, j := st.d.CellAt(int(r.from), off)
			put(i, j, bs.vals[at])
			at++
		}
	}
	st.boxes.release(bs)
}

// fetchValues reads the finished values of ids, all owned by owner, into
// sc.vals in id order: one kindFetch call per fetchMaxIDs ids, each timed
// into engine.fetch_wait_ns when the registry is on. Each reply, once
// decoded whole, goes into the vertex cache in one PutAll, and the entries
// that evicts are counted.
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
		start := len(sc.vals)
		for range req {
			v, n, derr := pe.cfg.Codec.Decode(reply)
			if derr != nil {
				return nil, fmt.Errorf("core: fetch decode from place %d: %w", owner, derr)
			}
			reply = reply[n:]
			sc.vals = append(sc.vals, v)
		}
		pe.remoteFetches.Add(int64(len(req)))
		if evicted := st.cache.PutAll(req, sc.vals[start:]); evicted > 0 {
			pe.mVCEvict.Add(metrics.VCacheKey, int64(evicted))
		}
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
