// Package locks holds dpx10-vet's two mutex checks, which are two reports
// of one lock-set analysis:
//
//   - lockheld reports a blocking operation reachable while a
//     sync.Mutex or sync.RWMutex is held. The runtime mixes fine-grained
//     mutexes (aggregator, value cache, TCP connection table) with
//     blocking transport calls and channel operations; holding a mutex
//     across one of those is the deadlock shape it is most exposed to.
//     X10's `atomic` blocks forbid blocking statements syntactically;
//     lockheld re-imposes that rule.
//   - lockorder builds the whole-program lock-acquisition-order graph and
//     reports each edge that closes a cycle, and each re-acquisition of a
//     held, non-reentrant mutex. If one goroutine takes A then B while
//     another takes B then A, the schedule that interleaves them
//     deadlocks; the static order graph catches it before any schedule
//     does.
//
// The analysis runs once per program (cached through Program.Fact) over
// every function body. A held lock is keyed by its declared object — the
// struct field or variable, so every instance of `shard.mu` is one lock to
// lockorder — together with its printed receiver. A forward solve over
// each body's CFG computes the locks held on some path in (may, union
// join) and on every path in (must, intersection join); one replay then
// reports blocking operations while the may-set is non-empty and records
// an order edge from every may-held lock to each acquisition. An unlock
// drops the receiver it names from the may-set, but every instance of the
// lock from the must-set, since it may have released any of them through
// an alias. A self-edge counts only when the lock is must-held, so a loop
// that releases one shard's lock and takes the next does not trip it.
//
// Calls are summarized through one fixpoint over the declared functions: a
// call blocks when its callee may block, and acquires whatever its callee
// may acquire, transitively. The spawned call of a go statement and
// anything inside a function literal run on another frame, so they
// neither block nor acquire for the enclosing body; a literal's body is
// analyzed on its own, starting with nothing held. Blocking operations are
// channel sends and receives, range over a channel, select without a
// default case, time.Sleep, sync.WaitGroup.Wait, net dial/listen/accept,
// and calls to methods named Send or Call (the transport.Transport verbs).
// sync.Cond.Wait is exempt: it releases its mutex while parked. A select
// case's own channel operation is the select's to account for. Lock
// operations are recognized as expression statements (`mu.Lock()`), the
// runtime's idiom; a deferred Unlock releases at return, so the lock stays
// held to the end of the body. lockorder skips _test.go files.
package locks

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/dpx10/dpx10/internal/analysis/framework"
)

// Lockheld reports blocking operations under a held mutex.
var Lockheld = &framework.Analyzer{
	Name:     "lockheld",
	Doc:      "report blocking operations (transport Send/Call, channel ops, time.Sleep) reachable while a sync.Mutex/RWMutex is held",
	Severity: framework.SevError,
	RunGlobal: func(gp *framework.GlobalPass) error {
		for _, f := range analyze(gp.Prog).blocked {
			gp.Reportf(f.pos, "%s", f.msg)
		}
		return nil
	},
}

// Lockorder reports lock-order cycles and re-acquisition of held mutexes.
var Lockorder = &framework.Analyzer{
	Name:     "lockorder",
	Doc:      "report cycles in the whole-program lock-acquisition-order graph (and re-acquisition of held mutexes)",
	Severity: framework.SevError,
	RunGlobal: func(gp *framework.GlobalPass) error {
		analyze(gp.Prog).reportCycles(gp)
		return nil
	},
}

// analysis is the shared lock-set pass over one program.
type analysis struct {
	prog *framework.Program
	sums map[*types.Func]*summary
	// recv caches the printed receiver of each lock call, by position.
	recv map[token.Pos]string
	// names remembers a printable receiver for each lock object.
	names map[types.Object]string
	// edges: held lock -> acquired lock -> earliest acquisition position.
	edges map[types.Object]map[types.Object]token.Pos
	// blocked are lockheld's findings, in traversal order.
	blocked []finding
}

type finding struct {
	pos token.Pos
	msg string
}

// summary is what a call to a declared function may do in its caller's
// frame.
type summary struct {
	blocks   bool
	acquires map[types.Object]bool
	callees  []*types.Func // static calls that run in its frame
}

// unit is one analyzable function body.
type unit struct {
	fn   ast.Node // *ast.FuncDecl or *ast.FuncLit
	info *types.Info
	decl *types.Func // nil for function literals
	test bool        // in a _test.go file
}

func analyze(prog *framework.Program) *analysis {
	return prog.Fact("locks", func() any {
		a := &analysis{
			prog:  prog,
			sums:  map[*types.Func]*summary{},
			recv:  map[token.Pos]string{},
			names: map[types.Object]string{},
			edges: map[types.Object]map[types.Object]token.Pos{},
		}
		units := a.units()
		a.summarize(units)
		for _, u := range units {
			a.replay(u)
		}
		return a
	}).(*analysis)
}

func (a *analysis) units() []unit {
	var units []unit
	for _, pkg := range a.prog.Pkgs {
		info := pkg.TypesInfo
		for _, f := range pkg.Files {
			test := strings.HasSuffix(a.prog.Fset.File(f.Pos()).Name(), "_test.go")
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						decl, _ := info.Defs[n.Name].(*types.Func)
						units = append(units, unit{fn: n, info: info, decl: decl, test: test})
					}
				case *ast.FuncLit:
					units = append(units, unit{fn: n, info: info, test: test})
				}
				return true
			})
		}
	}
	return units
}

// summarize computes every declared function's summary: its own blocking
// operations and acquisitions, then, to a fixed point, those of the
// functions it calls in its own frame.
func (a *analysis) summarize(units []unit) {
	for _, u := range units {
		if u.decl == nil {
			continue
		}
		sum := &summary{acquires: map[types.Object]bool{}}
		note := func(e effect) {
			if e.call == nil || e.blocking {
				sum.blocks = true
			}
			if e.callee != nil {
				sum.callees = append(sum.callees, e.callee)
			}
		}
		cfg := a.prog.CFG(u.fn)
		for _, b := range cfg.Blocks {
			for _, n := range b.Nodes {
				if id, op := a.lockOp(u, n); op == opLock && id.obj != nil {
					sum.acquires[id.obj] = true
				} else if op == opNone {
					effects(u.info, n, b.Comm, note)
				}
			}
		}
		// Deferred calls run in this frame, at return.
		for _, ds := range cfg.Defers {
			effects(u.info, ds.Call, nil, note)
		}
		a.sums[u.decl] = sum
	}
	for changed := true; changed; {
		changed = false
		for _, sum := range a.sums {
			for _, c := range sum.callees {
				cs := a.sums[c]
				if cs == nil {
					continue
				}
				if cs.blocks && !sum.blocks {
					sum.blocks, changed = true, true
				}
				for obj := range cs.acquires {
					if !sum.acquires[obj] {
						sum.acquires[obj], changed = true, true
					}
				}
			}
		}
	}
}

// replay solves u's lock sets, then walks each block once more from its
// entry fact, recording lockheld findings and lockorder edges.
func (a *analysis) replay(u unit) {
	cfg := a.prog.CFG(u.fn)
	sol := cfg.Forward(lattice{}, lockFact{must: heldMap{}}, func(b *framework.Block, in framework.Fact) framework.Fact {
		f := in.(lockFact)
		for _, n := range b.Nodes {
			if id, op := a.lockOp(u, n); op != opNone {
				f = f.apply(id, op, n.Pos())
			}
		}
		return f
	})
	for _, b := range cfg.Blocks {
		f := sol.In[b].(lockFact)
		for _, n := range b.Nodes {
			if id, op := a.lockOp(u, n); op != opNone {
				if op == opLock && !u.test {
					a.order(f, id.obj, n.Pos())
				}
				f = f.apply(id, op, n.Pos())
				continue
			}
			if len(f.may) == 0 {
				continue
			}
			effects(u.info, n, b.Comm, func(e effect) {
				sum := a.sums[e.callee]
				if e.call == nil || e.blocking || sum != nil && sum.blocks {
					a.block(f.may, e)
				}
				if sum != nil && !u.test {
					for obj := range sum.acquires {
						a.order(f, obj, e.pos)
					}
				}
			})
		}
	}
}

// block records a lockheld finding for e, against the earliest-acquired
// lock of held.
func (a *analysis) block(held heldMap, e effect) {
	var first lockID
	at := token.NoPos
	for id, p := range held {
		if at == token.NoPos || p < at {
			first, at = id, p
		}
	}
	what := e.op
	if e.call != nil {
		what = "call to " + render(a.prog.Fset, e.call.Fun)
	}
	a.blocked = append(a.blocked, finding{e.pos, fmt.Sprintf("%s while mutex %q is held (locked at line %d)",
		what, first.expr, a.prog.Fset.Position(at).Line)})
}

// order records that obj is acquired at pos while f's locks are held.
// Re-acquiring the same lock is a self-deadlock only when it is held on
// every path in.
func (a *analysis) order(f lockFact, obj types.Object, pos token.Pos) {
	if obj == nil {
		return
	}
	for h := range f.may {
		if h.obj == nil {
			continue
		}
		if h.obj == obj {
			if _, definite := f.must[h]; !definite {
				continue
			}
		}
		to := a.edges[h.obj]
		if to == nil {
			to = map[types.Object]token.Pos{}
			a.edges[h.obj] = to
		}
		if p, ok := to[obj]; !ok || pos < p {
			to[obj] = pos
		}
	}
}

// --- lock operations ---------------------------------------------------

type opKind int

const (
	opNone opKind = iota
	opLock
	opUnlock
)

// lockID names a held mutex: its declared object (nil when it cannot be
// resolved; lockorder ignores those) and its printed receiver.
type lockID struct {
	obj  types.Object
	expr string
}

// lockOp classifies n as a `mu.(Try)(R)Lock()` or `mu.(R)Unlock()`
// statement on a sync type and identifies the mutex.
func (a *analysis) lockOp(u unit, n ast.Node) (lockID, opKind) {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return lockID{}, opNone
	}
	c, ok := es.X.(*ast.CallExpr)
	if !ok {
		return lockID{}, opNone
	}
	op := lockCall(u.info, c)
	if op == opNone {
		return lockID{}, opNone
	}
	x := c.Fun.(*ast.SelectorExpr).X
	name, ok := a.recv[c.Pos()]
	if !ok {
		name = render(a.prog.Fset, x)
		a.recv[c.Pos()] = name
	}
	id := lockID{obj: receiverObj(u.info, x), expr: name}
	if _, ok := a.names[id.obj]; id.obj != nil && !u.test && !ok {
		a.names[id.obj] = name
	}
	return id, op
}

// lockCall classifies a (Try)(R)Lock / (R)Unlock call on a sync type.
func lockCall(info *types.Info, c *ast.CallExpr) opKind {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return opNone
	}
	var op opKind
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		op = opLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return opNone
	}
	if obj := methodObj(info, sel); obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return opNone
	}
	return op
}

// receiverObj resolves the mutex expression to its declared object: the
// struct field for s.mu (instance-abstracted), the variable otherwise.
func receiverObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch ex := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[ex]
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[ex]; ok && sel.Kind() == types.FieldVal {
				return sel.Obj()
			}
			return info.Uses[ex.Sel]
		case *ast.IndexExpr:
			e = ex.X
		case *ast.StarExpr:
			e = ex.X
		default:
			return nil
		}
	}
}

func methodObj(info *types.Info, sel *ast.SelectorExpr) types.Object {
	if selInfo, ok := info.Selections[sel]; ok {
		return selInfo.Obj()
	}
	return info.Uses[sel.Sel] // package-qualified call
}

// --- blocking operations and calls -------------------------------------

// effect is one blocking operation or call a node performs in its
// function's own frame.
type effect struct {
	pos      token.Pos
	op       string        // the blocking operation when call is nil
	call     *ast.CallExpr // a call, blocking by itself or not
	blocking bool          // the call blocks by itself
	callee   *types.Func   // the call's static target, nil when dynamic
}

// effects calls f for each effect of the CFG block node n. comm is the
// block's select-case communication, whose own channel operation is the
// select's and not an effect.
func effects(info *types.Info, n ast.Node, comm ast.Stmt, f func(effect)) {
	var skip ast.Node
	if comm != nil && n == ast.Node(comm) {
		skip = commOp(comm)
	}
	framework.InspectShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			// The spawned call runs on another goroutine; its arguments
			// are evaluated here.
			for _, arg := range m.Call.Args {
				effects(info, arg, nil, f)
			}
			return false
		case *ast.DeferStmt:
			// The deferred call runs at return; its arguments now.
			for _, arg := range m.Call.Args {
				effects(info, arg, nil, f)
			}
			return false
		case *ast.SendStmt:
			if m != skip {
				f(effect{pos: m.Pos(), op: "channel send"})
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW && m != skip {
				f(effect{pos: m.Pos(), op: "channel receive"})
			}
		case *ast.RangeStmt:
			// The loop head's per-iteration receive; the operand is a
			// node of its own, evaluated once before the loop.
			if t := info.TypeOf(m.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					f(effect{pos: m.Pos(), op: "range over channel"})
				}
			}
			return false
		case *ast.SelectStmt:
			if !hasDefault(m) {
				f(effect{pos: m.Pos(), op: "select without default"})
			}
		case *ast.CallExpr:
			// A lock call in expression position is neither blocking nor
			// a state change.
			if lockCall(info, m) == opNone {
				f(effect{pos: m.Pos(), call: m, blocking: blockingCall(info, m), callee: framework.StaticCallee(info, m)})
			}
		}
		return true
	})
}

// commOp returns the channel operation of a select case's communication:
// the send statement, or the receive expression.
func commOp(comm ast.Stmt) ast.Node {
	switch s := comm.(type) {
	case *ast.SendStmt:
		return s
	case *ast.ExprStmt:
		return ast.Unparen(s.X)
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			return ast.Unparen(s.Rhs[0])
		}
	}
	return nil
}

func hasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCall reports calls that block by themselves: time.Sleep, net
// dials and accepts, sync Wait, and transport-verb methods named Send or
// Call.
func blockingCall(info *types.Info, c *ast.CallExpr) bool {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := methodObj(info, sel)
	if obj == nil {
		return false
	}
	pkgPath := ""
	if obj.Pkg() != nil {
		pkgPath = obj.Pkg().Path()
	}
	name := sel.Sel.Name
	switch {
	case pkgPath == "time" && name == "Sleep":
		return true
	case pkgPath == "sync" && name == "Wait":
		// sync.Cond.Wait atomically releases its mutex while parked —
		// holding cond.L across Wait is the API's required pattern, not
		// a stall. (Waiting while a second, unrelated mutex is held
		// would still be a bug, but identifying which mutex is cond.L
		// is beyond this analysis.)
		return !isCondMethod(info, sel)
	case pkgPath == "net" && (strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen") || name == "Accept"):
		return true
	case name == "Send" || name == "Call":
		// Transport verbs, wherever they are defined — but not the
		// sync/atomic or reflect namesakes.
		return pkgPath != "sync" && pkgPath != "sync/atomic" && pkgPath != "reflect"
	}
	return false
}

// isCondMethod reports a method call on sync.Cond (or *sync.Cond).
func isCondMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	selInfo, ok := info.Selections[sel]
	if !ok {
		return false
	}
	t := selInfo.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Cond" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync"
}

// --- the held-set lattice ----------------------------------------------

// heldMap maps each held lock to its earliest acquisition on any path.
type heldMap map[lockID]token.Pos

// lockFact pairs the two held sets one solve computes. may is the union
// over paths in: lockheld reports under it, and lockorder draws edges from
// it. must is the intersection and gates self-edges. A nil must map means
// the block is not yet reached — the identity of the intersection join —
// and is distinct from an empty (reached, nothing definitely held) map.
type lockFact struct {
	may  heldMap
	must heldMap
}

// apply returns the fact after a lock operation on id at pos.
func (f lockFact) apply(id lockID, op opKind, pos token.Pos) lockFact {
	if op == opLock {
		return lockFact{may: addHeld(f.may, id, pos), must: addHeld(f.must, id, pos)}
	}
	instance := func(k lockID) bool { return k == id || id.obj != nil && k.obj == id.obj }
	return lockFact{may: dropHeld(f.may, func(k lockID) bool { return k == id }), must: dropHeld(f.must, instance)}
}

type lattice struct{}

func (lattice) Bottom() framework.Fact { return lockFact{} }

func (lattice) Join(x, y framework.Fact) framework.Fact {
	xf, yf := x.(lockFact), y.(lockFact)
	return lockFact{may: joinMay(xf.may, yf.may), must: joinMust(xf.must, yf.must)}
}

func (lattice) Equal(x, y framework.Fact) bool {
	xf, yf := x.(lockFact), y.(lockFact)
	return equalMap(xf.may, yf.may) && equalMap(xf.must, yf.must)
}

func joinMay(xm, ym heldMap) heldMap {
	if len(ym) == 0 {
		return xm
	}
	if len(xm) == 0 {
		return ym
	}
	out := make(heldMap, len(xm)+len(ym))
	for k, p := range xm {
		out[k] = p
	}
	for k, p := range ym {
		if q, ok := out[k]; !ok || p < q {
			out[k] = p
		}
	}
	return out
}

func joinMust(xm, ym heldMap) heldMap {
	if xm == nil {
		return ym
	}
	if ym == nil {
		return xm
	}
	out := heldMap{}
	for k, p := range xm {
		if q, ok := ym[k]; ok {
			out[k] = min(p, q)
		}
	}
	return out
}

func equalMap(xm, ym heldMap) bool {
	if (xm == nil) != (ym == nil) || len(xm) != len(ym) {
		return false
	}
	for k, p := range xm {
		if q, ok := ym[k]; !ok || p != q {
			return false
		}
	}
	return true
}

// addHeld returns a copy of m (reached, even when m is nil) holding id at
// the earliest of pos and any prior entry.
func addHeld(m heldMap, id lockID, pos token.Pos) heldMap {
	out := make(heldMap, len(m)+1)
	for k, p := range m {
		out[k] = p
	}
	if p, ok := out[id]; !ok || pos < p {
		out[id] = pos
	}
	return out
}

// dropHeld returns a copy of m without the locks drop selects.
func dropHeld(m heldMap, drop func(lockID) bool) heldMap {
	if m == nil {
		return nil
	}
	out := make(heldMap, len(m))
	for k, p := range m {
		if !drop(k) {
			out[k] = p
		}
	}
	return out
}

// --- lockorder's report ------------------------------------------------

// reportCycles reports every self-edge and every edge that closes a
// directed cycle, once per ordered lock pair.
func (a *analysis) reportCycles(gp *framework.GlobalPass) {
	type edge struct {
		from, to types.Object
		pos      token.Pos
	}
	var all []edge
	for from, tos := range a.edges {
		for to, pos := range tos {
			all = append(all, edge{from, to, pos})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].pos < all[j].pos })
	for _, e := range all {
		if e.from == e.to {
			gp.Reportf(e.pos, "lock %s is acquired while already held (self-deadlock on a non-reentrant mutex)", a.name(e.from))
			continue
		}
		if hop := a.firstHop(e.to, e.from); hop != nil {
			gp.Reportf(e.pos, "lock-order cycle: %s is acquired while %s is held here, but %s is acquired while %s is held at %s",
				a.name(e.to), a.name(e.from),
				a.name(hop), a.name(e.to),
				a.prog.Fset.Position(a.edges[e.to][hop]))
		}
	}
}

// firstHop returns the first lock after src on a shortest edge path from
// src to dst, or nil when dst is unreachable. Ties go to the edge acquired
// earliest in the source.
func (a *analysis) firstHop(src, dst types.Object) types.Object {
	via := map[types.Object]types.Object{src: nil} // lock -> first hop from src
	queue := []types.Object{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		next := make([]types.Object, 0, len(a.edges[cur]))
		for to := range a.edges[cur] {
			next = append(next, to)
		}
		sort.Slice(next, func(i, j int) bool { return a.edges[cur][next[i]] < a.edges[cur][next[j]] })
		for _, to := range next {
			if _, seen := via[to]; seen {
				continue
			}
			hop := via[cur]
			if hop == nil {
				hop = to
			}
			if to == dst {
				return hop
			}
			via[to] = hop
			queue = append(queue, to)
		}
	}
	return nil
}

func (a *analysis) name(obj types.Object) string {
	if n, ok := a.names[obj]; ok {
		return n
	}
	return obj.Name()
}

// render prints an expression compactly for diagnostics.
func render(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "?"
	}
	return buf.String()
}
