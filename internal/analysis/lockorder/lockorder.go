// Package lockorder builds the whole-program lock-acquisition-order
// graph and reports cycles. If one goroutine takes A then B while
// another takes B then A, the schedule that interleaves them deadlocks;
// the static order graph catches this before any schedule does.
//
// Locks are identified by their declared object (the struct field or
// package variable), so every instance of `shard.mu` is one node —
// the instance-abstracted order is what the runtime's fine-grained
// mutexes (aggregator, deques, connection tables, vertex cache) must
// agree on. Held sets are propagated flow-sensitively over each
// function's CFG (may-held union join, the same discipline as
// lockheld), and acquisition summaries propagate through static calls
// to a fixed point, so an edge A→B is recorded whether B is locked
// directly under A or three helpers deep. Goroutine spawns and function
// literals do not extend the caller's ordering: a spawned body
// acquires on its own stack.
//
// Reported shapes: a self-edge (re-acquiring a held, non-reentrant
// mutex) and each edge that closes a directed cycle in the order
// graph. _test.go files are excluded.
package lockorder

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

var Analyzer = &framework.Analyzer{
	Name:      "lockorder",
	Doc:       "report cycles in the whole-program lock-acquisition-order graph (and re-acquisition of held mutexes)",
	Severity:  framework.SevError,
	RunGlobal: runGlobal,
}

// unit is one analyzable function body.
type unit struct {
	fn   ast.Node // *ast.FuncDecl or *ast.FuncLit
	pkg  *framework.Package
	decl *types.Func // nil for function literals
}

type analysis struct {
	gp    *framework.GlobalPass
	units []unit
	// acquired maps each declared function to every lock object a call
	// to it may acquire, transitively.
	acquired map[*types.Func]map[types.Object]bool
	// shielded marks call expressions that run on another goroutine
	// (spawned calls, calls inside nested function literals).
	shielded map[*ast.CallExpr]bool
	// names remembers a printable receiver for each lock object.
	names map[types.Object]string
	// edges: from -> to -> earliest acquisition position.
	edges map[types.Object]map[types.Object]token.Pos
}

func runGlobal(gp *framework.GlobalPass) error {
	a := &analysis{
		gp:       gp,
		acquired: map[*types.Func]map[types.Object]bool{},
		shielded: map[*ast.CallExpr]bool{},
		names:    map[types.Object]string{},
		edges:    map[types.Object]map[types.Object]token.Pos{},
	}
	a.collectUnits()
	a.computeSummaries()
	for _, u := range a.units {
		a.collectEdges(u)
	}
	a.reportCycles()
	return nil
}

func (a *analysis) collectUnits() {
	for _, pkg := range a.gp.Packages {
		for _, f := range pkg.Files {
			fname := a.gp.Fset.File(f.Pos()).Name()
			if strings.HasSuffix(fname, "_test.go") {
				continue
			}
			pkg := pkg
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						fn, _ := pkg.TypesInfo.Defs[n.Name].(*types.Func)
						a.units = append(a.units, unit{fn: n, pkg: pkg, decl: fn})
						a.markShielded(n.Body)
					}
				case *ast.FuncLit:
					a.units = append(a.units, unit{fn: n, pkg: pkg})
				}
				return true
			})
		}
	}
}

// markShielded records calls inside body that execute on another
// goroutine relative to body's own frame: spawned calls and everything
// inside nested function literals.
func (a *analysis) markShielded(body *ast.BlockStmt) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if c, ok := n.(*ast.CallExpr); ok {
			for _, anc := range stack {
				switch anc := anc.(type) {
				case *ast.FuncLit:
					a.shielded[c] = true
				case *ast.GoStmt:
					if anc.Call == c {
						a.shielded[c] = true
					}
				}
			}
		}
		stack = append(stack, n)
		return true
	})
}

// computeSummaries fixpoints the transitive acquisition sets of every
// declared function.
func (a *analysis) computeSummaries() {
	// Direct acquisitions (outside funclits and go statements).
	for _, u := range a.units {
		if u.decl == nil {
			continue
		}
		set := map[types.Object]bool{}
		body := u.fn.(*ast.FuncDecl).Body
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if es, ok := n.(*ast.ExprStmt); ok {
				if c, ok := es.X.(*ast.CallExpr); ok && !a.shielded[c] {
					if obj, op := a.lockOp(u.pkg.TypesInfo, c); obj != nil && op == opLock {
						set[obj] = true
					}
				}
			}
			return true
		})
		a.acquired[u.decl] = set
	}
	// Propagate through unshielded static calls.
	cg := a.gp.Prog.CallGraph()
	for changed := true; changed; {
		changed = false
		for fn, node := range cg.Nodes() {
			set := a.acquired[fn]
			if set == nil {
				continue
			}
			for _, e := range node.Calls {
				if e.Callee == nil || a.shielded[e.Site] {
					continue
				}
				for obj := range a.acquired[e.Callee] {
					if !set[obj] {
						set[obj] = true
						changed = true
					}
				}
			}
		}
	}
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// lockOp classifies c as a lock/unlock call on a sync.(RW)Mutex and
// resolves the mutex's declared object.
func (a *analysis) lockOp(info *types.Info, c *ast.CallExpr) (types.Object, lockOpKind) {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, opNone
	}
	var kind lockOpKind
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		kind = opLock
	case "Unlock", "RUnlock":
		kind = opUnlock
	default:
		return nil, opNone
	}
	var mobj types.Object
	if selInfo, ok := info.Selections[sel]; ok {
		mobj = selInfo.Obj()
	} else {
		mobj = info.Uses[sel.Sel]
	}
	if mobj == nil || mobj.Pkg() == nil || mobj.Pkg().Path() != "sync" {
		return nil, opNone
	}
	obj := receiverObj(info, sel.X)
	if obj == nil {
		return nil, opNone
	}
	if _, ok := a.names[obj]; !ok {
		a.names[obj] = render(a.gp.Fset, sel.X)
	}
	return obj, kind
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

// --- per-function dataflow -------------------------------------------

type heldMap map[types.Object]token.Pos

// lockFact pairs the two held approximations one solve computes. may is
// the union over paths ("held on some path in") and drives ordering
// edges between distinct locks. must is the intersection ("held on every
// path in") and gates self-edges: re-acquisition is a deadlock only when
// the lock is definitely still held, so loops that release-and-retake an
// instance-abstracted lock (hopping from shard to shard) do not trip it. A
// nil must map means the block is not yet reached — the identity of the
// intersection join — and is distinct from an empty (reached, nothing
// definitely held) map.
type lockFact struct {
	may  heldMap
	must heldMap
}

type heldLattice struct{}

func (heldLattice) Bottom() framework.Fact { return lockFact{} }

func (heldLattice) Join(x, y framework.Fact) framework.Fact {
	xf, yf := x.(lockFact), y.(lockFact)
	return lockFact{
		may:  joinMay(xf.may, yf.may),
		must: joinMust(xf.must, yf.must),
	}
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
			if q < p {
				p = q
			}
			out[k] = p
		}
	}
	return out
}

func (heldLattice) Equal(x, y framework.Fact) bool {
	xf, yf := x.(lockFact), y.(lockFact)
	return equalMap(xf.may, yf.may) && equalMap(xf.must, yf.must)
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

func (a *analysis) collectEdges(u unit) {
	cfg := a.gp.Prog.CFG(u.fn)
	info := u.pkg.TypesInfo
	transfer := func(b *framework.Block, in framework.Fact, record bool) framework.Fact {
		f := in.(lockFact)
		for _, n := range b.Nodes {
			switch n := n.(type) {
			case *ast.ExprStmt:
				c, ok := n.X.(*ast.CallExpr)
				if !ok {
					a.callEdges(info, n, f, record)
					continue
				}
				obj, op := a.lockOp(info, c)
				switch op {
				case opLock:
					if record {
						for h := range f.may {
							if h == obj {
								// Re-acquisition is a self-deadlock only
								// when the lock is held on EVERY path in.
								if _, definite := f.must[obj]; !definite {
									continue
								}
							}
							a.addEdge(h, obj, c.Pos())
						}
					}
					f = lockFact{may: addHeld(f.may, obj, c.Pos()), must: addHeld(mustReached(f.must), obj, c.Pos())}
				case opUnlock:
					f = lockFact{may: dropHeld(f.may, obj), must: dropHeld(f.must, obj)}
				default:
					a.callEdges(info, n, f, record)
				}
			case *ast.DeferStmt:
				// Deferred unlocks release at exit; deferred lock
				// acquisitions are not a repo idiom. Arguments only.
				for _, arg := range n.Call.Args {
					a.callEdges(info, arg, f, record)
				}
			case *ast.GoStmt:
				for _, arg := range n.Call.Args {
					a.callEdges(info, arg, f, record)
				}
			default:
				a.callEdges(info, n, f, record)
			}
		}
		return f
	}
	sol := cfg.Forward(heldLattice{}, lockFact{must: heldMap{}}, func(b *framework.Block, in framework.Fact) framework.Fact {
		return transfer(b, in, false)
	})
	for _, b := range cfg.Blocks {
		transfer(b, sol.In[b], true)
	}
}

// addHeld returns m plus obj at the earliest of pos and any prior entry.
func addHeld(m heldMap, obj types.Object, pos token.Pos) heldMap {
	out := make(heldMap, len(m)+1)
	for k, p := range m {
		out[k] = p
	}
	if p, ok := out[obj]; !ok || pos < p {
		out[obj] = pos
	}
	return out
}

func dropHeld(m heldMap, obj types.Object) heldMap {
	if m == nil {
		return nil
	}
	out := make(heldMap, len(m))
	for k, p := range m {
		if k != obj {
			out[k] = p
		}
	}
	return out
}

// mustReached normalizes a not-yet-reached (nil) must set to an empty
// reached one, so executing a statement marks the path live.
func mustReached(m heldMap) heldMap {
	if m == nil {
		return heldMap{}
	}
	return m
}

// callEdges adds summary edges for unshielded static calls inside n
// while locks are held. Self-edges through a summary obey the same
// must-held gate as direct re-acquisition.
func (a *analysis) callEdges(info *types.Info, n ast.Node, f lockFact, record bool) {
	if !record || len(f.may) == 0 {
		return
	}
	framework.InspectShallow(n, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		if _, ok := m.(*ast.GoStmt); ok {
			return false
		}
		if c, ok := m.(*ast.CallExpr); ok && !a.shielded[c] {
			if callee := framework.StaticCallee(info, c); callee != nil {
				for obj := range a.acquired[callee] {
					for h := range f.may {
						if h == obj {
							if _, definite := f.must[obj]; !definite {
								continue
							}
						}
						a.addEdge(h, obj, c.Pos())
					}
				}
			}
		}
		return true
	})
}

func (a *analysis) addEdge(from, to types.Object, pos token.Pos) {
	m := a.edges[from]
	if m == nil {
		m = map[types.Object]token.Pos{}
		a.edges[from] = m
	}
	if p, ok := m[to]; !ok || pos < p {
		m[to] = pos
	}
}

// reportCycles reports every self-edge and every edge that closes a
// directed cycle, once per ordered lock pair.
func (a *analysis) reportCycles() {
	type flatEdge struct {
		from, to types.Object
		pos      token.Pos
	}
	var all []flatEdge
	for from, tos := range a.edges {
		for to, pos := range tos {
			all = append(all, flatEdge{from, to, pos})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].pos < all[j].pos })
	for _, e := range all {
		if e.from == e.to {
			a.gp.Reportf(e.pos, "lock %s is acquired while already held (self-deadlock on a non-reentrant mutex)", a.name(e.from))
			continue
		}
		if path := a.path(e.to, e.from); path != nil {
			// path[0] is the first hop of the return route to e.from.
			back := a.edges[e.to][path[0]]
			a.gp.Reportf(e.pos, "lock-order cycle: %s is acquired while %s is held here, but %s is acquired while %s is held at %s",
				a.name(e.to), a.name(e.from),
				a.name(path[0]), a.name(e.to),
				a.gp.Fset.Position(back))
		}
	}
}

// path returns a shortest edge path from src to dst (excluding src) or
// nil; used to exhibit the counter-ordering of a cycle.
func (a *analysis) path(src, dst types.Object) []types.Object {
	type qe struct {
		obj  types.Object
		prev *qe
	}
	seen := map[types.Object]bool{src: true}
	queue := []*qe{{obj: src}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for next := range a.edges[cur.obj] {
			if seen[next] {
				continue
			}
			node := &qe{obj: next, prev: cur}
			if next == dst {
				// Reconstruct, dropping src.
				var rev []types.Object
				for n := node; n.prev != nil; n = n.prev {
					rev = append(rev, n.obj)
				}
				out := make([]types.Object, 0, len(rev))
				for i := len(rev) - 1; i >= 0; i-- {
					out = append(out, rev[i])
				}
				return out
			}
			seen[next] = true
			queue = append(queue, node)
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

func render(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return fmt.Sprintf("%v", e)
	}
	return buf.String()
}
