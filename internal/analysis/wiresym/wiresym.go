// Package wiresym checks encode/decode symmetry of the wire protocol.
// Every message kind has an encoder (the Send/Call site that builds the
// payload) and a decoder (the handler registered for the kind); a field
// added on one side but not the other is a protocol bug that surfaces
// as a truncation error — or worse, silently misparsed fields — only
// when that message kind actually crosses the wire under the right
// configuration.
//
// The analyzer abstracts both sides to a shape: a sequence of tokens
// u8, u32, u64, id, uvarint, varint, iddelta, codec, bytes, with rep(...)
// for loop-carried repetition and opt(...) for conditional fields.
// Encoder shapes are extracted by tracking []byte builder chains
// (putU32/putU64/putID/putIDDelta, binary.LittleEndian.Append*,
// binary.AppendUvarint/AppendVarint, append, Codec.Encode, and local
// helper functions summarized to a fixed point) flow-insensitively in
// statement order, including through helpers like appendFetchReq.
// Decoder shapes come from the handler body's reader method calls
// (r.u8/u32/u64/id/uvarint/varint/idDelta/rest), Codec.Decode calls, and
// decode*/split* helper summaries. A kind is checked only when both sides
// yield a non-empty shape; sites with non-constant kinds, nil payloads,
// or builders the extractor cannot classify (e.g. buffers assembled
// across function boundaries) are skipped rather than guessed at.
//
// Functions paired by name — encodeX and decodeX in one package — are
// additionally checked against each other even when no call site uses
// them, which covers formats built incrementally elsewhere (the
// aggregated decrement batch).
package wiresym

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/dpx10/dpx10/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name:      "wiresym",
	Doc:       "report wire-kind payloads whose encoder and decoder shapes disagree",
	Severity:  framework.SevError,
	RunGlobal: runGlobal,
}

// sum is an extracted shape: tokens plus whether extraction succeeded.
type sum struct {
	toks []string
	ok   bool
}

func (s sum) usable() bool { return s.ok && len(s.toks) > 0 }

func (s sum) String() string { return strings.Join(s.toks, " ") }

type handler struct {
	fn   *types.Func // nil when the handler is a returned closure
	body *ast.BlockStmt
	pkg  *framework.Package
	name string
}

type site struct {
	kind     uint64
	kindName string
	shape    sum
	pos      token.Pos
}

type extractor struct {
	gp      *framework.GlobalPass
	declOf  map[*types.Func]*ast.FuncDecl
	pkgOf   map[*types.Func]*framework.Package
	encSums map[*types.Func]sum
	encBusy map[*types.Func]bool
	decSums map[*types.Func]sum
	decBusy map[*types.Func]bool

	handlers map[uint64][]handler
	sites    []site
}

func runGlobal(gp *framework.GlobalPass) error {
	x := &extractor{
		gp:       gp,
		declOf:   map[*types.Func]*ast.FuncDecl{},
		pkgOf:    map[*types.Func]*framework.Package{},
		encSums:  map[*types.Func]sum{},
		encBusy:  map[*types.Func]bool{},
		decSums:  map[*types.Func]sum{},
		decBusy:  map[*types.Func]bool{},
		handlers: map[uint64][]handler{},
	}
	x.collect()
	x.checkSites()
	x.checkNamedPairs()
	return nil
}

func (x *extractor) collect() {
	// Index declarations first so summaries resolve across files.
	for _, pkg := range x.gp.Packages {
		for _, f := range pkg.Files {
			if x.isTestFile(f) {
				continue
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					if fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
						x.declOf[fn] = fd
						x.pkgOf[fn] = pkg
					}
				}
			}
		}
	}
	// Then walk every function body for Handle registrations and
	// transport sites.
	for _, pkg := range x.gp.Packages {
		for _, f := range pkg.Files {
			if x.isTestFile(f) {
				continue
			}
			pkg := pkg
			ast.Inspect(f, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					x.handleReg(pkg, c)
				}
				if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil {
					w := &encWalker{x: x, pkg: pkg, vars: map[types.Object]sum{}, capture: true}
					w.block(fd.Body)
				}
				if fl, ok := n.(*ast.FuncLit); ok {
					w := &encWalker{x: x, pkg: pkg, vars: map[types.Object]sum{}, capture: true}
					w.block(fl.Body)
				}
				return true
			})
		}
	}
}

func (x *extractor) isTestFile(f *ast.File) bool {
	return strings.HasSuffix(x.gp.Fset.File(f.Pos()).Name(), "_test.go")
}

// handleReg records a `tr.Handle(kindX, handlerY)` registration.
func (x *extractor) handleReg(pkg *framework.Package, c *ast.CallExpr) {
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Handle" || len(c.Args) != 2 {
		return
	}
	kindVal, kindName, ok := x.constKind(pkg, c.Args[0])
	if !ok {
		return
	}
	h, ok := x.resolveHandler(pkg, c.Args[1])
	if !ok {
		return
	}
	_ = kindName
	x.handlers[kindVal] = append(x.handlers[kindVal], h)
}

func (x *extractor) constKind(pkg *framework.Package, e ast.Expr) (uint64, string, bool) {
	tv, ok := pkg.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, "", false
	}
	v, ok := constant.Uint64Val(tv.Value)
	if !ok {
		return 0, "", false
	}
	name := ""
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	}
	return v, name, true
}

// resolveHandler maps the handler argument to a body: a method value or
// function identifier resolves to its declaration; a call expression
// (handler factory) resolves to the function literal it returns.
func (x *extractor) resolveHandler(pkg *framework.Package, e ast.Expr) (handler, bool) {
	e = ast.Unparen(e)
	if c, ok := e.(*ast.CallExpr); ok {
		callee := framework.StaticCallee(pkg.TypesInfo, c)
		decl := x.declOf[callee]
		if decl == nil {
			return handler{}, false
		}
		var lit *ast.FuncLit
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if ret, ok := n.(*ast.ReturnStmt); ok && len(ret.Results) == 1 && lit == nil {
				if fl, ok := ret.Results[0].(*ast.FuncLit); ok {
					lit = fl
				}
			}
			return true
		})
		if lit == nil {
			return handler{}, false
		}
		return handler{body: lit.Body, pkg: x.pkgOf[callee], name: callee.Name()}, true
	}
	var fn *types.Func
	switch e := e.(type) {
	case *ast.Ident:
		fn, _ = pkg.TypesInfo.Uses[e].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := pkg.TypesInfo.Selections[e]; ok {
			fn, _ = sel.Obj().(*types.Func)
		} else {
			fn, _ = pkg.TypesInfo.Uses[e.Sel].(*types.Func)
		}
	}
	if fn == nil {
		return handler{}, false
	}
	if g := fn.Origin(); g != nil {
		fn = g
	}
	decl := x.declOf[fn]
	if decl == nil {
		return handler{}, false
	}
	return handler{fn: fn, body: decl.Body, pkg: x.pkgOf[fn], name: fn.Name()}, true
}

// --- comparison and reporting ----------------------------------------

func (x *extractor) checkSites() {
	sort.Slice(x.sites, func(i, j int) bool { return x.sites[i].pos < x.sites[j].pos })
	for _, s := range x.sites {
		if !s.shape.usable() {
			continue
		}
		for _, h := range x.handlers[s.kind] {
			dec := x.handlerShape(h)
			if !dec.usable() {
				continue
			}
			if !shapesMatch(s.shape.toks, dec.toks) {
				kn := s.kindName
				if kn == "" {
					kn = "kind"
				}
				x.gp.Reportf(s.pos, "wire kind %s: encoder builds [%s] but handler %s decodes [%s]",
					kn, s.shape, h.name, dec)
			}
		}
	}
}

func (x *extractor) handlerShape(h handler) sum {
	if h.fn != nil {
		return x.decSummary(h.fn)
	}
	toks, ok := x.walkDecBlock(h.pkg, h.body)
	return sum{toks, ok}
}

// checkNamedPairs compares encodeX against decodeX in the same package.
func (x *extractor) checkNamedPairs() {
	byPkg := map[*framework.Package]map[string]*types.Func{}
	for fn, pkg := range x.pkgOf {
		m := byPkg[pkg]
		if m == nil {
			m = map[string]*types.Func{}
			byPkg[pkg] = m
		}
		m[fn.Name()] = fn
	}
	var encs []*types.Func
	for _, m := range byPkg {
		for name, fn := range m {
			if strings.HasPrefix(name, "encode") && m["decode"+name[len("encode"):]] != nil {
				encs = append(encs, fn)
			}
		}
	}
	sort.Slice(encs, func(i, j int) bool { return encs[i].Pos() < encs[j].Pos() })
	for _, enc := range encs {
		decName := "decode" + enc.Name()[len("encode"):]
		dec := byPkg[x.pkgOf[enc]][decName]
		es, ds := x.encSummary(enc), x.decSummary(dec)
		if es.usable() && ds.usable() && !shapesMatch(es.toks, ds.toks) {
			x.gp.Reportf(x.declOf[enc].Name.Pos(),
				"encode/decode pair %s/%s disagree: %s builds [%s] but %s reads [%s]",
				enc.Name(), decName, enc.Name(), es, decName, ds)
		}
	}
}

// shapesMatch compares token sequences; a `bytes` token (raw tail)
// absorbs whatever the other side has from that point on.
func shapesMatch(enc, dec []string) bool {
	n := len(enc)
	if len(dec) < n {
		n = len(dec)
	}
	for i := 0; i < n; i++ {
		if enc[i] == "bytes" || dec[i] == "bytes" {
			return true
		}
		if enc[i] != dec[i] {
			return false
		}
	}
	return len(enc) == len(dec)
}

// --- decoder extraction ----------------------------------------------

func (x *extractor) decSummary(fn *types.Func) sum {
	if s, ok := x.decSums[fn]; ok {
		return s
	}
	if x.decBusy[fn] {
		return sum{}
	}
	x.decBusy[fn] = true
	defer func() { x.decBusy[fn] = false }()
	decl := x.declOf[fn]
	if decl == nil {
		return sum{}
	}
	toks, ok := x.walkDecBlock(x.pkgOf[fn], decl.Body)
	s := sum{toks, ok}
	x.decSums[fn] = s
	return s
}

func (x *extractor) walkDecBlock(pkg *framework.Package, body *ast.BlockStmt) ([]string, bool) {
	var toks []string
	for _, s := range body.List {
		t, ok := x.walkDecStmt(pkg, s)
		if !ok {
			return nil, false
		}
		toks = append(toks, t...)
	}
	return toks, true
}

func (x *extractor) walkDecStmt(pkg *framework.Package, s ast.Stmt) ([]string, bool) {
	wrap := func(kind string, inner []string, ok bool) ([]string, bool) {
		if !ok {
			return nil, false
		}
		if len(inner) == 0 {
			return nil, true
		}
		out := append([]string{kind}, inner...)
		return append(out, ")"), true
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return x.walkDecBlock(pkg, s)
	case *ast.LabeledStmt:
		return x.walkDecStmt(pkg, s.Stmt)
	case *ast.IfStmt:
		var toks []string
		if s.Init != nil {
			t, ok := x.walkDecStmt(pkg, s.Init)
			if !ok {
				return nil, false
			}
			toks = append(toks, t...)
		}
		toks = append(toks, x.decExpr(pkg, s.Cond)...)
		bt, ok := x.walkDecBlock(pkg, s.Body)
		if !ok {
			return nil, false
		}
		then, ok := wrap("opt(", bt, true)
		if !ok {
			return nil, false
		}
		toks = append(toks, then...)
		if s.Else != nil {
			et, ok := x.walkDecStmt(pkg, s.Else)
			if !ok {
				return nil, false
			}
			if bs, isBlock := s.Else.(*ast.BlockStmt); isBlock {
				_ = bs
				et, ok = wrap("opt(", et, true)
				if !ok {
					return nil, false
				}
			}
			toks = append(toks, et...)
		}
		return toks, true
	case *ast.ForStmt:
		var toks []string
		if s.Init != nil {
			t, ok := x.walkDecStmt(pkg, s.Init)
			if !ok {
				return nil, false
			}
			toks = append(toks, t...)
		}
		if s.Cond != nil {
			toks = append(toks, x.decExpr(pkg, s.Cond)...)
		}
		inner, ok := x.walkDecBlock(pkg, s.Body)
		if !ok {
			return nil, false
		}
		if s.Post != nil {
			pt, ok := x.walkDecStmt(pkg, s.Post)
			if !ok {
				return nil, false
			}
			inner = append(inner, pt...)
		}
		rep, ok := wrap("rep(", inner, true)
		if !ok {
			return nil, false
		}
		return append(toks, rep...), true
	case *ast.RangeStmt:
		toks := x.decExpr(pkg, s.X)
		inner, ok := x.walkDecBlock(pkg, s.Body)
		if !ok {
			return nil, false
		}
		rep, ok := wrap("rep(", inner, true)
		if !ok {
			return nil, false
		}
		return append(toks, rep...), true
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var body *ast.BlockStmt
		switch s := s.(type) {
		case *ast.SwitchStmt:
			body = s.Body
		case *ast.TypeSwitchStmt:
			body = s.Body
		case *ast.SelectStmt:
			body = s.Body
		}
		var toks []string
		for _, cl := range body.List {
			var stmts []ast.Stmt
			switch cl := cl.(type) {
			case *ast.CaseClause:
				stmts = cl.Body
			case *ast.CommClause:
				stmts = cl.Body
			}
			var inner []string
			for _, cs := range stmts {
				t, ok := x.walkDecStmt(pkg, cs)
				if !ok {
					return nil, false
				}
				inner = append(inner, t...)
			}
			ot, ok := wrap("opt(", inner, true)
			if !ok {
				return nil, false
			}
			toks = append(toks, ot...)
		}
		return toks, true
	default:
		return x.decExpr(pkg, s), true
	}
}

// decExpr collects reader ops and decode-helper splices from one
// non-compound statement or expression, in source order.
func (x *extractor) decExpr(pkg *framework.Package, n ast.Node) []string {
	var toks []string
	if n == nil {
		return nil
	}
	framework.InspectShallow(n, func(m ast.Node) bool {
		c, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tok, ok := x.readerOp(pkg, c); ok {
			toks = append(toks, tok)
			return tok != "codec" // Decode args (r.rest()) are part of the codec read
		}
		if callee := framework.StaticCallee(pkg.TypesInfo, c); callee != nil {
			name := callee.Name()
			if strings.HasPrefix(name, "decode") || strings.HasPrefix(name, "split") {
				if g := callee.Origin(); g != nil {
					callee = g
				}
				if s := x.decSummary(callee); s.usable() {
					toks = append(toks, s.toks...)
					return false
				}
			}
		}
		return true
	})
	return toks
}

// readerOp classifies a call as a primitive wire read: a method on a
// type named `reader` (u8/u32/u64/id/uvarint/varint/idDelta/rest) or a
// Codec-shaped Decode.
func (x *extractor) readerOp(pkg *framework.Package, c *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	info := pkg.TypesInfo
	if selInfo, ok := info.Selections[sel]; ok && selInfo.Kind() == types.MethodVal {
		recv := selInfo.Recv()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := recv.(*types.Named); ok && named.Obj().Name() == "reader" {
			switch sel.Sel.Name {
			case "u8", "u32", "u64", "id", "uvarint", "varint":
				return sel.Sel.Name, true
			case "idDelta":
				return "iddelta", true
			case "rest":
				return "bytes", true
			}
		}
		if sel.Sel.Name == "Decode" {
			if sig, ok := selInfo.Obj().Type().(*types.Signature); ok &&
				sig.Params().Len() == 1 && isByteSlice(sig.Params().At(0).Type()) &&
				sig.Results().Len() == 3 {
				return "codec", true
			}
		}
	}
	return "", false
}

// --- encoder extraction ----------------------------------------------

// encWalker tracks []byte builder variables through one function body in
// statement order, capturing transport Send/Call sites as it goes.
type encWalker struct {
	x       *extractor
	pkg     *framework.Package
	vars    map[types.Object]sum
	capture bool  // record transport sites (off while summarizing helpers)
	returns []sum // shapes at each `return <[]byte>` (summary mode)
}

func (x *extractor) encSummary(fn *types.Func) sum {
	if s, ok := x.encSums[fn]; ok {
		return s
	}
	if x.encBusy[fn] {
		return sum{}
	}
	x.encBusy[fn] = true
	defer func() { x.encBusy[fn] = false }()
	decl := x.declOf[fn]
	if decl == nil {
		x.encSums[fn] = sum{}
		return sum{}
	}
	w := &encWalker{x: x, pkg: x.pkgOf[fn], vars: map[types.Object]sum{}}
	// The builder convention: the first []byte parameter is the base the
	// function appends to; its summary is the delta relative to it.
	if decl.Type.Params != nil && len(decl.Type.Params.List) > 0 {
		first := decl.Type.Params.List[0]
		if len(first.Names) > 0 {
			if obj := x.pkgOf[fn].TypesInfo.Defs[first.Names[0]]; obj != nil && isByteSlice(obj.Type()) {
				w.vars[obj] = sum{nil, true}
			}
		}
	}
	w.block(decl.Body)
	var s sum
	for i, r := range w.returns {
		if !r.ok {
			s = sum{}
			break
		}
		if i == 0 {
			s = r
			continue
		}
		if !shapesEqual(s.toks, r.toks) {
			s = sum{}
			break
		}
	}
	x.encSums[fn] = s
	return s
}

func shapesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (w *encWalker) block(b *ast.BlockStmt) {
	for _, s := range b.List {
		w.stmt(s)
	}
}

func (w *encWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.block(s)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.AssignStmt:
		w.assign(s)
	case *ast.DeclStmt:
		w.decl(s)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.captureIn(s.Cond)
		w.branch(s.Body, "opt(")
		if s.Else != nil {
			if bs, ok := s.Else.(*ast.BlockStmt); ok {
				w.branch(bs, "opt(")
			} else {
				w.stmt(s.Else)
			}
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.captureIn(s.Cond)
		pre := w.marks()
		w.block(s.Body)
		if s.Post != nil {
			w.stmt(s.Post)
		}
		w.wrapGrowth(pre, "rep(")
	case *ast.RangeStmt:
		w.captureIn(s.X)
		pre := w.marks()
		w.block(s.Body)
		w.wrapGrowth(pre, "rep(")
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var body *ast.BlockStmt
		switch s := s.(type) {
		case *ast.SwitchStmt:
			if s.Init != nil {
				w.stmt(s.Init)
			}
			body = s.Body
		case *ast.TypeSwitchStmt:
			body = s.Body
		case *ast.SelectStmt:
			body = s.Body
		}
		for _, cl := range body.List {
			var stmts []ast.Stmt
			switch cl := cl.(type) {
			case *ast.CaseClause:
				stmts = cl.Body
			case *ast.CommClause:
				stmts = cl.Body
			}
			pre := w.marks()
			for _, cs := range stmts {
				w.stmt(cs)
			}
			w.wrapGrowth(pre, "opt(")
		}
	case *ast.ReturnStmt:
		w.captureIn(s)
		if len(s.Results) > 0 && w.isByteExpr(s.Results[0]) {
			w.returns = append(w.returns, w.eval(s.Results[0]))
		}
	case *ast.GoStmt:
		// Spawned work builds its own payloads; its function literal is
		// walked as a separate unit.
	default:
		w.captureIn(s)
	}
}

func (w *encWalker) isByteExpr(e ast.Expr) bool {
	tv, ok := w.pkg.TypesInfo.Types[e]
	return ok && tv.Type != nil && isByteSlice(tv.Type)
}

// marks snapshots each tracked variable's token count before a branch
// or loop body, so growth can be wrapped afterwards.
func (w *encWalker) marks() map[types.Object]int {
	m := make(map[types.Object]int, len(w.vars))
	for obj, s := range w.vars {
		if s.ok {
			m[obj] = len(s.toks)
		}
	}
	return m
}

func (w *encWalker) branch(b *ast.BlockStmt, kind string) {
	pre := w.marks()
	w.block(b)
	w.wrapGrowth(pre, kind)
}

func (w *encWalker) wrapGrowth(pre map[types.Object]int, kind string) {
	for obj, n := range pre {
		s, ok := w.vars[obj]
		if !ok || !s.ok || len(s.toks) <= n {
			continue
		}
		head := append([]string{}, s.toks[:n]...)
		head = append(head, kind)
		head = append(head, s.toks[n:]...)
		head = append(head, ")")
		w.vars[obj] = sum{head, true}
	}
}

func (w *encWalker) assign(s *ast.AssignStmt) {
	for _, r := range s.Rhs {
		w.captureIn(r)
	}
	if len(s.Lhs) == len(s.Rhs) {
		// Evaluate all RHS against the pre-assignment state.
		shapes := make([]sum, len(s.Rhs))
		relevant := false
		for i, l := range s.Lhs {
			if w.lhsObj(l) != nil {
				shapes[i] = w.eval(s.Rhs[i])
				relevant = true
			}
		}
		if !relevant {
			return
		}
		for i, l := range s.Lhs {
			if obj := w.lhsObj(l); obj != nil {
				w.vars[obj] = shapes[i]
			}
		}
		return
	}
	// Multi-value from a single call: any []byte target becomes unknown.
	for _, l := range s.Lhs {
		if obj := w.lhsObj(l); obj != nil {
			w.vars[obj] = sum{}
		}
	}
}

func (w *encWalker) decl(s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			obj := w.pkg.TypesInfo.Defs[name]
			if obj == nil || !isByteSlice(obj.Type()) {
				continue
			}
			if i < len(vs.Values) {
				w.captureIn(vs.Values[i])
				w.vars[obj] = w.eval(vs.Values[i])
			} else {
				w.vars[obj] = sum{nil, true} // var buf []byte
			}
		}
	}
}

// lhsObj resolves an assignment target to a tracked []byte object:
// plain identifiers and field selections (sc.out).
func (w *encWalker) lhsObj(l ast.Expr) types.Object {
	info := w.pkg.TypesInfo
	switch l := ast.Unparen(l).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return nil
		}
		obj := info.Defs[l]
		if obj == nil {
			obj = info.Uses[l]
		}
		if obj != nil && isByteSlice(obj.Type()) {
			return obj
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[l]; ok && sel.Kind() == types.FieldVal {
			if obj := sel.Obj(); isByteSlice(obj.Type()) {
				return obj
			}
		}
	}
	return nil
}

// eval computes the shape of a []byte-building expression.
func (w *encWalker) eval(e ast.Expr) sum {
	info := w.pkg.TypesInfo
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "nil" && info.Uses[e] == nil {
			return sum{nil, true}
		}
		if obj := info.Uses[e]; obj != nil {
			if s, ok := w.vars[obj]; ok {
				return s
			}
		}
		return sum{}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if s, ok := w.vars[sel.Obj()]; ok {
				return s
			}
		}
		return sum{}
	case *ast.SliceExpr:
		// v[:0] resets the builder regardless of v's prior shape.
		if e.High != nil {
			if tv, ok := info.Types[e.High]; ok && tv.Value != nil {
				if n, ok := constant.Uint64Val(tv.Value); ok && n == 0 {
					return sum{nil, true}
				}
			}
		}
		return sum{}
	case *ast.CompositeLit:
		if tv, ok := info.Types[e]; ok && isByteSlice(tv.Type) {
			toks := make([]string, len(e.Elts))
			for i := range e.Elts {
				toks[i] = "u8"
			}
			return sum{toks, true}
		}
		return sum{}
	case *ast.CallExpr:
		return w.evalCall(e)
	}
	return sum{}
}

func (w *encWalker) evalCall(c *ast.CallExpr) sum {
	info := w.pkg.TypesInfo
	if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok && info.Uses[id] == nil {
		switch id.Name {
		case "make":
			return sum{nil, true}
		}
	}
	if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
			base := w.eval(c.Args[0])
			if !base.ok {
				return sum{}
			}
			toks := append([]string{}, base.toks...)
			if c.Ellipsis.IsValid() {
				return sum{append(toks, "bytes"), true}
			}
			for _, a := range c.Args[1:] {
				tv, ok := info.Types[a]
				if !ok || !isBasicKind(tv.Type, types.Uint8) {
					return sum{}
				}
				toks = append(toks, "u8")
			}
			return sum{toks, true}
		}
	}
	callee := framework.StaticCallee(info, c)
	if callee == nil {
		// A codec held as an interface (codec.Codec[T]) has no static
		// callee, but its Encode still appends one value.
		if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
			if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				if fn, ok := s.Obj().(*types.Func); ok && isCodecEncode(fn) {
					return w.withBase(c, "codec")
				}
			}
		}
		return sum{}
	}
	if g := callee.Origin(); g != nil {
		callee = g
	}
	if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "encoding/binary" {
		switch callee.Name() {
		case "AppendUint32":
			return w.withBase(c, "u32")
		case "AppendUint64":
			return w.withBase(c, "u64")
		case "AppendUvarint":
			return w.withBase(c, "uvarint")
		case "AppendVarint": // zig-zag
			return w.withBase(c, "varint")
		}
		return sum{}
	}
	switch callee.Name() {
	case "putID":
		return w.withBase(c, "id")
	case "putIDDelta": // two zig-zag varints relative to a base id
		return w.withBase(c, "iddelta")
	}
	if isCodecEncode(callee) {
		return w.withBase(c, "codec")
	}
	// Local builder helper: splice its summary onto the base argument.
	if s := w.x.encSummary(callee); s.ok {
		if len(c.Args) > 0 && w.isByteExpr(c.Args[0]) {
			base := w.eval(c.Args[0])
			if !base.ok {
				return sum{}
			}
			return sum{append(append([]string{}, base.toks...), s.toks...), true}
		}
		return s
	}
	return sum{}
}

// isCodecEncode reports a Codec-shaped Encode: (dst []byte, v T) []byte
// appends one value.
func isCodecEncode(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && fn.Name() == "Encode" &&
		sig.Params().Len() == 2 && isByteSlice(sig.Params().At(0).Type()) &&
		sig.Results().Len() == 1 && isByteSlice(sig.Results().At(0).Type())
}

// withBase evaluates arg0 and appends one token.
func (w *encWalker) withBase(c *ast.CallExpr, tok string) sum {
	if len(c.Args) == 0 {
		return sum{}
	}
	base := w.eval(c.Args[0])
	if !base.ok {
		return sum{}
	}
	return sum{append(append([]string{}, base.toks...), tok), true}
}

// captureIn records transport Send/Call sites found in a statement or
// expression, with the payload's shape at this program point.
func (w *encWalker) captureIn(n ast.Node) {
	if n == nil || !w.capture {
		return
	}
	framework.InspectShallow(n, func(m ast.Node) bool {
		c, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		verb, ok := transportVerb(w.pkg.TypesInfo, c)
		if !ok {
			return true
		}
		_ = verb
		kindVal, kindName, ok := w.x.constKind(w.pkg, c.Args[1])
		if !ok {
			return true
		}
		payload := ast.Unparen(c.Args[2])
		if id, isId := payload.(*ast.Ident); isId && id.Name == "nil" && w.pkg.TypesInfo.Uses[id] == nil {
			return true // no payload, nothing to check
		}
		w.x.sites = append(w.x.sites, site{
			kind:     kindVal,
			kindName: kindName,
			shape:    w.eval(payload),
			pos:      c.Pos(),
		})
		return true
	})
}

// transportVerb matches the transport.Transport verb signatures: Send
// (int, uint8, []byte) error and Call (int, uint8, []byte) ([]byte, error).
func transportVerb(info *types.Info, c *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !ok || len(c.Args) != 3 {
		return "", false
	}
	name := sel.Sel.Name
	if name != "Send" && name != "Call" {
		return "", false
	}
	var obj types.Object
	if selInfo, ok := info.Selections[sel]; ok {
		obj = selInfo.Obj()
	} else {
		obj = info.Uses[sel.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	p, r := sig.Params(), sig.Results()
	if p.Len() != 3 ||
		!isBasicKind(p.At(0).Type(), types.Int) ||
		!isBasicKind(p.At(1).Type(), types.Uint8) ||
		!isByteSlice(p.At(2).Type()) {
		return "", false
	}
	switch name {
	case "Send":
		if r.Len() == 1 && r.At(0).Type().String() == "error" {
			return name, true
		}
	case "Call":
		if r.Len() == 2 && isByteSlice(r.At(0).Type()) && r.At(1).Type().String() == "error" {
			return name, true
		}
	}
	return "", false
}

func isBasicKind(t types.Type, k types.BasicKind) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == k
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	return isBasicKind(s.Elem(), types.Uint8)
}
