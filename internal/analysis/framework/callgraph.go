package framework

// A static call graph over the loaded packages. Edges are resolved
// syntactically through go/types: direct calls of package functions and
// methods with a concrete receiver. Interface dispatch and function
// values resolve to nil callees — the analyzers that consume the graph
// (goroleak's summaries) treat unresolved calls conservatively at their
// own policy layer.

import (
	"go/ast"
	"go/types"
)

// CallEdge is one static call site inside a function.
type CallEdge struct {
	Site   *ast.CallExpr
	Callee *types.Func // nil when the target is dynamic
}

// CallNode is one declared function with its outgoing calls.
type CallNode struct {
	Fn    *types.Func
	Decl  *ast.FuncDecl
	Pkg   *Package
	Calls []CallEdge
}

// CallGraph indexes every function declared in the loaded packages.
type CallGraph struct {
	nodes map[*types.Func]*CallNode
}

// Node returns the call-graph node for fn, or nil when fn was not
// declared in a loaded package (e.g. stdlib callees).
func (g *CallGraph) Node(fn *types.Func) *CallNode {
	return g.nodes[fn]
}

// Nodes returns all call-graph nodes, in no particular order.
func (g *CallGraph) Nodes() map[*types.Func]*CallNode { return g.nodes }

// StaticCallee resolves the concrete *types.Func a call expression
// targets, or nil for dynamic calls (interface methods, func values)
// and builtins/conversions.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				// Interface method values are dynamic.
				if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
					return nil
				}
				obj = sel.Obj()
			}
		} else {
			obj = info.Uses[fun.Sel] // package-qualified function
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{nodes: make(map[*types.Func]*CallNode)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &CallNode{Fn: fn, Decl: fd, Pkg: pkg}
				// Calls inside nested function literals are attributed to
				// the enclosing declaration: for reachability-style
				// consumers that is the conservative choice.
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					node.Calls = append(node.Calls, CallEdge{
						Site:   call,
						Callee: StaticCallee(pkg.TypesInfo, call),
					})
					return true
				})
				g.nodes[fn] = node
			}
		}
	}
	return g
}
