package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoFunctionStyleAtomics keeps the typed sync/atomic values (atomic.Int64,
// atomic.Bool, ...) the module's only atomics: a plain access to one does not
// compile, so no word is accessed atomically in one place and plainly in
// another. It fails on any call through a file's name for sync/atomic
// (atomic.AddInt64, atomic.LoadPointer, ...), tests included. Like the go
// tool, it skips testdata, "." and "_" directories and nested modules.
func TestNoFunctionStyleAtomics(t *testing.T) {
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value != `"sync/atomic"` {
				continue
			}
			local := "atomic"
			if imp.Name != nil {
				local = imp.Name.Name
			}
			if local == "." {
				t.Errorf("%s: dot import of sync/atomic", fset.Position(imp.Pos()))
			}
			ast.Inspect(f, func(n ast.Node) bool {
				// A package name resolves to no object in the file; a local
				// variable that shadows it does.
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == local && x.Obj == nil {
							t.Errorf("%s: %s.%s: use a typed sync/atomic value", fset.Position(call.Pos()), local, sel.Sel.Name)
						}
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
