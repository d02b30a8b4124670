package dpx10_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestPublicSurface pins the package's options and entry points to written
// lists, so adding or removing either is a visible change to this test. An
// option is an exported function returning Option[T] or UntypedOption; an
// entry point is an exported function taking an App[T].
func TestPublicSurface(t *testing.T) {
	wantOptions := []string{
		"CacheSize", "MaxActiveJobs", "Places", "RestoreRemote", "Threads",
		"WithChaos", "WithCodec", "WithDist", "WithEvents", "WithHeartbeat",
		"WithMetrics", "WithMetricsObserver", "WithReliableDelivery",
		"WithSnapshotRecovery", "WithSpans", "WithSpill", "WithStrategy",
		"WithTileSize",
	}
	wantEntries := []string{"Launch", "Run", "Submit"}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var options, entries []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() {
				continue
			}
			if res := fn.Type.Results; res != nil && len(res.List) == 1 {
				if name := typeName(res.List[0].Type); name == "Option" || name == "UntypedOption" {
					options = append(options, fn.Name.Name)
				}
			}
			for _, p := range fn.Type.Params.List {
				if typeName(p.Type) == "App" {
					entries = append(entries, fn.Name.Name)
					break
				}
			}
		}
	}
	slices.Sort(options)
	slices.Sort(entries)
	if !slices.Equal(options, wantOptions) {
		t.Errorf("option constructors = %v (%d), want %v (%d)", options, len(options), wantOptions, len(wantOptions))
	}
	if !slices.Equal(entries, wantEntries) {
		t.Errorf("entry points = %v, want %v", entries, wantEntries)
	}
}

// typeName returns the name of a type expression, stripped of type
// arguments: "Option" for Option[T].
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	}
	return ""
}
