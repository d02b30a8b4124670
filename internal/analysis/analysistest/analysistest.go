// Package analysistest runs framework analyzers over GOPATH-style test
// corpora and checks their diagnostics against // want comments, in the
// style of golang.org/x/tools/go/analysis/analysistest (re-implemented on
// the standard library; see internal/analysis/framework for why).
//
// A corpus lives under <testdata>/src/<path>/*.go. Expectations are
// attached to the offending line:
//
//	retained = payload // want `retains an alias`
//
// The want argument is a regular expression matched against the
// diagnostic message; several quoted regexps on one line expect several
// diagnostics. Lines without a want comment must produce no diagnostics.
package analysistest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/dpx10/dpx10/internal/analysis/framework"
)

// TestData returns the shared corpus root, internal/analysis/testdata,
// located relative to the calling test's source file.
func TestData() string {
	_, file, _, ok := runtime.Caller(1)
	if !ok {
		panic("analysistest: cannot locate caller")
	}
	return filepath.Join(filepath.Dir(file), "..", "testdata")
}

// Run loads each package path from testdata and applies a per-package
// analyzer to each, checking diagnostics against want comments.
func Run(t *testing.T, testdata string, a *framework.Analyzer, paths ...string) {
	t.Helper()
	if a.Global() {
		t.Fatalf("analysistest.Run: %s is a global analyzer; use RunGlobal", a.Name)
	}
	fset, pkgs := load(t, testdata, paths)
	diags, err := framework.Run(fset, pkgs, []*framework.Analyzer{a})
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	checkWants(t, fset, pkgs, diags)
}

// RunGlobal loads every listed package path from testdata, applies a
// global analyzer once over the whole set, and checks want comments
// across all of them.
func RunGlobal(t *testing.T, testdata string, a *framework.Analyzer, paths ...string) {
	t.Helper()
	if !a.Global() {
		t.Fatalf("analysistest.RunGlobal: %s is a per-package analyzer; use Run", a.Name)
	}
	fset, pkgs := load(t, testdata, paths)
	diags, err := framework.Run(fset, pkgs, []*framework.Analyzer{a})
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	checkWants(t, fset, pkgs, diags)
}

// --- corpus loading ---------------------------------------------------

// loader caches type-checked corpus packages and stdlib export data for
// one load call.
type loader struct {
	testdata string
	fset     *token.FileSet
	pkgs     map[string]*framework.Package // corpus path -> package
	exports  map[string]string             // stdlib path -> export file
}

func load(t *testing.T, testdata string, paths []string) (*token.FileSet, []*framework.Package) {
	t.Helper()
	ld := &loader{
		testdata: testdata,
		fset:     token.NewFileSet(),
		pkgs:     map[string]*framework.Package{},
	}
	var out []*framework.Package
	for _, path := range paths {
		pkg, err := ld.loadPath(path)
		if err != nil {
			t.Fatalf("analysistest: load %s: %v", path, err)
		}
		out = append(out, pkg)
	}
	return ld.fset, out
}

func (ld *loader) dirOf(path string) string {
	return filepath.Join(ld.testdata, "src", filepath.FromSlash(path))
}

func (ld *loader) loadPath(path string) (*framework.Package, error) {
	if pkg, ok := ld.pkgs[path]; ok {
		return pkg, nil
	}
	dir := ld.dirOf(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		af, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, af)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	conf := types.Config{Importer: &corpusImporter{ld: ld}}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, err
	}
	pkg := &framework.Package{
		Path:      path,
		Fset:      ld.fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}
	ld.pkgs[path] = pkg
	return pkg, nil
}

// corpusImporter resolves corpus-sibling imports from testdata/src and
// everything else from the build cache's stdlib export data.
type corpusImporter struct {
	ld  *loader
	gc  types.Importer
	err error
}

func (ci *corpusImporter) Import(path string) (*types.Package, error) {
	if _, err := os.Stat(ci.ld.dirOf(path)); err == nil {
		pkg, err := ci.ld.loadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if ci.gc == nil && ci.err == nil {
		ci.gc, ci.err = ci.ld.stdlibImporter()
	}
	if ci.err != nil {
		return nil, ci.err
	}
	return ci.gc.Import(path)
}

// stdlibImporter builds a gc-export-data importer covering the standard
// library, using `go list -export` (served from the build cache).
func (ld *loader) stdlibImporter() (types.Importer, error) {
	if ld.exports == nil {
		cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-json=ImportPath,Export", "std")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list std: %w\n%s", err, stderr.String())
		}
		ld.exports = map[string]string{}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			if p.Export != "" {
				ld.exports[p.ImportPath] = p.Export
			}
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		exp, ok := ld.exports[path]
		if !ok {
			return nil, fmt.Errorf("analysistest: no export data for %q", path)
		}
		return os.Open(exp)
	}
	return importer.ForCompiler(ld.fset, "gc", lookup), nil
}

// --- want matching ----------------------------------------------------

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile(`(?://|/\*)\s*want\s+(.*)`)

func collectWants(t *testing.T, fset *token.FileSet, pkgs []*framework.Package) []*want {
	t.Helper()
	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					for _, raw := range splitQuoted(t, pos, m[1]) {
						re, err := regexp.Compile(raw)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: raw})
					}
				}
			}
		}
	}
	return wants
}

// splitQuoted parses the sequence of Go-quoted strings after "want".
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	s = strings.TrimSuffix(s, "*/")
	for s != "" {
		s = strings.TrimSpace(s)
		if s == "" {
			break
		}
		q := s[0]
		if q != '"' && q != '`' {
			t.Fatalf("%s: malformed want expectation near %q", pos, s)
		}
		end := strings.IndexByte(s[1:], q)
		if end < 0 {
			t.Fatalf("%s: unterminated want string %q", pos, s)
		}
		lit := s[:end+2]
		unq, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: bad want string %s: %v", pos, lit, err)
		}
		out = append(out, unq)
		s = s[end+2:]
	}
	return out
}

func checkWants(t *testing.T, fset *token.FileSet, pkgs []*framework.Package, diags []framework.Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, pkgs)
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		var hit *want
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				hit = w
				break
			}
		}
		if hit == nil {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
			continue
		}
		hit.matched = true
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}
