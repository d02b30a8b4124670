package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text  string
		names []string
	}{
		{"//dpx10:allow placeleak", []string{"placeleak"}},
		{"//dpx10:allow placeleak intentional echo for benchmarks", []string{"placeleak"}},
		{"//dpx10:allow lockheld,lockorder startup only", []string{"lockheld", "lockorder"}},
		{"//dpx10:allowance placeleak", nil},
		{"//dpx10:allow", nil},
		{"// dpx10:allow placeleak", nil},
	}
	for _, c := range cases {
		names, ok := parseAllow(c.text)
		if ok != (c.names != nil) {
			t.Errorf("parseAllow(%q) ok = %v, want %v", c.text, ok, c.names != nil)
			continue
		}
		if len(names) != len(c.names) {
			t.Errorf("parseAllow(%q) = %v, want %v", c.text, names, c.names)
			continue
		}
		for i := range names {
			if names[i] != c.names[i] {
				t.Errorf("parseAllow(%q) = %v, want %v", c.text, names, c.names)
			}
		}
	}
}

func TestSuppressed(t *testing.T) {
	src := `package p

func a() int { // line 3
	return 1 //dpx10:allow demo known quirk
}

func b() int {
	//dpx10:allow demo comment on the line above
	return 2
}

func c() int {
	return 3 //dpx10:allow other
}

func d() int {
	return 4
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []*Package{{Path: "p", Fset: fset, Files: []*ast.File{f}}}
	demo := &Analyzer{Name: "demo"}

	posAtLine := func(line int) token.Pos {
		tf := fset.File(f.Pos())
		return tf.LineStart(line)
	}
	cases := []struct {
		line int
		want bool
	}{
		{4, true},   // same-line allow
		{9, true},   // allow on the line above
		{13, false}, // wrong analyzer name
		{17, false}, // no allow at all
	}
	for _, c := range cases {
		d := Diagnostic{Analyzer: demo, Pos: posAtLine(c.line)}
		if got := Suppressed(fset, pkgs, d); got != c.want {
			t.Errorf("line %d: Suppressed = %v, want %v", c.line, got, c.want)
		}
	}
}
