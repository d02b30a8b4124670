// Command dpx10-vet runs the DPX10 static-analysis suite — the APGAS
// place-isolation and concurrency invariants X10's compiler would have
// enforced for us — over the packages matching the given patterns.
//
// Usage:
//
//	dpx10-vet [-list] [-json | -sarif] [packages]
//
// With no patterns it analyzes ./... relative to the current directory.
// The preferred entry point is `make vet`, which builds and runs it over
// the whole module; scripts/tier1.sh runs the same check as part of the
// tier-1 gate under a wall-clock budget. `make vet-json` emits machine-
// readable findings; CI uploads `-sarif` output to GitHub code scanning.
// Exit status is 1 when any diagnostic is reported, 2 on load/usage
// errors (in -json/-sarif modes the document is still written on exit 1).
//
// Analyzers (severity in parentheses):
//
//	placeleak   (error)    handlers/decoders must not retain payload aliases
//	lockorder   (error)    whole-program lock acquisition order is acyclic
//	lockheld    (error)    no blocking ops on any path holding a sync.Mutex/RWMutex
//	goroleak    (warning)  spawned goroutines must be tied to a shutdown signal
//	errdrop     (warning)  transport Send/Call errors must be consumed
//	allowlint   (info)     //dpx10:allow suppressions name analyzers and a rationale
//
// lockorder and lockheld are two reports of one lock-set pass over every
// function body (internal/analysis/locks), computed once per run.
// TestPlantedFindings pins the suite's -json output on a planted package.
//
// Metric lookups and atomics need no analyzer: the metrics Registry takes
// only typed instrument handles, every shared word is a typed sync/atomic
// value, and this package's TestNoFunctionStyleAtomics fails on any
// function-style atomic call (atomic.AddInt64 and the like) in the module.
//
// Suppressions. A finding is silenced by a comment on the flagged line or
// the line directly above it:
//
//	//dpx10:allow <analyzer>[,<analyzer>] <rationale>
//
// e.g. `return p, nil //dpx10:allow placeleak test echo handler`. Both the
// analyzer name(s) and the rationale are mandatory: allowlint reports any
// bare or reasonless suppression, so an allow without a reason is itself
// a finding rather than a review convention.
package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/dpx10/dpx10/internal/analysis/allowlint"
	"github.com/dpx10/dpx10/internal/analysis/errdrop"
	"github.com/dpx10/dpx10/internal/analysis/framework"
	"github.com/dpx10/dpx10/internal/analysis/goroleak"
	"github.com/dpx10/dpx10/internal/analysis/locks"
	"github.com/dpx10/dpx10/internal/analysis/placeleak"
)

func analyzers() []*framework.Analyzer {
	as := []*framework.Analyzer{
		placeleak.Analyzer,
		locks.Lockorder,
		locks.Lockheld,
		goroleak.Analyzer,
		errdrop.Analyzer,
	}
	// allowlint validates suppression comments against the registry, so it
	// must know every name above plus its own.
	names := make([]string, 0, len(as)+1)
	for _, a := range as {
		names = append(names, a.Name)
	}
	names = append(names, "allowlint")
	return append(as, allowlint.New(names))
}

func main() {
	as := analyzers()
	args := os.Args[1:]
	mode := "text"
	for len(args) > 0 {
		switch args[0] {
		case "-list":
			list(as)
			return
		case "-json":
			mode = "json"
		case "-sarif":
			mode = "sarif"
		case "-h", "-help", "--help":
			fmt.Fprintln(os.Stderr, "usage: dpx10-vet [-list] [-json | -sarif] [packages]")
			return
		default:
			os.Exit(run(os.Stdout, as, mode, args))
		}
		args = args[1:]
	}
	os.Exit(run(os.Stdout, as, mode, nil))
}

func list(as []*framework.Analyzer) {
	lines := make([]string, 0, len(as))
	for _, a := range as {
		lines = append(lines, fmt.Sprintf("%-10s %-8s %s", a.Name, a.Severity, a.Doc))
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
}

// run analyzes the packages matching patterns and writes the findings to
// stdout in mode ("text", "json" or "sarif"), returning the exit status.
func run(stdout io.Writer, as []*framework.Analyzer, mode string, patterns []string) int {
	fset, pkgs, err := framework.Load(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpx10-vet: %v\n", err)
		return 2
	}
	diags, err := framework.Run(fset, pkgs, as)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpx10-vet: %v\n", err)
		return 2
	}
	kept := diags[:0]
	for _, d := range diags {
		if !framework.Suppressed(fset, pkgs, d) {
			kept = append(kept, d)
		}
	}
	root, _ := os.Getwd()
	findings := framework.Findings(fset, root, kept)

	switch mode {
	case "json":
		if err := framework.WriteJSON(stdout, findings); err != nil {
			fmt.Fprintf(os.Stderr, "dpx10-vet: %v\n", err)
			return 2
		}
	case "sarif":
		if err := framework.WriteSARIF(stdout, as, findings); err != nil {
			fmt.Fprintf(os.Stderr, "dpx10-vet: %v\n", err)
			return 2
		}
	default:
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s (%s)\n", f.File, f.Line, f.Column, f.Severity, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "dpx10-vet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
