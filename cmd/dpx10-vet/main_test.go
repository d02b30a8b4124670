package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPlantedFindings runs the whole suite over testdata/planted — a
// transport Send and a blocking helper call under a mutex, an A→B / B→A
// lock inversion, a self re-lock, and one send silenced by
// //dpx10:allow lockheld — and compares the -json output with
// testdata/planted.json byte for byte, pinning analyzer names,
// severities, messages and suppression. Cycle messages quote the absolute
// position of the counter-edge; it is made relative to this directory
// first. To regenerate the golden file, run `dpx10-vet -json
// ./testdata/planted` here and strip the same prefix.
func TestPlantedFindings(t *testing.T) {
	var out bytes.Buffer
	if code := run(&out, analyzers(), "json", []string{"./testdata/planted"}); code != 1 {
		t.Fatalf("exit status %d, want 1 (findings reported)\n%s", code, out.String())
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	got := strings.ReplaceAll(out.String(), wd+string(filepath.Separator), "")
	want, err := os.ReadFile(filepath.Join("testdata", "planted.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("dpx10-vet -json ./testdata/planted:\n%s\nwant:\n%s", got, want)
	}
}
