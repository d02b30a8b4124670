// Sequence alignment: the paper's two Smith-Waterman applications on
// realistic random DNA — the plain SW of §VII-A (Figure 7) with alignment
// backtracking, and SWLAG (SW with affine gap penalty), the headline
// evaluation application of §VIII, using a custom fixed-width codec for
// its three-matrix cell value.
//
// Run with: go run ./examples/seqalign [-m 400] [-places 8]
package main

import (
	"flag"
	"fmt"
	"log"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/apps"
	"github.com/dpx10/dpx10/internal/workload"
)

func main() {
	m := flag.Int("m", 300, "sequence length")
	places := flag.Int("places", 6, "number of places")
	flag.Parse()

	// A realistic pair: b is a mutated copy of a (8% point mutations), so
	// the local alignment is long and biologically plausible rather than
	// the short coincidental matches of two independent random strings.
	a := workload.Sequence(*m, workload.DNA, 2024)
	b := workload.Mutate(a, workload.DNA, 0.08, 2025)

	// --- plain Smith-Waterman, with the best local alignment printed ----
	sw := apps.NewSW(a, b)
	swDag, err := dpx10.Run[int32](sw, sw.Pattern(),
		dpx10.Places(*places),
		dpx10.CacheSize(64))
	if err != nil {
		log.Fatal(err)
	}
	best, at := sw.Best(swDag)
	alignedA, alignedB := sw.Backtrack(swDag)
	fmt.Printf("Smith-Waterman: best score %d ending at %v\n", best, at)
	fmt.Printf("  %s\n  %s\n", marks(alignedA, alignedB), alignedA)
	fmt.Printf("  %s\n", alignedB)

	// --- SWLAG: affine gaps, custom 12-byte codec ----------------------
	swlag := apps.NewSWLAG(a, b)
	lagDag, err := dpx10.Run[apps.AffineCell](swlag, swlag.Pattern(),
		dpx10.Places(*places),
		dpx10.WithCodec[apps.AffineCell](swlag.Codec()),
		dpx10.CacheSize(64))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SWLAG (affine gaps): best score %d\n", swlag.Best(lagDag))

	s := lagDag.Stats()
	fmt.Printf("SWLAG run: %d cells, %d remote fetches (%d served by cache), %v\n",
		s.ComputedCells, s.RemoteFetches, s.CacheHits, lagDag.Elapsed().Round(0))
}

// marks renders a |-line for matched columns of the alignment.
func marks(a, b string) string {
	out := make([]byte, len(a))
	for k := range a {
		if a[k] == b[k] && a[k] != '-' {
			out[k] = '|'
		} else {
			out[k] = ' '
		}
	}
	return string(out)
}
