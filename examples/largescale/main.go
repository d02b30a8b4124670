// Large-scale: the paper's §X future work, live — "spilling some data to
// local disk to enable computations on large scale of DP problems".
//
// A Manhattan Tourists instance is run twice: fully in memory, then with
// vertex values living in a paged disk-backed store that keeps only a few
// percent of them resident (WithSpill). Both produce identical results;
// the spilled run bounds per-place memory at residentPages × pageVals
// values regardless of problem size.
//
// Run with: go run ./examples/largescale [-n 800]
package main

import (
	"flag"
	"fmt"
	"log"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/apps"
)

func main() {
	n := flag.Int("n", 600, "grid side (total cells = n*n)")
	places := flag.Int("places", 4, "number of places")
	flag.Parse()

	app := apps.NewMTP(int32(*n), int32(*n), 100, 99)
	cells := int64(*n) * int64(*n)

	run := func(opts ...dpx10.Option[int64]) *dpx10.Dag[int64] {
		base := []dpx10.Option[int64]{dpx10.Places(*places)}
		dag, err := dpx10.Run[int64](app, app.Pattern(), append(base, opts...)...)
		if err != nil {
			log.Fatal(err)
		}
		return dag
	}

	fmt.Printf("MTP %dx%d (%d cells, 8 bytes each = %.1f MB of values) on %d places\n\n",
		*n, *n, cells, float64(cells*8)/1e6, *places)

	inMem := run()
	fmt.Printf("in-memory: %v, answer %d\n", inMem.Elapsed().Round(0), app.Best(inMem))

	const pageVals, resident = 1024, 16
	spilled := run(dpx10.WithSpill("", pageVals, resident))
	residentMB := float64(*places*pageVals*resident*8) / 1e6
	fmt.Printf("spilled:   %v, answer %d (at most %.1f MB of values resident cluster-wide)\n",
		spilled.Elapsed().Round(0), app.Best(spilled), residentMB)

	if app.Best(inMem) != app.Best(spilled) {
		log.Fatal("spilled run produced a different answer!")
	}
	slow := float64(spilled.Elapsed()) / float64(inMem.Elapsed())
	fmt.Printf("\nidentical results; spilling cost %.1fx with %.0f%% of values resident\n",
		slow, 100*float64(int64(*places*pageVals*resident))/float64(cells))
}
