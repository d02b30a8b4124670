// 0/1 Knapsack: the paper's walk-through of a *custom* DAG pattern
// (§VII-B, Figures 8–9). Unlike the eight built-ins, the knapsack DAG's
// edges depend on the input: cell (i,j) needs m(i-1, j) and — only when
// item i fits — m(i-1, j-w_i). The library's KnapsackPattern captures
// that; this example builds it, validates it with CheckPattern, runs the
// computation and backtracks the chosen items.
//
// Run with: go run ./examples/knapsack [-items 60] [-capacity 500]
package main

import (
	"flag"
	"fmt"
	"log"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/apps"
)

func main() {
	items := flag.Int("items", 60, "number of items")
	capacity := flag.Int("capacity", 500, "knapsack capacity")
	places := flag.Int("places", 4, "number of places")
	flag.Parse()

	app := apps.NewRandomKnapsack(*items, 25, 100, int32(*capacity), 7)

	// Step 1 (custom): build the weight-dependent pattern and check it —
	// dependencies and anti-dependencies must mirror, and the graph must
	// be acyclic. Do this in tests for any pattern you write yourself.
	pattern, err := app.Pattern()
	if err != nil {
		log.Fatal(err)
	}
	if err := dpx10.CheckPattern(pattern); err != nil {
		log.Fatalf("custom pattern is inconsistent: %v", err)
	}

	// Steps 2-3: the app implements Compute/AppFinished; run it.
	dag, err := dpx10.Run[int64](app, pattern,
		dpx10.Places(*places))
	if err != nil {
		log.Fatal(err)
	}

	chosen := app.Chosen(dag)
	var weight int64
	for _, idx := range chosen {
		weight += int64(app.Weights[idx])
	}
	fmt.Printf("%d items, capacity %d: best value %d with %d items (total weight %d)\n",
		*items, *capacity, app.Best(dag), len(chosen), weight)
	fmt.Printf("chosen items: %v\n", chosen)

	if err := app.Verify(dag); err != nil {
		log.Fatalf("distributed result disagrees with serial DP: %v", err)
	}
	fmt.Println("verified against the serial reference")
}
