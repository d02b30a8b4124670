// Fault tolerance: the paper's §VI-D recovery mechanism, live.
//
// A Manhattan Tourists run is launched asynchronously; at 50% progress a
// place is killed, exactly like the paper's Figure 13 experiments
// ("the failure was triggered manually in the middle of the execution").
// The run pauses, redistributes the DAG over the survivors — keeping the
// finished vertices whose owner did not move — and continues to the
// correct answer. The demo runs both restore manners (§VI-E) and shows
// how much recomputation the restore-remote option saves.
//
// Run with: go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/apps"
)

func main() {
	const n, places = 320, 6
	app := apps.NewMTP(n, n, 100, 11)
	total := int64(n) * int64(n)

	want := app.Serial()[n-1][n-1]
	fmt.Printf("MTP %dx%d on %d places; correct answer (serial): %d\n", n, n, places, want)

	for _, restore := range []bool{false, true} {
		opts := []dpx10.Option[int64]{dpx10.Places(places)}
		mode := "default (recompute moved vertices)"
		if restore {
			opts = append(opts, dpx10.RestoreRemote())
			mode = "restore-remote (copy moved vertices)"
		}
		job, err := dpx10.Launch[int64](app, app.Pattern(), opts...)
		if err != nil {
			log.Fatal(err)
		}
		for job.Progress() < total/2 {
			time.Sleep(100 * time.Microsecond)
		}
		fmt.Printf("\n[%s]\n", mode)
		fmt.Printf("  %d/%d vertices done -> killing place %d\n", job.Progress(), total, places-1)
		job.Kill(places - 1)

		dag, err := job.Wait()
		if err != nil {
			log.Fatal(err)
		}
		if got := dag.Result(n-1, n-1); got != want {
			log.Fatalf("  WRONG ANSWER after recovery: %d != %d", got, want)
		}
		s := dag.Stats()
		fmt.Printf("  recovered in %.1fms and finished correctly (answer %d)\n",
			float64(s.RecoveryNanos)/1e6, want)
		fmt.Printf("  recomputed %d vertices (beyond the %d of a fault-free run); epochs=%d\n",
			s.ComputedCells-total, total, s.Epochs)
	}

	fmt.Println("\nkilling place 0 instead aborts the run (Resilient X10 limitation):")
	job, err := dpx10.Launch[int64](app, app.Pattern(),
		dpx10.Places(places))
	if err != nil {
		log.Fatal(err)
	}
	for job.Progress() < total/4 {
		time.Sleep(100 * time.Microsecond)
	}
	job.Kill(0)
	if _, err := job.Wait(); err != nil {
		fmt.Printf("  run aborted as expected: %v\n", err)
	} else {
		log.Fatal("run survived the death of place 0?!")
	}
}
