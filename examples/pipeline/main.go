// Pipeline: compute once, post-process later — the paper's appFinished()
// stage split across processes via result persistence.
//
// Phase 1 runs a Needleman-Wunsch alignment on the cluster runtime and
// saves the finished matrix to disk (Dag.SaveFile). Phase 2 — which in a
// real pipeline would be a different process, possibly on a different
// machine — reloads the matrix without any runtime (LoadResultFile) and
// backtracks the optimal alignment from it.
//
// Run with: go run ./examples/pipeline
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/apps"
	"github.com/dpx10/dpx10/internal/workload"
)

func main() {
	a := workload.Sequence(140, workload.DNA, 7)
	b := workload.Mutate(a, workload.DNA, 0.1, 8)
	app := apps.NewNW(a, b)

	dir, err := os.MkdirTemp("", "dpx10-pipeline-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "nw-result.dpxr")

	// --- phase 1: compute and persist -----------------------------------
	dag, err := dpx10.Run[int32](app, app.Pattern(),
		dpx10.Places(4))
	if err != nil {
		log.Fatal(err)
	}
	if err := dag.SaveFile(path, dpx10.Int32Codec{}); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(path)
	fmt.Printf("phase 1: computed %dx%d matrix in %v, saved %d bytes to %s\n",
		dag.Height(), dag.Width(), dag.Elapsed().Round(0), info.Size(), filepath.Base(path))

	// --- phase 2: reload and post-process, no runtime involved ----------
	loaded, err := dpx10.LoadResultFile[int32](path, dpx10.Int32Codec{})
	if err != nil {
		log.Fatal(err)
	}
	// Backtrack directly on the loaded matrix.
	score := loaded.Result(loaded.Height()-1, loaded.Width()-1)
	alignedA, alignedB := backtrack(app, loaded)
	fmt.Printf("phase 2: reloaded; global alignment score %d over %d columns\n", score, len(alignedA))
	fmt.Printf("  %s\n  %s\n", head(alignedA, 70), head(alignedB, 70))

	// Sanity: the live and reloaded matrices agree everywhere.
	for i := int32(0); i < dag.Height(); i++ {
		for j := int32(0); j < dag.Width(); j++ {
			if dag.Result(i, j) != loaded.Result(i, j) {
				log.Fatalf("mismatch at (%d,%d)", i, j)
			}
		}
	}
	fmt.Println("reloaded matrix matches the live run cell for cell")
}

// backtrack reconstructs the alignment from a loaded (runtime-free) matrix.
func backtrack(app *apps.NW, m *dpx10.SavedResult[int32]) (string, string) {
	var ra, rb []byte
	i, j := m.Height()-1, m.Width()-1
	for i > 0 || j > 0 {
		v := m.Result(i, j)
		switch {
		case i > 0 && j > 0 && v == m.Result(i-1, j-1)+score(app, i, j):
			ra = append(ra, app.A[i-1])
			rb = append(rb, app.B[j-1])
			i, j = i-1, j-1
		case i > 0 && v == m.Result(i-1, j)+app.Gap:
			ra = append(ra, app.A[i-1])
			rb = append(rb, '-')
			i--
		default:
			ra = append(ra, '-')
			rb = append(rb, app.B[j-1])
			j--
		}
	}
	rev(ra)
	rev(rb)
	return string(ra), string(rb)
}

func score(app *apps.NW, i, j int32) int32 {
	if app.A[i-1] == app.B[j-1] {
		return app.Match
	}
	return app.Mismatch
}

func rev(b []byte) {
	for x, y := 0, len(b)-1; x < y; x, y = x+1, y-1 {
		b[x], b[y] = b[y], b[x]
	}
}

func head(s string, n int) string {
	if len(s) > n {
		return s[:n-3] + "..."
	}
	return s
}
