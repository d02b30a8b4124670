package bench

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"sort"
	"strings"
)

// Figures maps figure names to runners; each returns the reports it
// regenerates.
var Figures = map[string]func(quick bool) ([]Report, error){
	"10": Fig10,
	"11": func(quick bool) ([]Report, error) {
		r, err := Fig11(quick)
		return []Report{r}, err
	},
	"12": Fig12,
	"13": func(quick bool) ([]Report, error) {
		a, b, err := Fig13(quick)
		return []Report{a, b}, err
	},
	"agg":   AblationAgg,
	"chaos": AblationChaos,
	"chaos-sim": func(quick bool) ([]Report, error) {
		r, err := chaosSimSweep(quick)
		return []Report{r}, err
	},
	"sched": func(quick bool) ([]Report, error) {
		r, err := AblationSched(quick)
		return []Report{r}, err
	},
	"cache": func(quick bool) ([]Report, error) {
		r, err := AblationCache(quick)
		return []Report{r}, err
	},
	"recovery": func(quick bool) ([]Report, error) {
		r, err := AblationRecovery(quick)
		return []Report{r}, err
	},
	"steal": func(quick bool) ([]Report, error) {
		r, err := AblationSteal(quick)
		return []Report{r}, err
	},
	"skew": func(quick bool) ([]Report, error) {
		r, err := AblationSkew(quick)
		return []Report{r}, err
	},
	"tilesize": func(quick bool) ([]Report, error) {
		r, err := AblationTileSize(quick)
		return []Report{r}, err
	},
	"spill": func(quick bool) ([]Report, error) {
		r, err := AblationSpill(quick)
		return []Report{r}, err
	},
	"faults": func(quick bool) ([]Report, error) {
		r, err := AblationFaults(quick)
		return []Report{r}, err
	},
	"straggler": func(quick bool) ([]Report, error) {
		r, err := AblationStraggler(quick)
		return []Report{r}, err
	},
}

// Names lists the available figure names in a stable order.
func Names() []string {
	out := make([]string, 0, len(Figures))
	for n := range Figures {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Run regenerates one figure (or "all") and prints its reports to w.
func Run(name string, quick, asCSV bool, w io.Writer) error {
	names := []string{name}
	if name == "all" {
		names = Names()
	}
	for _, n := range names {
		f, ok := Figures[n]
		if !ok {
			return fmt.Errorf("bench: unknown figure %q (have %v and \"all\")", n, Names())
		}
		reports, err := f(quick)
		if err != nil {
			return err
		}
		for i := range reports {
			if asCSV {
				fmt.Fprintf(w, "# %s\n", reports[i].Title)
				if err := reports[i].WriteCSV(w); err != nil {
					return err
				}
			} else {
				reports[i].Print(w)
			}
		}
	}
	return nil
}

// slugRe reduces a report title to a filesystem-friendly slug.
var slugRe = regexp.MustCompile(`[^a-z0-9]+`)

func slug(title string) string {
	s := slugRe.ReplaceAllString(strings.ToLower(title), "-")
	return strings.Trim(s, "-")
}

// buildCommit names the commit the running binary was built from, with
// "+dirty" when the tree had uncommitted changes: the provenance RunFiles
// stamps into every results file. `go run` leaves VCS information out of
// the binary, so regenerate results/ with a `go build` of cmd/dpx10-bench.
func buildCommit() string {
	rev, dirty := "unknown (binary built without VCS information)", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// RunFiles regenerates one figure (or "all") and writes each report to
// dir as both an aligned text table (.txt) and CSV (.csv), named by a
// slug of the report title, the table stamped with the commit that
// produced it. It also prints the tables to w.
func RunFiles(name string, quick bool, dir string, w io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := []string{name}
	if name == "all" {
		names = Names()
	}
	stamp := "generated at commit " + buildCommit()
	for _, n := range names {
		f, ok := Figures[n]
		if !ok {
			return fmt.Errorf("bench: unknown figure %q (have %v and \"all\")", n, Names())
		}
		reports, err := f(quick)
		if err != nil {
			return err
		}
		for i := range reports {
			rep := &reports[i]
			rep.Notes = append(rep.Notes, stamp)
			rep.Print(w)
			base := filepath.Join(dir, slug(rep.Title))
			var txt bytes.Buffer
			rep.Print(&txt)
			if err := os.WriteFile(base+".txt", txt.Bytes(), 0o644); err != nil {
				return err
			}
			var csvBuf bytes.Buffer
			if err := rep.WriteCSV(&csvBuf); err != nil {
				return err
			}
			if err := os.WriteFile(base+".csv", csvBuf.Bytes(), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
