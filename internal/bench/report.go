// Package bench regenerates every table and figure of the paper's
// evaluation (§VIII) plus the ablations DESIGN.md calls out.
//
// Figures 10, 11 and 13 ran on up to 12 Tianhe-1A nodes with 100M–1B
// vertices; those, and the steal, multi-fault, straggler and chaos-cost
// extensions, are reproduced on the discrete-event cluster simulator
// (internal/simcluster) at tile granularity, each through SimApp, with
// the mapping and cost calibration documented in spec.go and
// EXPERIMENTS.md. The simulator is deterministic, so those tables are
// reproducible byte for byte and a test pins them to results/. Figure 12
// (framework overhead vs hand-written code) is a single-machine ratio in
// the paper and is reproduced on the real runtime with wall clocks.
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Report is one table/series in paper layout: a header row and one row
// per x-axis point.
type Report struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends one formatted row.
func (r *Report) Add(cells ...string) { r.Rows = append(r.Rows, cells) }

// Print renders the report as an aligned text table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", r.Title)
	widths := make([]int, len(r.Header))
	for c, h := range r.Header {
		widths[c] = len(h)
	}
	for _, row := range r.Rows {
		for c, cell := range row {
			if c < len(widths) && len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for c, cell := range cells {
			parts[c] = fmt.Sprintf("%-*s", widths[c], cell)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for c := range sep {
		sep[c] = strings.Repeat("-", widths[c])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// WriteCSV renders the report as CSV (header + rows).
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Header); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d(v int64) string    { return fmt.Sprintf("%d", v) }
