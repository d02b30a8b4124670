package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// KeyNamer maps a Vec key to a human-readable label — e.g. the wire-kind
// name for transport vectors, "boxes" for the push boxes' cache hits. A nil
// namer falls back to the decimal key.
type KeyNamer func(vecName string, key uint8) string

func keyLabel(kn KeyNamer, vec string, key uint8) string {
	if kn != nil {
		if s := kn(vec, key); s != "" {
			return s
		}
	}
	return fmt.Sprintf("%d", key)
}

func placeLabel(p int) string {
	if p < 0 {
		return "total"
	}
	return fmt.Sprintf("place %d", p)
}

// WriteText renders s as an aligned, sorted, human-readable block.
func (s *Snapshot) WriteText(w io.Writer, kn KeyNamer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "metrics [%s]\n", placeLabel(s.Place))
	type line struct{ name, val string }
	var lines []line
	for _, name := range sortedKeys(s.Counters) {
		lines = append(lines, line{name, fmt.Sprintf("%d", s.Counters[name])})
	}
	for _, name := range sortedKeys(s.Gauges) {
		lines = append(lines, line{name, fmt.Sprintf("%d", s.Gauges[name])})
	}
	for _, name := range sortedKeys(s.Hists) {
		h := s.Hists[name]
		lines = append(lines, line{name, fmt.Sprintf("count=%d sum=%d", h.Count(), h.Sum)})
	}
	for _, name := range sortedKeys(s.Vecs) {
		v := s.Vecs[name]
		keys := make([]int, 0, len(v))
		for k := range v {
			keys = append(keys, int(k))
		}
		sort.Ints(keys)
		var parts []string
		var total int64
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%d", keyLabel(kn, name, uint8(k)), v[uint8(k)]))
			total += v[uint8(k)]
		}
		lines = append(lines, line{name, fmt.Sprintf("total=%d  %s", total, strings.Join(parts, " "))})
	}
	width := 0
	for _, l := range lines {
		if len(l.name) > width {
			width = len(l.name)
		}
	}
	for _, l := range lines {
		fmt.Fprintf(&b, "  %-*s  %s\n", width, l.name, l.val)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// jsonHist mirrors HistSnapshot with explicit field names.
type jsonHist struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// jsonSnapshot is the JSON rendering of a Snapshot: vec keys become
// labeled strings so consumers never parse uint8 map keys.
type jsonSnapshot struct {
	Place    int                         `json:"place"`
	Counters map[string]int64            `json:"counters,omitempty"`
	Gauges   map[string]int64            `json:"gauges,omitempty"`
	Hists    map[string]jsonHist         `json:"histograms,omitempty"`
	Vecs     map[string]map[string]int64 `json:"vectors,omitempty"`
}

func (s *Snapshot) toJSON(kn KeyNamer) jsonSnapshot {
	js := jsonSnapshot{
		Place:    s.Place,
		Counters: s.Counters,
		Gauges:   s.Gauges,
	}
	if len(s.Hists) > 0 {
		js.Hists = map[string]jsonHist{}
		for name, h := range s.Hists {
			js.Hists[name] = jsonHist{Bounds: h.Bounds, Counts: h.Counts, Count: h.Count(), Sum: h.Sum}
		}
	}
	if len(s.Vecs) > 0 {
		js.Vecs = map[string]map[string]int64{}
		for name, v := range s.Vecs {
			m := map[string]int64{}
			for k, n := range v {
				m[keyLabel(kn, name, k)] = n
			}
			js.Vecs[name] = m
		}
	}
	return js
}

// WriteJSON renders the snapshots as one indented JSON array.
func WriteJSON(w io.Writer, snaps []*Snapshot, kn KeyNamer) error {
	out := make([]jsonSnapshot, 0, len(snaps))
	for _, s := range snaps {
		out = append(out, s.toJSON(kn))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// promName converts an instrument name to a Prometheus metric name:
// dpx10_<name with separators flattened>.
func promName(name string) string {
	r := strings.NewReplacer(".", "_", "-", "_")
	return "dpx10_" + r.Replace(name)
}

func promPlace(p int) string {
	if p < 0 {
		return "all"
	}
	return fmt.Sprintf("%d", p)
}

// WritePrometheus renders the snapshots in the Prometheus text exposition
// format, one time series per (instrument, place[, key | bucket]).
func WritePrometheus(w io.Writer, snaps []*Snapshot, kn KeyNamer) error {
	var b strings.Builder
	for _, s := range snaps {
		pl := promPlace(s.Place)
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "%s{place=\"%s\"} %d\n", promName(name), pl, s.Counters[name])
		}
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "%s{place=\"%s\"} %d\n", promName(name), pl, s.Gauges[name])
		}
		for _, name := range sortedKeys(s.Hists) {
			h := s.Hists[name]
			mn := promName(name)
			var cum int64
			for i, bound := range h.Bounds {
				cum += h.Counts[i]
				fmt.Fprintf(&b, "%s_bucket{place=%q,le=\"%d\"} %d\n", mn, pl, bound, cum)
			}
			fmt.Fprintf(&b, "%s_bucket{place=%q,le=\"+Inf\"} %d\n", mn, pl, h.Count())
			fmt.Fprintf(&b, "%s_sum{place=%q} %d\n", mn, pl, h.Sum)
			fmt.Fprintf(&b, "%s_count{place=%q} %d\n", mn, pl, h.Count())
		}
		for _, name := range sortedKeys(s.Vecs) {
			v := s.Vecs[name]
			keys := make([]int, 0, len(v))
			for k := range v {
				keys = append(keys, int(k))
			}
			sort.Ints(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, "%s{place=%q,key=%q} %d\n",
					promName(name), pl, keyLabel(kn, name, uint8(k)), v[uint8(k)])
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the Prometheus text format from live snapshots: fn is
// invoked per scrape, so a dashboard polling /metrics observes counters
// advancing while the run is in flight.
func Handler(fn func() []*Snapshot, kn KeyNamer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snaps := fn()
		if len(snaps) > 1 {
			snaps = append(snaps, MergeAll(snaps))
		}
		if err := WritePrometheus(w, snaps, kn); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
