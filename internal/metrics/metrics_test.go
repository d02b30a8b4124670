package metrics

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

func TestCounterShardsAndValue(t *testing.T) {
	r := New(0)
	c := r.Counter(SchedTilesExecuted)
	for w := -1; w < 17; w++ {
		c.Add(w, 2)
	}
	c.Inc(3)
	if got := c.Value(); got != 37 {
		t.Fatalf("Value = %d, want 37", got)
	}
	if again := r.Counter(SchedTilesExecuted); again != c {
		t.Fatalf("second Counter lookup returned a different handle")
	}
}

func TestGauge(t *testing.T) {
	r := New(0)
	g := r.Gauge(EngineEpoch)
	g.Set(4)
	g.Add(-1)
	if got := g.Value(); got != 3 {
		t.Fatalf("Value = %d, want 3", got)
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := New(0)
	h := r.Histogram(RecoveryRebuildNs)
	samples := []int64{5, 1e4, 1e4 + 1, 5e6, 2e10, 0}
	var want int64
	for _, v := range samples {
		h.Observe(v)
		want += v
	}
	if got := h.Sum(); got != want {
		t.Fatalf("Sum = %d, want %d", got, want)
	}
	if got := h.Count(); got != int64(len(samples)) {
		t.Fatalf("Count = %d, want %d", got, len(samples))
	}
	hs := r.Snapshot().Hists[RecoveryRebuildNs]
	// 5, 1e4 and 0 land in bucket 0 (<=1e4); 1e4+1 in bucket 1; 5e6 in
	// the <=1e7 bucket; 2e10 overflows past the last bound.
	if hs.Counts[0] != 3 || hs.Counts[1] != 1 || hs.Counts[3] != 1 || hs.Counts[len(hs.Counts)-1] != 1 {
		t.Fatalf("bucket layout wrong: %v", hs.Counts)
	}
}

func TestVec(t *testing.T) {
	r := New(0)
	v := r.Vec(TransportMsgsOut)
	v.Add(3, 10)
	v.Add(255, 1)
	v.Add(3, 5)
	if v.Get(3) != 15 || v.Get(255) != 1 || v.Get(0) != 0 {
		t.Fatalf("Get wrong: %d %d %d", v.Get(3), v.Get(255), v.Get(0))
	}
	if v.Total() != 16 {
		t.Fatalf("Total = %d, want 16", v.Total())
	}
}

// TestNilRegistryIsFree checks the disabled path end to end: a nil
// registry hands out nil handles, every method is a no-op, and none of
// it allocates.
func TestNilRegistryIsFree(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	c := r.Counter(SchedTilesExecuted)
	g := r.Gauge(EngineEpoch)
	h := r.Histogram(RecoveryRebuildNs)
	v := r.Vec(VCacheHits)
	if c != nil || g != nil || h != nil || v != nil {
		t.Fatal("nil registry returned non-nil handles")
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(1, 1)
		g.Set(5)
		h.Observe(10)
		v.Add(2, 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled instruments allocate: %v allocs/op", allocs)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Sum() != 0 || h.Count() != 0 || v.Get(2) != 0 || v.Total() != 0 {
		t.Fatal("nil instruments returned non-zero reads")
	}
	s := r.Snapshot()
	if s.Place != -1 || len(s.Counters) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", s)
	}
}

// TestHotPathDoesNotAllocate is the allocation-free-on-hot-path claim for
// the enabled registry: updates through live handles stay at zero
// allocs/op.
func TestHotPathDoesNotAllocate(t *testing.T) {
	r := New(0)
	c := r.Counter(SchedTilesExecuted)
	g := r.Gauge(EngineEpoch)
	h := r.Histogram(RecoveryRebuildNs)
	v := r.Vec(TransportMsgsOut)
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(2, 1)
		g.Set(7)
		h.Observe(12345)
		v.Add(9, 3)
	})
	if allocs != 0 {
		t.Fatalf("enabled instruments allocate on the hot path: %v allocs/op", allocs)
	}
}

func TestUnknownNamePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(r *Registry)
	}{
		{"unregistered", func(r *Registry) { r.Counter("sched.tiles_exceuted") }}, //dpx10:allow metricname deliberate typo under test
		{"wrong kind", func(r *Registry) { r.Gauge(SchedTilesExecuted) }},         //dpx10:allow metricname deliberate kind mismatch under test
	} {
		t.Run(tc.name, func(t *testing.T) {
			mustPanic := func(what string, fn func(*Registry), r *Registry) {
				t.Helper()
				defer func() {
					if recover() == nil {
						t.Fatalf("no panic (%s)", what)
					}
				}()
				fn(r)
			}
			mustPanic("enabled registry", tc.fn, New(0))
			// A nil (disabled) registry must validate names too.
			mustPanic("nil registry", tc.fn, nil)
		})
	}
}

func buildSnapshot() *Snapshot {
	r := New(2)
	r.Counter(SchedTilesExecuted).Add(0, 41)
	r.Counter(TransportRetries).Add(1, 3)
	r.Gauge(EngineEpoch).Set(1)
	h := r.Histogram(RecoveryRebuildNs)
	h.Observe(1500)
	h.Observe(3e6)
	v := r.Vec(TransportMsgsOut)
	v.Add(1, 12)
	v.Add(20, 7)
	r.Vec(VCacheHits).Add(0, 99)
	return r.Snapshot()
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := buildSnapshot()
	b := EncodeSnapshot(nil, s)
	got, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
	// Truncation at every prefix must fail cleanly, never panic.
	for i := 0; i < len(b); i++ {
		if _, err := DecodeSnapshot(b[:i]); err == nil {
			t.Fatalf("truncated decode at %d/%d succeeded", i, len(b))
		}
	}
	if _, err := DecodeSnapshot(append(b, 0)); err == nil {
		t.Fatal("decode accepted trailing bytes")
	}
}

func TestMerge(t *testing.T) {
	a, b := buildSnapshot(), buildSnapshot()
	total := MergeAll([]*Snapshot{a, b})
	if total.Place != -1 {
		t.Fatalf("aggregate place = %d, want -1", total.Place)
	}
	if got := total.Counters[SchedTilesExecuted]; got != 82 {
		t.Fatalf("merged counter = %d, want 82", got)
	}
	if got := total.Vecs[TransportMsgsOut][20]; got != 14 {
		t.Fatalf("merged vec = %d, want 14", got)
	}
	h := total.Hists[RecoveryRebuildNs]
	if h.Count() != 4 || h.Sum != 2*(1500+3e6) {
		t.Fatalf("merged hist count=%d sum=%d", h.Count(), h.Sum)
	}
}

func TestImbalance(t *testing.T) {
	snaps := make([]*Snapshot, 4)
	for p := range snaps {
		snaps[p] = New(p).Snapshot()
	}
	if got := Imbalance(snaps); got != 1 {
		t.Fatalf("imbalance of an empty run = %f, want 1", got)
	}
	// 6 cells on place 0, 2 on place 1, none elsewhere: mean 2, max 6.
	snaps[0].Counters[SchedCellsExecuted] = 6
	snaps[1].Counters[SchedCellsExecuted] = 2
	if got := Imbalance(snaps); got != 3 {
		t.Fatalf("imbalance = %f, want 3", got)
	}
}

func TestRenderers(t *testing.T) {
	s := buildSnapshot()
	kn := func(vec string, k uint8) string {
		if strings.HasPrefix(vec, "transport.") {
			return "kind" + string('0'+rune(k%10))
		}
		return ""
	}
	var text strings.Builder
	if err := s.WriteText(&text, kn); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"metrics [place 2]", SchedTilesExecuted, "41", "kind1=12"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text output missing %q:\n%s", want, text.String())
		}
	}

	var js strings.Builder
	if err := WriteJSON(&js, []*Snapshot{s}, kn); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal([]byte(js.String()), &decoded); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if len(decoded) != 1 || decoded[0]["place"] != float64(2) {
		t.Fatalf("unexpected JSON: %s", js.String())
	}

	var prom strings.Builder
	if err := WritePrometheus(&prom, []*Snapshot{s}, kn); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`dpx10_sched_tiles_executed{place="2"} 41`,
		`dpx10_transport_msgs_out{place="2",key="kind1"} 12`,
		`dpx10_recovery_rebuild_ns_count{place="2"} 2`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, prom.String())
		}
	}
}

func TestHandler(t *testing.T) {
	a := buildSnapshot()
	b := buildSnapshot()
	b.Place = 3
	h := Handler(func() []*Snapshot { return []*Snapshot{a, b} }, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{`place="2"`, `place="3"`, `place="all"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("handler output missing %q:\n%s", want, body)
		}
	}
}
