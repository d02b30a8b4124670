package apps

import (
	"testing"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/workload"
)

func seqPair(n, m int) (string, string) {
	return workload.Sequence(n, workload.DNA, 11), workload.Sequence(m, workload.DNA, 23)
}

func TestLCSDistributedMatchesSerial(t *testing.T) {
	a, b := seqPair(40, 33)
	app := NewLCS(a, b)
	dag, err := dpx10.Run[int32](app, app.Pattern(),
		dpx10.Places(4), dpx10.WithCodec[int32](dpx10.Int32Codec{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(dag); err != nil {
		t.Fatal(err)
	}
	sub := app.Backtrack(dag)
	if int32(len(sub)) != app.Length(dag) {
		t.Fatalf("backtrack length %d != LCS length %d", len(sub), app.Length(dag))
	}
	if !isSubsequence(sub, a) || !isSubsequence(sub, b) {
		t.Fatalf("%q is not a common subsequence of inputs", sub)
	}
}

func isSubsequence(sub, s string) bool {
	k := 0
	for i := 0; i < len(s) && k < len(sub); i++ {
		if s[i] == sub[k] {
			k++
		}
	}
	return k == len(sub)
}

func TestSWDistributedMatchesSerial(t *testing.T) {
	a, b := seqPair(35, 42)
	app := NewSW(a, b)
	dag, err := dpx10.Run[int32](app, app.Pattern(),
		dpx10.Places(3), dpx10.WithCodec[int32](dpx10.Int32Codec{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(dag); err != nil {
		t.Fatal(err)
	}
	alignedA, alignedB := app.Backtrack(dag)
	if len(alignedA) != len(alignedB) {
		t.Fatalf("alignment rows differ in length: %q vs %q", alignedA, alignedB)
	}
	// Re-score the alignment; it must equal the best matrix score.
	best, _ := app.Best(dag)
	var score int32
	for k := 0; k < len(alignedA); k++ {
		switch {
		case alignedA[k] == '-' || alignedB[k] == '-':
			score += app.Gap
		case alignedA[k] == alignedB[k]:
			score += app.Match
		default:
			score += app.Mismatch
		}
	}
	if score != best {
		t.Fatalf("alignment re-scores to %d, matrix best is %d", score, best)
	}
}

func TestSWKnownAlignment(t *testing.T) {
	// Classic textbook case: identical substrings align perfectly.
	app := NewSW("AAACCCTTT", "GGCCCGG")
	dag, err := dpx10.Run[int32](app, app.Pattern(), dpx10.Places(2))
	if err != nil {
		t.Fatal(err)
	}
	best, _ := app.Best(dag)
	if best != 6 { // CCC aligned: 3 matches x 2
		t.Fatalf("best = %d, want 6", best)
	}
	a, b := app.Backtrack(dag)
	if a != "CCC" || b != "CCC" {
		t.Fatalf("alignment = %q/%q, want CCC/CCC", a, b)
	}
}

func TestSWLAGDistributedMatchesSerial(t *testing.T) {
	a, b := seqPair(30, 30)
	app := NewSWLAG(a, b)
	dag, err := dpx10.Run[AffineCell](app, app.Pattern(),
		dpx10.Places(4), dpx10.WithCodec[AffineCell](app.Codec()))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(dag); err != nil {
		t.Fatal(err)
	}
	if app.Best(dag) <= 0 {
		t.Fatal("no positive local alignment found in random DNA (implausible)")
	}
}

func TestSWLAGLinearGapDegeneratesToSW(t *testing.T) {
	// With open == extend == SW gap, the affine H matrix equals plain SW.
	a, b := seqPair(25, 28)
	affine := NewSWLAG(a, b)
	affine.GapOpen, affine.GapExtend = SWGap, SWGap
	dag, err := dpx10.Run[AffineCell](affine, affine.Pattern(),
		dpx10.Places(3), dpx10.WithCodec[AffineCell](affine.Codec()))
	if err != nil {
		t.Fatal(err)
	}
	want := NewSW(a, b).Serial()
	for i := 0; i <= len(a); i++ {
		for j := 0; j <= len(b); j++ {
			if got := dag.Result(int32(i), int32(j)).H; got != want[i][j] {
				t.Fatalf("H(%d,%d) = %d, want %d (linear-gap degeneration)", i, j, got, want[i][j])
			}
		}
	}
}

func TestAffineCodecRoundTrip(t *testing.T) {
	c := AffineCodec{}
	for _, v := range []AffineCell{{}, {1, -2, 3}, {negInf, negInf, 1 << 30}} {
		b := c.Encode(nil, v)
		if len(b) != 12 {
			t.Fatalf("encoded width %d, want 12", len(b))
		}
		got, n, err := c.Decode(b)
		if err != nil || n != 12 || got != v {
			t.Fatalf("round trip %+v -> %+v (n=%d err=%v)", v, got, n, err)
		}
	}
	if _, _, err := c.Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("short decode accepted")
	}
}

func TestMTPDistributedMatchesSerial(t *testing.T) {
	app := NewMTP(30, 25, 100, 5)
	dag, err := dpx10.Run[int64](app, app.Pattern(),
		dpx10.Places(4), dpx10.WithCodec[int64](dpx10.Int64Codec{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(dag); err != nil {
		t.Fatal(err)
	}
	path := app.Path(dag)
	if path[0] != (dpx10.VertexID{I: 0, J: 0}) || path[len(path)-1] != (dpx10.VertexID{I: 29, J: 24}) {
		t.Fatalf("path endpoints wrong: %v .. %v", path[0], path[len(path)-1])
	}
	if len(path) != 30+25-1 {
		t.Fatalf("monotone path length = %d, want %d", len(path), 30+25-1)
	}
	// Re-score the path; it must equal the best value.
	var total int64
	for k := 1; k < len(path); k++ {
		p, q := path[k-1], path[k]
		total += app.Weight(p.I, p.J, q.I, q.J)
	}
	if total != app.Best(dag) {
		t.Fatalf("path re-scores to %d, matrix best is %d", total, app.Best(dag))
	}
}

func TestLPSDistributedMatchesSerial(t *testing.T) {
	s := workload.Sequence(40, workload.DNA, 9)
	app := NewLPS(s)
	dag, err := dpx10.Run[int32](app, app.Pattern(),
		dpx10.Places(4), dpx10.WithCodec[int32](dpx10.Int32Codec{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(dag); err != nil {
		t.Fatal(err)
	}
	pal := app.Subsequence(dag)
	if int32(len(pal)) != app.Length(dag) {
		t.Fatalf("backtrack length %d != LPS length %d", len(pal), app.Length(dag))
	}
	if rev := reverseString(pal); rev != pal {
		t.Fatalf("%q is not a palindrome", pal)
	}
	if !isSubsequence(pal, s) {
		t.Fatalf("%q is not a subsequence of input", pal)
	}
}

func reverseString(s string) string {
	b := []byte(s)
	reverse(b)
	return string(b)
}

func TestLPSKnown(t *testing.T) {
	app := NewLPS("CHARACTER")
	dag, err := dpx10.Run[int32](app, app.Pattern(), dpx10.Places(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := app.Length(dag); got != 5 { // CARAC
		t.Fatalf("LPS(CHARACTER) = %d, want 5", got)
	}
}

func TestKnapsackDistributedMatchesSerial(t *testing.T) {
	app := NewRandomKnapsack(12, 9, 20, 45, 31)
	pat, err := app.Pattern()
	if err != nil {
		t.Fatal(err)
	}
	dag, err := dpx10.Run[int64](app, pat,
		dpx10.Places(4), dpx10.WithCodec[int64](dpx10.Int64Codec{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(dag); err != nil {
		t.Fatal(err)
	}
	chosen := app.Chosen(dag)
	var wsum, vsum int64
	for _, idx := range chosen {
		wsum += int64(app.Weights[idx])
		vsum += int64(app.Values[idx])
	}
	if wsum > int64(app.Capacity) {
		t.Fatalf("chosen items weigh %d > capacity %d", wsum, app.Capacity)
	}
	if vsum != app.Best(dag) {
		t.Fatalf("chosen items value %d != best %d", vsum, app.Best(dag))
	}
}

func TestKnapsackKnown(t *testing.T) {
	app, err := NewKnapsack([]int32{1, 3, 4, 5}, []int32{1, 4, 5, 7}, 7)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := app.Pattern()
	if err != nil {
		t.Fatal(err)
	}
	dag, err := dpx10.Run[int64](app, pat, dpx10.Places(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := app.Best(dag); got != 9 { // items {3,4}: value 4+5
		t.Fatalf("best = %d, want 9", got)
	}
}

func TestKnapsackRejectsBadInput(t *testing.T) {
	if _, err := NewKnapsack([]int32{1}, []int32{1, 2}, 5); err == nil {
		t.Fatal("mismatched weights/values accepted")
	}
	if _, err := NewKnapsack(nil, nil, 5); err == nil {
		t.Fatal("empty item list accepted")
	}
}

func TestEditDistanceDistributedMatchesSerial(t *testing.T) {
	a, b := seqPair(30, 36)
	app := NewEditDistance(a, b)
	dag, err := dpx10.Run[int32](app, app.Pattern(),
		dpx10.Places(3), dpx10.WithCodec[int32](dpx10.Int32Codec{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(dag); err != nil {
		t.Fatal(err)
	}
}

func TestEditDistanceKnown(t *testing.T) {
	app := NewEditDistance("kitten", "sitting")
	dag, err := dpx10.Run[int32](app, app.Pattern(), dpx10.Places(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := app.Distance(dag); got != 3 {
		t.Fatalf("edit distance = %d, want 3", got)
	}
}

func TestAppsSurviveFault(t *testing.T) {
	// Every evaluation app completes correctly across a mid-run failure.
	a, b := seqPair(40, 40)
	t.Run("swlag", func(t *testing.T) {
		app := NewSWLAG(a, b)
		job, err := dpx10.Launch[AffineCell](app, app.Pattern(),
			dpx10.Places(4), dpx10.WithCodec[AffineCell](app.Codec()))
		if err != nil {
			t.Fatal(err)
		}
		for job.Progress() < 100 {
		}
		job.Kill(2)
		dag, err := job.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Verify(dag); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("lps", func(t *testing.T) {
		app := NewLPS(workload.Sequence(45, workload.DNA, 3))
		job, err := dpx10.Launch[int32](app, app.Pattern(),
			dpx10.Places(4), dpx10.WithCodec[int32](dpx10.Int32Codec{}))
		if err != nil {
			t.Fatal(err)
		}
		for job.Progress() < 120 {
		}
		job.Kill(1)
		dag, err := job.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Verify(dag); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMustDepPanicsOnMissing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mustDep on missing dependency did not panic")
		}
	}()
	mustDep([]dpx10.Cell[int32]{}, 1, 1)
}

func TestDepValue(t *testing.T) {
	deps := []dpx10.Cell[int32]{{ID: dpx10.VertexID{I: 1, J: 2}, Value: 7}}
	if v, ok := depValue(deps, 1, 2); !ok || v != 7 {
		t.Fatalf("depValue = (%d,%v)", v, ok)
	}
	if _, ok := depValue(deps, 2, 1); ok {
		t.Fatal("depValue found a missing dependency")
	}
}

func TestDepAtChecksThePosition(t *testing.T) {
	deps := []dpx10.Cell[int32]{{ID: dpx10.VertexID{I: 1, J: 2}, Value: 7}, {ID: dpx10.VertexID{I: 2, J: 1}, Value: 9}}
	if v := depAt(deps, 1, 2, 1); v != 9 {
		t.Fatalf("depAt = %d, want 9", v)
	}
	for _, k := range []int{0, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("depAt(%d) of (2,1) did not panic", k)
				}
			}()
			depAt(deps, k, 2, 1)
		}()
	}
}
