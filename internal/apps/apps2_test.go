package apps

import (
	"strings"
	"testing"

	"github.com/dpx10/dpx10"
	"github.com/dpx10/dpx10/internal/workload"
)

func TestMatrixChainDistributedMatchesSerial(t *testing.T) {
	app := NewRandomMatrixChain(18, 40, 3)
	dag, err := dpx10.Run[int64](app, app.Pattern(),
		dpx10.Places(4), dpx10.WithCodec[int64](dpx10.Int64Codec{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(dag); err != nil {
		t.Fatal(err)
	}
	// The parenthesization must re-cost to the optimum.
	expr := app.Parenthesization(dag)
	if got := costOf(t, app.Dims, expr); got != app.Cost(dag) {
		t.Fatalf("parenthesization %q costs %d, optimum is %d", expr, got, app.Cost(dag))
	}
}

// costOf evaluates a parenthesized chain expression's multiplication cost.
func costOf(t *testing.T, dims []int64, expr string) int64 {
	t.Helper()
	var total int64
	var eval func(s string) (rows, cols int64, rest string)
	eval = func(s string) (int64, int64, string) {
		if strings.HasPrefix(s, "A") {
			k := 1
			idx := int64(0)
			for k < len(s) && s[k] >= '0' && s[k] <= '9' {
				idx = idx*10 + int64(s[k]-'0')
				k++
			}
			return dims[idx], dims[idx+1], s[k:]
		}
		if s[0] != '(' {
			t.Fatalf("bad expression at %q", s)
		}
		r1, c1, rest := eval(s[1:])
		if rest[0] != ' ' {
			t.Fatalf("bad expression at %q", rest)
		}
		r2, c2, rest := eval(rest[1:])
		if rest[0] != ')' {
			t.Fatalf("bad expression at %q", rest)
		}
		if c1 != r2 {
			t.Fatalf("dimension mismatch %dx%d · %dx%d", r1, c1, r2, c2)
		}
		total += r1 * c1 * c2
		return r1, c2, rest[1:]
	}
	r, c, rest := eval(expr)
	if rest != "" || r != dims[0] || c != dims[len(dims)-1] {
		t.Fatalf("expression %q did not consume the chain", expr)
	}
	return total
}

func TestMatrixChainKnown(t *testing.T) {
	// Classic CLRS example: dims 30,35,15,5,10,20,25 -> 15125.
	app, err := NewMatrixChain([]int64{30, 35, 15, 5, 10, 20, 25})
	if err != nil {
		t.Fatal(err)
	}
	dag, err := dpx10.Run[int64](app, app.Pattern(), dpx10.Places(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := app.Cost(dag); got != 15125 {
		t.Fatalf("cost = %d, want 15125", got)
	}
}

func TestMatrixChainRejectsBadDims(t *testing.T) {
	if _, err := NewMatrixChain([]int64{5}); err == nil {
		t.Fatal("single dimension accepted")
	}
	if _, err := NewMatrixChain([]int64{5, 0, 3}); err == nil {
		t.Fatal("zero dimension accepted")
	}
}

func TestViterbiDistributedMatchesSerial(t *testing.T) {
	app := NewRandomViterbi(8, 4, 40, 17)
	dag, err := dpx10.Run[float64](app, app.Pattern(),
		dpx10.Places(4), dpx10.WithCodec[float64](dpx10.Float64Codec{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(dag); err != nil {
		t.Fatal(err)
	}
	path := app.Path(dag)
	if len(path) != 40 {
		t.Fatalf("path length = %d, want 40", len(path))
	}
	// Re-score the decoded path; it must equal the best log-probability.
	score := app.LogInit[path[0]] + app.LogEmit[path[0]][app.Obs[0]]
	for tt := 1; tt < len(path); tt++ {
		score += app.LogTrans[path[tt-1]][path[tt]] + app.LogEmit[path[tt]][app.Obs[tt]]
	}
	if !approxEq(score, app.Best(dag)) {
		t.Fatalf("decoded path scores %g, trellis best is %g", score, app.Best(dag))
	}
}

func TestViterbiSingleState(t *testing.T) {
	app := NewRandomViterbi(1, 3, 10, 2)
	dag, err := dpx10.Run[float64](app, app.Pattern(),
		dpx10.Places(2), dpx10.WithCodec[float64](dpx10.Float64Codec{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range app.Path(dag) {
		if s != 0 {
			t.Fatal("single-state HMM decoded a nonzero state")
		}
	}
}

func TestNWDistributedMatchesSerial(t *testing.T) {
	a, b := seqPair(35, 30)
	app := NewNW(a, b)
	dag, err := dpx10.Run[int32](app, app.Pattern(),
		dpx10.Places(4), dpx10.WithCodec[int32](dpx10.Int32Codec{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(dag); err != nil {
		t.Fatal(err)
	}
	alignedA, alignedB := app.Backtrack(dag)
	if len(alignedA) != len(alignedB) {
		t.Fatalf("global alignment rows differ: %d vs %d", len(alignedA), len(alignedB))
	}
	// Global alignment must consume both strings entirely.
	if strings.ReplaceAll(alignedA, "-", "") != a || strings.ReplaceAll(alignedB, "-", "") != b {
		t.Fatal("global alignment dropped characters")
	}
	// Re-score the alignment.
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
	if score != app.Score(dag) {
		t.Fatalf("alignment re-scores to %d, matrix says %d", score, app.Score(dag))
	}
}

func TestNWIdenticalStrings(t *testing.T) {
	app := NewNW("ACGTACGT", "ACGTACGT")
	dag, err := dpx10.Run[int32](app, app.Pattern(), dpx10.Places(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := app.Score(dag); got != 16 { // 8 matches x 2
		t.Fatalf("score = %d, want 16", got)
	}
}

func TestLCSubstrDistributedMatchesSerial(t *testing.T) {
	a, b := seqPair(60, 50)
	app := NewLCSubstr(a, b)
	if err := dpx10.CheckPattern(app.Pattern()); err != nil {
		t.Fatalf("diag-only pattern inconsistent: %v", err)
	}
	if _, ok := app.Pattern().(dpx10.Stencil); !ok {
		t.Fatal("diag-only pattern does not declare its offsets")
	}
	dag, err := dpx10.Run[int32](app, app.Pattern(),
		dpx10.Places(4), dpx10.WithCodec[int32](dpx10.Int32Codec{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(dag); err != nil {
		t.Fatal(err)
	}
	sub, n := app.Longest(dag)
	if int32(len(sub)) != n {
		t.Fatalf("substring %q length %d != reported %d", sub, len(sub), n)
	}
	if n > 0 && (!strings.Contains(a, sub) || !strings.Contains(b, sub)) {
		t.Fatalf("%q is not a common substring", sub)
	}
}

func TestLCSubstrKnown(t *testing.T) {
	app := NewLCSubstr("XABCDY", "ZABCDW")
	dag, err := dpx10.Run[int32](app, app.Pattern(), dpx10.Places(2))
	if err != nil {
		t.Fatal(err)
	}
	sub, n := app.Longest(dag)
	if sub != "ABCD" || n != 4 {
		t.Fatalf("longest = %q (%d), want ABCD (4)", sub, n)
	}
}

func TestNewAppsSurviveFault(t *testing.T) {
	t.Run("matrixchain", func(t *testing.T) {
		app := NewRandomMatrixChain(24, 30, 9)
		job, err := dpx10.Launch[int64](app, app.Pattern(),
			dpx10.Places(4), dpx10.WithCodec[int64](dpx10.Int64Codec{}))
		if err != nil {
			t.Fatal(err)
		}
		for job.Progress() < 60 {
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
	t.Run("viterbi", func(t *testing.T) {
		app := NewRandomViterbi(6, 4, 60, 21)
		job, err := dpx10.Launch[float64](app, app.Pattern(),
			dpx10.Places(4), dpx10.WithCodec[float64](dpx10.Float64Codec{}))
		if err != nil {
			t.Fatal(err)
		}
		for job.Progress() < 120 {
		}
		job.Kill(3)
		dag, err := job.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Verify(dag); err != nil {
			t.Fatal(err)
		}
	})
}

func TestLCSubstrRandomizedQuick(t *testing.T) {
	// Light property test: for random inputs the distributed longest
	// common substring really occurs in both strings.
	for trial := int64(0); trial < 6; trial++ {
		a := workload.Sequence(25+int(trial), workload.DNA, trial)
		b := workload.Sequence(30, workload.DNA, trial+100)
		app := NewLCSubstr(a, b)
		dag, err := dpx10.Run[int32](app, app.Pattern(),
			dpx10.Places(3), dpx10.WithCodec[int32](dpx10.Int32Codec{}))
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Verify(dag); err != nil {
			t.Fatal(err)
		}
		sub, _ := app.Longest(dag)
		if sub != "" && (!strings.Contains(a, sub) || !strings.Contains(b, sub)) {
			t.Fatalf("trial %d: %q not common", trial, sub)
		}
	}
}

func TestFloydWarshallPatternConsistent(t *testing.T) {
	for _, n := range []int32{1, 2, 3, 5} {
		fw := NewRandomFloydWarshall(n, 2, 9, 11)
		if err := dpx10.CheckPattern(fw.Pattern()); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestFloydWarshallMatchesSerial(t *testing.T) {
	fw := NewRandomFloydWarshall(14, 4, 20, 8)
	dag, err := dpx10.Run[int64](fw, fw.Pattern(),
		dpx10.Places(4), dpx10.WithCodec[int64](dpx10.Int64Codec{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Verify(dag); err != nil {
		t.Fatal(err)
	}
	// Self-distances are zero and reachable.
	for i := int32(0); i < fw.N; i++ {
		if d, ok := fw.Dist(dag, i, i); !ok || d != 0 {
			t.Fatalf("Dist(%d,%d) = (%d,%v)", i, i, d, ok)
		}
	}
}

func TestFloydWarshallSurvivesFault(t *testing.T) {
	fw := NewRandomFloydWarshall(12, 3, 15, 5)
	job, err := dpx10.Launch[int64](fw, fw.Pattern(),
		dpx10.Places(4), dpx10.WithCodec[int64](dpx10.Int64Codec{}))
	if err != nil {
		t.Fatal(err)
	}
	for job.Progress() < 300 {
	}
	job.Kill(2)
	dag, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Verify(dag); err != nil {
		t.Fatal(err)
	}
}

func TestSWLAGBacktrackScoresToBest(t *testing.T) {
	a, b := seqPair(45, 40)
	app := NewSWLAG(a, b)
	dag, err := dpx10.Run[AffineCell](app, app.Pattern(),
		dpx10.Places(3), dpx10.WithCodec[AffineCell](app.Codec()))
	if err != nil {
		t.Fatal(err)
	}
	alignedA, alignedB := app.Backtrack(dag)
	if len(alignedA) != len(alignedB) {
		t.Fatalf("alignment rows differ: %q / %q", alignedA, alignedB)
	}
	// Re-score with affine gap accounting.
	var score int32
	inGapA, inGapB := false, false
	for k := 0; k < len(alignedA); k++ {
		switch {
		case alignedA[k] == '-':
			if inGapA {
				score += app.GapExtend
			} else {
				score += app.GapOpen
			}
			inGapA, inGapB = true, false
		case alignedB[k] == '-':
			if inGapB {
				score += app.GapExtend
			} else {
				score += app.GapOpen
			}
			inGapA, inGapB = false, true
		default:
			inGapA, inGapB = false, false
			if alignedA[k] == alignedB[k] {
				score += app.Match
			} else {
				score += app.Mismatch
			}
		}
	}
	if score != app.Best(dag) {
		t.Fatalf("alignment re-scores to %d, best is %d\n  %s\n  %s", score, app.Best(dag), alignedA, alignedB)
	}
	// The ungapped residues must be subsequences of the inputs.
	if !isSubsequence(strings.ReplaceAll(alignedA, "-", ""), a) ||
		!isSubsequence(strings.ReplaceAll(alignedB, "-", ""), b) {
		t.Fatal("alignment rows are not substrings of the inputs")
	}
}

func TestCYKMatchesSerial(t *testing.T) {
	g := NewRandomCYK(12, 40, 28, 6)
	dag, err := dpx10.Run[uint64](g, g.Pattern(),
		dpx10.Places(4), dpx10.WithCodec[uint64](g.Codec()))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(dag); err != nil {
		t.Fatal(err)
	}
	if g.Parseable(dag) == 0 {
		t.Fatal("no derivable spans at all (degenerate grammar)")
	}
}

func TestCYKKnownGrammar(t *testing.T) {
	// S -> A B | B A ; A -> 'A' ; B -> 'C'. Nonterminals: S=0, A=1, B=2.
	g := &CYK{
		NT: 3,
		Binary: []CYKBinaryRule{
			{A: 0, B: 1, C: 2},
			{A: 0, B: 2, C: 1},
		},
		Terminals: map[byte]uint64{'A': 1 << 1, 'C': 1 << 2},
		Input:     "AC",
	}
	dag, err := dpx10.Run[uint64](g, g.Pattern(), dpx10.Places(2),
		dpx10.WithCodec[uint64](g.Codec()))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Accepts(dag) {
		t.Fatal("grammar should accept AC")
	}
	g2 := &CYK{NT: g.NT, Binary: g.Binary, Terminals: g.Terminals, Input: "AA"}
	dag2, err := dpx10.Run[uint64](g2, g2.Pattern(), dpx10.Places(2),
		dpx10.WithCodec[uint64](g2.Codec()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.Accepts(dag2) {
		t.Fatal("grammar should reject AA")
	}
}

func TestCYKSurvivesFault(t *testing.T) {
	g := NewRandomCYK(10, 30, 32, 13)
	job, err := dpx10.Launch[uint64](g, g.Pattern(),
		dpx10.Places(4), dpx10.WithCodec[uint64](g.Codec()))
	if err != nil {
		t.Fatal(err)
	}
	for job.Progress() < 150 {
	}
	job.Kill(1)
	dag, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(dag); err != nil {
		t.Fatal(err)
	}
}

func TestOBSTMatchesSerial(t *testing.T) {
	app := NewRandomOBST(20, 30, 10)
	dag, err := dpx10.Run[int64](app, app.Pattern(),
		dpx10.Places(4), dpx10.WithCodec[int64](dpx10.Int64Codec{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Verify(dag); err != nil {
		t.Fatal(err)
	}
	// The reconstructed tree must be a valid BST shape: exactly one root,
	// every parent index in range, and re-costing it gives the optimum.
	parent := app.Tree(dag)
	roots := 0
	for k, p := range parent {
		if p == -1 {
			roots++
		} else if p < 0 || p >= app.N() || p == k {
			t.Fatalf("key %d has invalid parent %d", k, p)
		}
	}
	if roots != 1 {
		t.Fatalf("%d roots, want 1", roots)
	}
	if got := treeCost(app, parent); got != app.Cost(dag) {
		t.Fatalf("reconstructed tree costs %d, optimum is %d", got, app.Cost(dag))
	}
}

// treeCost computes Σ freq[k] * depth[k] (depth of root = 1).
func treeCost(app *OBST, parent []int) int64 {
	depth := func(k int) int64 {
		d := int64(1)
		for parent[k] != -1 {
			k = parent[k]
			d++
		}
		return d
	}
	var total int64
	for k := range parent {
		total += app.Freq[k] * depth(k)
	}
	return total
}

func TestOBSTKnown(t *testing.T) {
	// Knuth's classic example (frequencies scaled to integers):
	// keys with f = {4, 2, 6, 3}; optimal cost = 4*2 + 2*3 + 6*1 + 3*2 = 26.
	app, err := NewOBST([]int64{4, 2, 6, 3})
	if err != nil {
		t.Fatal(err)
	}
	dag, err := dpx10.Run[int64](app, app.Pattern(), dpx10.Places(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := app.Cost(dag); got != 26 {
		t.Fatalf("cost = %d, want 26", got)
	}
}

func TestOBSTRejectsBadInput(t *testing.T) {
	if _, err := NewOBST(nil); err == nil {
		t.Fatal("empty keys accepted")
	}
	if _, err := NewOBST([]int64{3, -1}); err == nil {
		t.Fatal("negative frequency accepted")
	}
}
