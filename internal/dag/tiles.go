package dag

import "slices"

// QuotientAcyclic reports whether the dependency DAG of p, coarsened by
// the tileOf projection, is still acyclic. tileOf maps every active cell
// to a tile index in [0, numTiles); edges between cells become edges
// between their tiles (intra-tile edges vanish).
//
// Coarsening is not safe in general: a tile becomes schedulable only when
// every cross-tile dependency of every cell it holds has finished, so two
// tiles that feed each other — common when a pattern has long-range or
// forward dependencies — deadlock even though the vertex-level DAG is
// acyclic. The engine runs this check before enabling multi-vertex tiles
// and falls back to single-vertex tiles when it fails.
//
// maxEdges bounds the memory spent collecting the quotient edge set;
// exceeding it returns false (a conservative "not safe" verdict). Regular
// DP patterns produce a few distinct neighbor tiles per tile, so the
// bound is generous in practice.
func QuotientAcyclic(p Pattern, tileOf func(i, j int32) int, numTiles, maxEdges int) bool {
	_, ok := QuotientSpan(p, tileOf, numTiles, maxEdges)
	return ok
}

// QuotientSpan is QuotientAcyclic that also measures the coarsened DAG: span
// is the number of tiles on its longest chain, so numTiles/span is the
// parallelism the tiling exposes — 1 when the tiles form a chain, whatever
// the places and threads. span is meaningless when ok is false.
func QuotientSpan(p Pattern, tileOf func(i, j int32) int, numTiles, maxEdges int) (span int, ok bool) {
	edges, ok := QuotientEdges(p, tileOf, maxEdges)
	if !ok {
		return 0, false
	}
	return Span(edges, numTiles)
}

// QuotientEdges collects the quotient's edges cell by cell, each as
// from<<32 | to; ok is false once they pass maxEdges.
func QuotientEdges(p Pattern, tileOf func(i, j int32) int, maxEdges int) (edges []uint64, ok bool) {
	h, w := p.Bounds()
	// Adjacent cells of a regular pattern repeat the same few tile pairs;
	// a tiny recent-pair filter removes the bulk of the duplicates before
	// the sort. Zero is safe as the empty sentinel: a 0->0 edge would be a
	// self-loop, which is skipped before the filter.
	var recent [4]uint64
	ri := 0
	var buf []VertexID
	for i := int32(0); i < h; i++ {
		for j := int32(0); j < w; j++ {
			if !IsActive(p, i, j) {
				continue
			}
			t := tileOf(i, j)
			buf = p.Dependencies(i, j, buf[:0])
			for _, dep := range buf {
				s := tileOf(dep.I, dep.J)
				if s == t {
					continue
				}
				e := uint64(uint32(s))<<32 | uint64(uint32(t))
				if recent[0] == e || recent[1] == e || recent[2] == e || recent[3] == e {
					continue
				}
				recent[ri] = e
				ri = (ri + 1) & 3
				edges = append(edges, e)
				if len(edges) > maxEdges {
					return nil, false
				}
			}
		}
	}
	return edges, true
}

// Span is the Kahn pass over a quotient of n tiles given by its edges
// (from<<32 | to, in any order, repeats allowed; sorted in place): ok
// reports the quotient acyclic, and span is then its longest chain in tiles.
func Span(edges []uint64, n int) (span int, ok bool) {
	slices.Sort(edges)
	edges = slices.Compact(edges)
	// The sorted edge list is grouped by source tile, so counting-sort
	// offsets give CSR adjacency for free.
	indeg := make([]int32, n)
	start := make([]int32, n+1)
	for _, e := range edges {
		start[int(e>>32)+1]++
		indeg[uint32(e)]++
	}
	for t := 0; t < n; t++ {
		start[t+1] += start[t]
	}
	queue := make([]int32, 0, n)
	for t := range int32(n) {
		if indeg[t] == 0 {
			queue = append(queue, t)
		}
	}
	depth := make([]int32, n) // tiles on the longest chain ending at t, less one
	processed := 0
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		processed++
		span = max(span, int(depth[t])+1)
		for _, e := range edges[start[t]:start[t+1]] {
			to := int32(e)
			depth[to] = max(depth[to], depth[t]+1)
			if indeg[to]--; indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	return span, processed == n
}
