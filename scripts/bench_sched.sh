#!/usr/bin/env bash
# Runs the scheduling-cost microbenchmarks (per-vertex engine overhead
# across tile sizes, value-cache contention) and summarizes them
# into a JSON file, default results/BENCH_sched.json — the perf
# trajectory seed referenced by EXPERIMENTS.md.
#
#   scripts/bench_sched.sh [out.json]
#
# DPX10_BENCHTIME overrides the engine sweep's -benchtime (default 10x);
# CI's smoke step uses 1x to keep the harness honest without the cost.
# The cache benchmark always runs for 1s: a handful of operations would
# time RunParallel's start-up, not Get and Put.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-results/BENCH_sched.json}"
benchtime="${DPX10_BENCHTIME:-10x}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test ./internal/core/ -run xxx -bench BenchmarkSchedulePerVertex \
	-benchtime "$benchtime" -benchmem | tee "$tmp"
go test ./internal/vcache/ -run xxx -bench BenchmarkVCacheParallel \
	-benchtime 1s -benchmem | tee -a "$tmp"

mkdir -p "$(dirname "$out")"
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet HEAD 2>/dev/null; then
	commit="$commit+dirty"
fi
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v commit="$commit" -v bt="$benchtime" '
/^Benchmark/ {
	name = $1; sub(/-[0-9]+$/, "", name)
	line = sprintf("    {\"name\": \"%s\", \"iterations\": %s", name, $2)
	for (i = 3; i < NF; i++) {
		u = $(i + 1); v = $i
		if (u == "ns/op")              line = line sprintf(", \"ns_per_op\": %s", v)
		else if (u == "B/op")          line = line sprintf(", \"bytes_per_op\": %s", v)
		else if (u == "allocs/op")     line = line sprintf(", \"allocs_per_op\": %s", v)
		else if (u == "ns/vertex")     line = line sprintf(", \"ns_per_vertex\": %s", v)
		else if (u == "allocs/vertex") line = line sprintf(", \"allocs_per_vertex\": %s", v)
		else if (u == "tile-rows")     line = line sprintf(", \"tile_rows\": %s", v)
		else if (u == "tile-cols")     line = line sprintf(", \"tile_cols\": %s", v)
		else if (u == "tile-parallelism") line = line sprintf(", \"tile_parallelism\": %s", v)
	}
	lines[n++] = line "}"
}
END {
	printf "{\n  \"generated\": \"%s\",\n  \"commit\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [\n", date, commit, bt
	for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n - 1 ? "," : "")
	print "  ]\n}"
}
' "$tmp" > "$out"
echo "wrote $out"
