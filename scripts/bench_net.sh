#!/usr/bin/env bash
# Runs the data-plane acceptance benchmarks and summarizes them into a
# JSON file, default results/BENCH_net.json:
#
#   - BenchmarkNetPerVertex: a SWLAG-shaped run over real TCP sockets —
#     time, wire bytes and vectored writes per vertex.
#   - BenchmarkSchedulePerVertex/tile=auto against
#     BenchmarkFig12_NativeVertex: per-vertex engine overhead as a ratio to
#     the hand-written per-vertex loop, the two alternated round by round
#     so a change in the host's speed hits both.
#
#   scripts/bench_net.sh [out.json]
#
# Everything runs DPX10_BENCHCOUNT times (default 3) and the JSON records
# the min across runs per metric — min-of-N, the least-noise estimator
# for a lower-bound cost. One gate makes the script exit nonzero:
#
#   The wire bytes per vertex must be at most 14.5 — half of the 29.05 a
#   vertex cost with fixed-width decrBatch records (PR 9). Byte counts do
#   not depend on machine speed, so the gate always applies.
#
# The scheduler ratio is recorded, not gated. It replaced an absolute
# "tile=auto < 150 ns/vertex" gate that read 138.9, 163.4, 204.2 and
# 258-281 on one commit as the host changed speed. Dividing by the native
# loop measured in the same round was meant to cancel the host's speed; it
# does not. Ten alternated rounds at the commit before this change
# (197d193, sched 10x then native 100x, 2-vCPU guest) read
#
#   1.90 4.81 12.93 3.84 4.56 3.42 5.13 4.56 4.24 4.36
#
# because the native loop alone swung from 19.5 to 108 ns/cell between
# rounds while the engine stayed within 206-285 ns/vertex. The spread is
# 580 % of the minimum (50 % with the two outliers dropped) against the
# 25 % a gate would need, and max x 1.15 = 14.9 would pass anything. Read
# the recorded ratio and its per-round series against that baseline.
#
# Syscalls (writes/vertex) are recorded for the trajectory.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-results/BENCH_net.json}"
benchtime="${DPX10_BENCHTIME:-3x}"
schedtime="${DPX10_SCHED_BENCHTIME:-10x}"
count="${DPX10_BENCHCOUNT:-3}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test ./internal/core/ -run xxx -bench 'BenchmarkNetPerVertex$' \
	-benchtime "$benchtime" -count "$count" -timeout 30m | tee "$tmp"
for _ in $(seq "$count"); do
	go test ./internal/core/ -run xxx -bench 'BenchmarkSchedulePerVertex/tile=auto' \
		-benchtime "$schedtime" -timeout 30m | tee -a "$tmp"
	go test . -run xxx -bench 'BenchmarkFig12_NativeVertex$' \
		-benchtime 100x -timeout 30m | tee -a "$tmp"
done

mkdir -p "$(dirname "$out")"
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet HEAD 2>/dev/null; then
	commit="$commit+dirty"
fi
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v commit="$commit" -v bt="$benchtime" -v cnt="$count" '
function minset(arr, key, v) { if (!(key in arr) || v + 0 < arr[key] + 0) arr[key] = v }
/^BenchmarkNetPerVertex/ {
	for (i = 3; i < NF; i++) minset(net, $(i + 1), $i)
}
/^BenchmarkSchedulePerVertex\/tile=auto/ {
	for (i = 3; i < NF; i++) if ($(i + 1) == "ns/vertex") { minset(m, "sched", $i); sched[ns++] = $i }
}
/^BenchmarkFig12_NativeVertex/ {
	for (i = 3; i < NF; i++) if ($(i + 1) == "ns/cell") { minset(m, "native", $i); native[nn++] = $i }
}
END {
	printf "{\n  \"generated\": \"%s\",\n  \"commit\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"count\": %s,\n", date, commit, bt, cnt
	printf "  \"aggregation\": \"min of %s runs per metric\",\n", cnt
	printf "  \"net\": {\"ns_per_vertex\": %s, \"wire_bytes_per_vertex\": %s, \"writes_per_vertex\": %s},\n", \
		net["ns/vertex"], net["wireB/vertex"], net["writes/vertex"]
	printf "  \"sched_tile_auto_ns_per_vertex\": %s,\n  \"native_vertex_ns_per_cell\": %s,\n", m["sched"], m["native"]
	printf "  \"sched_native_ratio\": %.2f,\n  \"sched_native_ratio_rounds\": [", (m["native"] + 0 > 0) ? m["sched"] / m["native"] : 0
	for (i = 0; i < ns && i < nn; i++) printf "%s%.2f", (i ? ", " : ""), sched[i] / native[i]
	printf "],\n"
	pass_b = (net["wireB/vertex"] + 0 > 0 && net["wireB/vertex"] + 0 <= 14.5)
	printf "  \"gates\": [\n"
	printf "    {\"metric\": \"wire_bytes_per_vertex\", \"require\": \"<= 14.5\", \"pass\": %s}\n", pass_b ? "true" : "false"
	printf "  ]\n}\n"
	if (!pass_b) exit 3
}
' "$tmp" > "$out" || {
	status=$?
	cat "$out"
	case "$status" in
	3) echo "GATE FAILED: wire bytes/vertex over 14.5" >&2 ;;
	*) echo "GATE FAILED: awk exited $status" >&2 ;;
	esac
	exit "$status"
}
cat "$out"
echo "wrote $out"
