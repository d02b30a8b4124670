#!/usr/bin/env bash
# Runs the lifeline load-balancing ablation (dpx10-bench -fig skew: the
# skewed last-wave DAG at 8 places, lifelines off vs on, best of N runs
# per arm) and gates the result: lifelines must improve tile spread by
# >= 2x and cut steal probes by >= 5x on the idle tail — the same bounds
# internal/core/skew_test.go asserts in-process. Summarizes the run into
# a JSON file, default results/BENCH_skew.json.
#
#   scripts/bench_skew.sh [out.json]
#
# DPX10_BENCH_QUICK=1 runs the small grid with relaxed gates (2x/2.5x);
# CI's smoke step uses it to keep the harness honest without the cost.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-results/BENCH_skew.json}"
quick_flag=""
mode="full"
spread_gate="2.0"
probe_gate="5.0"
if [[ "${DPX10_BENCH_QUICK:-0}" != "0" ]]; then
	quick_flag="-quick"
	mode="quick"
	spread_gate="2.0"
	probe_gate="2.5"
fi
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go run ./cmd/dpx10-bench -fig skew -csv $quick_flag | tee "$tmp"

mkdir -p "$(dirname "$out")"
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet HEAD 2>/dev/null; then
	commit="$commit+dirty"
fi
awk -F, -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v commit="$commit" -v mode="$mode" \
	-v sgate="$spread_gate" -v pgate="$probe_gate" '
# CSV rows: arm,time(s),spread,probes,parks,pushes,migrated
$1 == "steal (random probes)" {
	t_off = $2; spread_off = $3; probes_off = $4
}
$1 == "steal + lifelines" {
	t_on = $2; spread_on = $3; probes_on = $4
	parks = $5; pushes = $6; migrated = $7
}
END {
	if (spread_on == "" || spread_off == "" || probes_on + 0 == 0 || spread_on + 0 == 0) {
		print "bench_skew: missing or zero ablation rows" > "/dev/stderr"
		exit 1
	}
	spread_x = spread_off / spread_on
	probe_x = probes_off / probes_on
	printf "{\n"
	printf "  \"generated\": \"%s\",\n  \"commit\": \"%s\",\n  \"mode\": \"%s\",\n", date, commit, mode
	printf "  \"off\": {\"time_s\": %s, \"spread\": %s, \"probes\": %s},\n", t_off, spread_off, probes_off
	printf "  \"on\": {\"time_s\": %s, \"spread\": %s, \"probes\": %s, \"parks\": %s, \"pushes\": %s, \"migrated\": %s},\n", t_on, spread_on, probes_on, parks, pushes, migrated
	printf "  \"spread_improvement\": %.2f,\n  \"probe_reduction\": %.2f,\n", spread_x, probe_x
	printf "  \"gates\": {\"spread_min\": %s, \"probe_min\": %s}\n}\n", sgate, pgate
	fail = 0
	if (spread_x < sgate) {
		printf "bench_skew: GATE FAILED spread improvement %.2fx < %sx\n", spread_x, sgate > "/dev/stderr"
		fail = 1
	}
	if (probe_x < pgate) {
		printf "bench_skew: GATE FAILED probe reduction %.2fx < %sx\n", probe_x, pgate > "/dev/stderr"
		fail = 1
	}
	if (pushes != migrated) {
		printf "bench_skew: GATE FAILED pushes %s != migrated %s\n", pushes, migrated > "/dev/stderr"
		fail = 1
	}
	if (fail) exit 1
	printf "bench_skew: gates passed (spread %.2fx >= %sx, probes %.2fx >= %sx)\n", spread_x, sgate, probe_x, pgate > "/dev/stderr"
}
' "$tmp" > "$out"
echo "wrote $out"
