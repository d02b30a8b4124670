#!/usr/bin/env bash
# Runs the lifeline load-balancing ablation (dpx10-bench -fig skew: the
# skewed last-wave DAG at 8 places under Local, the reference that shows
# the skew, and Steal, best of N runs per arm) and gates the Steal row
# against fixed ceilings. Each ceiling is plain random-victim stealing's
# figure on the same grid — the policy Steal had before lifelines became its
# only protocol, at its best over twelve runs — divided by the gain
# lifelines were held to against it: spread 2x and probes 5x on the full
# grid, 2x and 2.5x on the quick one. internal/core/skew_test.go gates the
# same scenario in-process. Summarizes the run into a JSON file, default
# results/BENCH_skew.json.
#
#   scripts/bench_skew.sh [out.json]
#
# DPX10_BENCH_QUICK=1 runs the small grid with its own ceilings; CI's smoke
# step uses it to keep the harness honest without the cost.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-results/BENCH_skew.json}"
quick_flag=""
mode="full"
# Plain stealing's best spread and probes, and the gains held against them.
plain_spread="4.452"
plain_probes="1839"
spread_gain="2.0"
probe_gain="5.0"
if [[ "${DPX10_BENCH_QUICK:-0}" != "0" ]]; then
	quick_flag="-quick"
	mode="quick"
	plain_spread="3.902"
	plain_probes="684"
	spread_gain="2.0"
	probe_gain="2.5"
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
	-v pspread="$plain_spread" -v pprobes="$plain_probes" -v sgain="$spread_gain" -v pgain="$probe_gain" '
# CSV rows: arm,time(s),spread,probes,parks,pushes,migrated
$1 == "local (reference)" {
	t_ref = $2; spread_ref = $3
}
$1 == "steal (lifelines)" {
	t = $2; spread = $3; probes = $4
	parks = $5; pushes = $6; migrated = $7
}
END {
	if (spread_ref == "" || spread == "" || spread + 0 == 0) {
		print "bench_skew: missing or zero ablation rows" > "/dev/stderr"
		exit 1
	}
	smax = pspread / sgain
	pmax = pprobes / pgain
	printf "{\n"
	printf "  \"generated\": \"%s\",\n  \"commit\": \"%s\",\n  \"mode\": \"%s\",\n", date, commit, mode
	printf "  \"local\": {\"time_s\": %s, \"spread\": %s},\n", t_ref, spread_ref
	printf "  \"steal\": {\"time_s\": %s, \"spread\": %s, \"probes\": %s, \"parks\": %s, \"pushes\": %s, \"migrated\": %s},\n", t, spread, probes, parks, pushes, migrated
	printf "  \"plain_steal\": {\"spread\": %s, \"probes\": %s},\n", pspread, pprobes
	printf "  \"gates\": {\"spread_max\": %.3f, \"probe_max\": %.1f}\n}\n", smax, pmax
	fail = 0
	if (spread + 0 > smax) {
		printf "bench_skew: GATE FAILED spread %s > %.3f (plain %s / %sx)\n", spread, smax, pspread, sgain > "/dev/stderr"
		fail = 1
	}
	if (probes + 0 > pmax) {
		printf "bench_skew: GATE FAILED probes %s > %.1f (plain %s / %sx)\n", probes, pmax, pprobes, pgain > "/dev/stderr"
		fail = 1
	}
	if (spread_ref + 0 <= 3.0) {
		printf "bench_skew: GATE FAILED local spread %s <= 3.0 (scenario lost its skew)\n", spread_ref > "/dev/stderr"
		fail = 1
	}
	if (pushes != migrated) {
		printf "bench_skew: GATE FAILED pushes %s != migrated %s\n", pushes, migrated > "/dev/stderr"
		fail = 1
	}
	if (fail) exit 1
	printf "bench_skew: gates passed (spread %s <= %.3f, probes %s <= %.1f)\n", spread, smax, probes, pmax > "/dev/stderr"
}
' "$tmp" > "$out"
echo "wrote $out"
