# Convenience targets; the repository is plain `go build`-able.

.PHONY: tier1 test vet vet-json vet-sarif bench bench-sched bench-net bench-skew bench-e2e fuzz chaos

# The merge gate: build, vet (standard + dpx10-vet), full tests, race
# detector across the tree. Same contract as scripts/tier1.sh.
tier1:
	./scripts/tier1.sh

test:
	go test ./...

# Static analysis: standard go vet plus the repo's own analyzers
# (placeleak, lockorder, lockheld, goroleak, errdrop, allowlint — see
# cmd/dpx10-vet; lockorder and lockheld are two reports of one lock-set
# pass, internal/analysis/locks). The wire protocol's invariants are not
# linted: internal/core/proto.go declares each kind once, and its tests and
# `make fuzz` hold the codecs to it. Metric names and atomics are typed:
# a bad instrument lookup or a plain access to an atomic word does not
# compile, and `go test ./cmd/dpx10-vet` rejects function-style atomics.
vet:
	go vet ./...
	go run ./cmd/dpx10-vet ./...

# Machine-readable findings for scripting; exit status still reflects
# whether anything was found.
vet-json:
	go run ./cmd/dpx10-vet -json ./...

# SARIF 2.1.0 for GitHub code scanning; CI uploads this artifact.
vet-sarif:
	go run ./cmd/dpx10-vet -sarif ./...

# DPX10_TIMING_TESTS=1 turns on the wall-clock shape assertions that
# `go test ./...` leaves out (see internal/bench/bench_test.go).
bench: bench-sched bench-net
	go run ./cmd/dpx10-bench -fig all -quick
	DPX10_TIMING_TESTS=1 go test ./internal/bench/ -run TestFig12Shape -count=1

# Scheduling microbenchmarks (per-vertex overhead across tile sizes,
# vcache contention), summarized into results/BENCH_sched.json.
bench-sched:
	./scripts/bench_sched.sh results/BENCH_sched.json

# Cross-place wire cost over real TCP sockets, plus the scheduler's
# ns/vertex as a ratio to the hand-written per-vertex loop, summarized
# into results/BENCH_net.json. Fails if the wire bytes/vertex exceed 14.5.
bench-net:
	./scripts/bench_net.sh results/BENCH_net.json

# Lifeline load-balancing ablation on a skewed last-wave DAG,
# summarized into results/BENCH_skew.json. Fails unless the Steal
# strategy's tile spread and steal probes stay under fixed ceilings:
# plain random-victim stealing's best figures over 2x and 5x.
bench-skew:
	./scripts/bench_skew.sh results/BENCH_skew.json

# The repo's end-to-end benchmark (benchmark/, a module of its own that
# `go build ./...` does not reach) compiled against this tree and run once
# per workload at its quick size. Exits non-zero when a workload's results
# fail verification; the numbers it prints are not gated.
bench-e2e:
	go -C benchmark vet ./... && go -C benchmark run . -quick

# The wire round trip's seeds include a full 4096-id fetch request, whose
# minimization would otherwise take a minute of the budget each time.
fuzz:
	go test ./internal/core/ -run xxx -fuzz FuzzWireKindRoundTrip -fuzztime 30s -fuzzminimizetime 2s
	go test ./internal/core/ -run xxx -fuzz FuzzDecodeDecrBatch -fuzztime 30s
	go test ./internal/core/ -run xxx -fuzz FuzzStencilSettlement -fuzztime 30s
	go test ./internal/core/ -run xxx -fuzz FuzzStencilLayout -fuzztime 30s
	go test ./internal/core/ -run xxx -fuzz FuzzGhostFrame -fuzztime 30s
	go test ./internal/distarray/ -run xxx -fuzz FuzzStencilActivation -fuzztime 30s
	go test ./internal/dist/ -run xxx -fuzz FuzzGrid -fuzztime 30s

# Chaos soak: seeded fault-injection plans x fault profiles x mid-run
# kills, every run verified bit-exact against the fault-free reference.
# Set DPX10_SOAK_RUNS=<n> for a longer sweep (the nightly CI job does).
chaos:
	go test ./internal/core/ -run TestChaosSoak -count=1 -timeout 20m -v
