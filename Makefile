GO ?= go

.PHONY: all vet build test race race-hammer mird-smoke perfbench-test bench-smoke fuzz-smoke bench bench-json bench-topk bench-dyn bench-check ci

all: ci

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# vet is part of the tier-1 gate: `make test` never passes on code vet
# would reject. -shuffle=on randomizes test order within each package so
# accidental test-order coupling (shared globals, leaked state) surfaces
# in CI instead of lying dormant.
test: vet
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# Hammer the concurrency surface under the race detector: the frontier
# scheduler, the steal deque, and every cross-worker-count determinism
# property. `race` already runs these once; the hammer re-runs just them
# with -count=3 so scheduling-dependent interleavings get more chances to
# bite.
race-hammer:
	$(GO) test -race -count=3 -run 'Parallel|Steal|Concurrent|Frontier' ./...

# Standing-daemon smoke under the race detector: concurrent reads during
# write bursts with 429-retry, coalesced-vs-sequential region identity,
# ingest validation/backpressure status codes, and the SSE watch path.
mird-smoke:
	$(GO) test -race -count=1 -run 'MirdSmoke' ./cmd/mird

# The benchmark lives in its own module (perfbench/go.mod), which the
# root `./...` patterns stop at. Vet and test it here so a library or
# mird change that breaks the benchmark's build fails CI.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# One iteration of the sequential-vs-parallel benchmark pair plus the
# numeric-kernel suite, as a smoke test that the instrumented paths still
# run (timings are not meaningful at -benchtime=1x).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkAllTopK|BenchmarkAAParallel' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkKernels' -benchtime 1x -benchmem ./internal/kern

# Differential fuzzing of the numeric kernels against their verbatim
# scalar references (10s per fuzzer; the committed corpora under
# testdata/fuzz seed the tricky float shapes — signed zeros, Inf, NaN,
# subnormals). `go test -fuzz` accepts one fuzz target per invocation, so
# each fuzzer gets its own anchored run.
fuzz-smoke:
	$(GO) test -fuzz '^FuzzKernelDotRows$$' -fuzztime 10s ./internal/kern
	$(GO) test -fuzz '^FuzzKernelRowMaxMin$$' -fuzztime 10s ./internal/kern
	$(GO) test -fuzz '^FuzzKernelEliminate$$' -fuzztime 10s ./internal/kern
	$(GO) test -fuzz '^FuzzKernelPivotParity$$' -fuzztime 10s ./internal/lp

# Full in-repo Go benchmarks with allocation reporting (the numbers quoted
# in EXPERIMENTS.md).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Machine-readable AA benchmark matrix (wall time, allocs/op, LP-call,
# simplex-pivot, and scheduler counters per dataset, pruning setting,
# warm-start setting, and worker count). CI regenerates and uploads this;
# the committed copy is the reference point for regressions.
bench-json:
	$(GO) run ./cmd/mirbench -json BENCH_AA.json

# Machine-readable preprocessing benchmark matrix for the indexed
# all-top-k engine (index build time, indexed vs full-skyband wall time,
# and the scanned-products / layer-prune counters per dataset,
# dimensionality, and user cardinality up to 10^6). The committed copy is
# the reference point for scan-volume regressions.
bench-topk:
	$(GO) run ./cmd/mirbench -json-topk BENCH_TOPK.json

# Machine-readable dynamic-maintenance matrix for the standing path
# (sustained events/sec and touched-leaves/event under session streams,
# per dataset, user tier, worker count, and routing mode). The committed
# copy is the reference point for locality regressions.
bench-dyn:
	$(GO) run ./cmd/mirbench -json-dyn BENCH_DYN.json

# Regenerate every matrix to scratch paths and gate them against the
# committed references: fails if any workers=1 AA row allocates more than
# 10% over BENCH_AA.json or runs more than 10% more simplex pivots/op
# (both counters are deterministic at one worker, so those margins are
# pure headroom; the pivot gate catches warm starts silently going cold),
# or if any indexed all-top-k cell scans more than 10% more products/user
# than BENCH_TOPK.json, or if the aggregate scan reduction over the
# full-skyband path drops below 5x, or if any dynamic-maintenance row
# touches more than 10% more leaves/event than BENCH_DYN.json, loses more
# than 10% events/sec at workers=1, or lets the routed/sweep locality
# ratio on the largest user tier drop below 5x. Wall times never gate,
# with the one deliberate exception of the standing events/sec floor —
# that number is the tentpole's contract. (touched-leaves/event is
# deterministic per configuration, so its margin is pure headroom.)
# The TOPK run gates the kernel scan-wall sweep: scoring the
# full product matrix through the blocked kernels must beat the
# historical scalar loop they reproduce (kern.DotRowsScalar) by >=2x in
# aggregate (both sides measured in the same process, so machine speed
# divides out).
bench-check:
	$(GO) run ./cmd/mirbench -json BENCH_AA.ci.json -baseline BENCH_AA.json
	$(GO) run ./cmd/mirbench -json-topk BENCH_TOPK.ci.json -baseline-topk BENCH_TOPK.json
	$(GO) run ./cmd/mirbench -json-dyn BENCH_DYN.ci.json -baseline-dyn BENCH_DYN.json

ci: vet build race race-hammer mird-smoke perfbench-test bench-smoke fuzz-smoke
