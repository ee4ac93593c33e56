GO ?= go

.PHONY: all vet build test race race-hammer mird-smoke perfbench-test bench-smoke fuzz-smoke bench ci

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
# scheduler (one shared priority queue, idle workers waiting and waking
# on it) and every cross-worker-count determinism property — the
# `Workers` tests compare each worker count against the sequential run
# (AA in every mode, instance construction, all-top-k, and the public
# option plumbing). `race` already runs these once; the hammer
# re-runs just them with -count=3 so scheduling-dependent interleavings
# get more chances to bite.
race-hammer:
	$(GO) test -race -count=3 -run 'Parallel|Concurrent|Frontier|Workers' ./...

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

# One iteration of the sequential-vs-parallel benchmark pair, the
# numeric-kernel suite and the standing-maintenance pair (single events
# and 48-event bursts), as a smoke test that the instrumented paths still
# run (timings are not meaningful at -benchtime=1x).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkAllTopK|BenchmarkAAParallel' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkKernels' -benchtime 1x -benchmem ./internal/kern
	$(GO) test -run '^$$' -bench 'BenchmarkStandingApply' -benchtime 1x -benchmem ./internal/core

# Differential fuzzing, 10s per fuzz target: the numeric kernels against
# their verbatim scalar references and the two-phase simplex against the
# reference solver (the committed corpora under testdata/fuzz seed the
# tricky float shapes — signed zeros, Inf, NaN, subnormals). `go test
# -fuzz` accepts one fuzz target per invocation, so the targets are
# discovered with `go test -list` and each gets its own anchored run: a
# new fuzzer joins by existing, and a deleted one cannot linger here.
fuzz-smoke:
	@set -e; \
	list=$$($(GO) test -list '^Fuzz' ./...); \
	targets=$$(echo "$$list" | awk '/^Fuzz/ {f[n++] = $$1} /^ok/ {for (i = 0; i < n; i++) print $$2 "," f[i]; n = 0}'); \
	test -n "$$targets" || { echo "fuzz-smoke: no fuzz targets found" >&2; exit 1; }; \
	for t in $$targets; do \
		pkg=$${t%,*}; name=$${t#*,}; \
		echo "fuzz $$name ($$pkg)"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 10s $$pkg; \
	done

# Full in-repo Go benchmarks with allocation reporting (the numbers quoted
# in EXPERIMENTS.md).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# `test` runs the suite without the race detector, so the `!race` halves
# of the work gates (allocation counts and the kernel speed ratio) run in
# CI; `race` then runs the rest of the suite again under -race.
ci: vet build test race race-hammer mird-smoke perfbench-test bench-smoke fuzz-smoke
