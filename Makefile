GO ?= go
FUZZTIME ?= 10s
CHAOS_RUNS ?= 25
CHAOS_SEED ?= 1

.PHONY: build test check vet staticcheck race determinism bench bench-snapshot perf-gate serve-smoke restart-smoke cluster-smoke chaos fuzz metrics-lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the race detector over every internal package and command: the
# tracer, the simulated multi-GPU fleet, the MPI abort path, and the
# partition-serving daemon all thread goroutines through shared structures.
race:
	$(GO) test -race ./internal/... ./cmd/...

# staticcheck runs honnef.co/go/tools when the binary is on PATH and is
# a no-op otherwise, so `make check` works in hermetic containers while
# CI (which installs it) still gets the full analysis.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# determinism re-runs every determinism and resume-parity test (names
# containing Determinis or Resume, plus the MPI barrier's wake-order test)
# at GOMAXPROCS 1, 2 and 4, ten times each, so the bit-identity claims hold
# under real parallelism and not just on one core. internal/core runs five
# times each: its full-pipeline runs dominate the target's wall time.
DETERMINISM_TESTS = 'Determinis|Resume|TestBarrierReleaseIndependentOfWakeOrder'
determinism:
	$(GO) test -run $(DETERMINISM_TESTS) -cpu 1,2,4 -count 10 $$($(GO) list ./... | grep -v '/internal/core$$')
	$(GO) test -run $(DETERMINISM_TESTS) -cpu 1,2,4 -count 5 ./internal/core

# check is the PR gate: static analysis, the race detector, the
# metrics-exposition lint, the determinism re-runs, and the
# perf-regression gate against the committed baseline.
check: vet staticcheck race metrics-lint determinism perf-gate

# metrics-lint asserts every registered series appears on a FRESH
# /metrics scrape — counters, declared histograms, and the eagerly
# declared per-peer × per-RPC cluster histograms — so dashboards and
# alert previews never chase series that only exist after first use.
metrics-lint:
	$(GO) test ./internal/server -run 'TestMetricsLintFreshScrape' -count=1
	$(GO) test ./internal/cluster -run 'TestClusterRPCMetricsEager' -count=1

# perf-gate re-runs the benchmark at BENCH_baseline.json's own scale,
# k, runs, and seed and fails (exit 2) when any input regresses modeled
# time by more than 10% or edge cut by more than 2%. Intentional perf
# changes update the baseline via `make bench-snapshot`.
perf-gate:
	$(GO) run ./cmd/bench -compare BENCH_baseline.json

# serve-smoke boots a real gpmetisd on a random port, submits a job with
# the gpmetis client, and asserts the resubmission is a cache hit; it then
# runs the kill -9 / restart recovery smoke on a journaled daemon and the
# 3-node ring smoke (forwarding, cross-node cache peek, RF=2 replication,
# replica-served owner failover, rejoin catch-up).
serve-smoke: build
	./scripts/serve_smoke.sh
	./scripts/restart_smoke.sh
	./scripts/cluster_smoke.sh

# cluster-smoke runs only the ring end-to-end: boot a 3-node RF=2 ring
# from one peers.json, forward a job to its digest owner, answer a
# resubmission by cross-node cache peek, SIGKILL the owner and serve the
# digest from its replica, then restart the owner and catch it back up.
cluster-smoke: build
	./scripts/cluster_smoke.sh

# restart-smoke runs only the crash-recovery end-to-end: SIGKILL a
# journaled gpmetisd mid-job, restart it on the same journal, and assert
# the interrupted job resumes from its checkpoint.
restart-smoke: build
	./scripts/restart_smoke.sh

# chaos soaks the pipeline and daemon with seeded random fault scenarios,
# interruptions, and restarts (see cmd/chaos). Failures print a replay
# line: make chaos CHAOS_SEED=<seed> reproduces any round exactly.
chaos:
	$(GO) run ./cmd/chaos -runs $(CHAOS_RUNS) -seed $(CHAOS_SEED)

# fuzz exercises the hardened graph readers for FUZZTIME per target;
# FuzzReadDifferential checks the single-pass Metis reader against the
# map-based reference it replaced.
fuzz:
	$(GO) test ./internal/graph/gio -run '^$$' -fuzz FuzzRead$$ -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph/gio -run '^$$' -fuzz FuzzReadGR$$ -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph/gio -run '^$$' -fuzz FuzzReadDifferential$$ -fuzztime $(FUZZTIME)

bench:
	$(GO) run ./cmd/bench

# bench-snapshot regenerates the committed perf trajectory record. The
# modeled clock is deterministic, so a diff in BENCH_baseline.json means
# an algorithm or machine-model change moved performance.
bench-snapshot:
	$(GO) run ./cmd/bench -scale 40 -runs 1 -snapshot BENCH_baseline.json table2
