# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# commands.

GO ?= go

.PHONY: all build vet test race chaos chaos-shards chaos-offload bench bench-figures bench-json bench-gate bench-procs reproduce lint test-fvassert

all: build vet test

# Static invariant checks: go vet plus the fvlint analyzer suite —
# five per-package analyzers (detnow, lockconv, atomicmix, hotpath,
# metricname) and three module-wide ones on the interprocedural hot
# closure (boxing, shardown, lockorder) — see internal/analysis and
# DESIGN.md §11 — over both tag sets, so the fvassert-only file pair
# is linted too. Zero unsuppressed diagnostics is the contract;
# suppressions are //fv: annotations with mandatory justifications.
# Every tracked Go file outside analyzer fixtures must be gofmt-clean.
lint:
	test -z "$$(gofmt -l $$(git ls-files '*.go' | grep -v /testdata/))"
	$(GO) vet ./...
	$(GO) run ./cmd/fvlint ./...
	$(GO) run ./cmd/fvlint -tags fvassert ./...

# Full test suite with the runtime assertion layer (internal/fvassert)
# compiled in: token conservation, FIFO occupancy, cache geometry, and
# event-causality invariants all panic on violation instead of
# corrupting results silently.
test-fvassert:
	$(GO) test -tags fvassert ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race detector on the surfaces that run under real goroutine
# concurrency: the scheduling function, the NIC model, the concurrent
# flow cache, the tracer, the pifo family's label-plane scheduler, the
# discrete-event engine, and the facade.
race:
	$(GO) test -race ./internal/core/ ./internal/nic/ ./internal/classifier/ ./internal/telemetry/ ./internal/pifo/ ./internal/sim/ .

# Chaos soak: randomized fault plans (fixed seed matrix) through the full
# FlowValve stack under -race, asserting conformance/recovery/liveness.
chaos:
	$(GO) test -race -run Chaos -v ./internal/experiments/

# Sharded parallel soak under -race: worker goroutines own the shards,
# producers hammer the MPSC feed rings, and the chaos fault plan stays
# armed (lock contention on shard1, epoch faults elsewhere) while token
# conservation is asserted at every settlement.
chaos-shards:
	$(GO) test -race -tags fvassert -run 'ShardedParallelChaosSoak|FeedRingMPSC' -v ./internal/core/

# Offload-churn soak: randomized fault plans armed while mouse-flow
# churn hammers the offload control plane's install queue, with the
# fvassert invariants (rule-table capacity, install-queue bounds)
# compiled in.
chaos-offload:
	$(GO) test -race -tags fvassert -run 'ChaosOffloadChurn' -v ./internal/experiments/

# Scheduling hot-path microbenchmarks (per-packet, batched, telemetry,
# depth, parallel lock modes) plus the classification hot path
# (BenchmarkClassifyHit guards the lock-free, zero-alloc flow-cache hit),
# benchstat-friendly: 5 repetitions each.
#   make bench > new.txt   # then: benchstat old.txt new.txt
bench:
	$(GO) test -run '^$$' -bench '^BenchmarkSchedule' -benchmem -count=5 .
	$(GO) test -run '^$$' -bench '^BenchmarkClassify' -benchmem -count=5 ./internal/classifier/

# Scaled figure/table regeneration benches + ablations.
bench-figures:
	$(GO) test -run '^$$' -bench . -benchmem .

# The benches guarded by the CI regression gate: the core batched hot
# path (plain, sharded inline, sharded parallel), the pifo scheduler
# family, the offload control plane's per-packet Observe path, and the
# scheduled slow path's per-packet admission.
# bench-json refreshes the committed baseline (run it on the reference
# machine when a deliberate perf change lands; on a noisy shared
# machine, capture $(BENCH_GATE) several times and emit from a merge
# that keeps each benchmark's slowest capture, so the baseline's
# best-of-N spans the noise band); bench-gate fails when any guarded
# benchmark's best-of-N ns/op regresses more than 12% past the
# baseline, or allocates at all (cmd/fvbenchstat -max-allocs 0 — the
# hot-path zero-allocation contract).
BENCH_GATE = $(GO) test -run '^$$' -bench 'ScheduleBatch32|OffloadUpdate|SlowPathEnqueue' -benchmem -count=5 . ./internal/pifo/ ./internal/nic/

bench-json:
	$(BENCH_GATE) | $(GO) run ./cmd/fvbenchstat -emit BENCH_pr10.json

bench-gate:
	$(BENCH_GATE) | $(GO) run ./cmd/fvbenchstat -baseline BENCH_pr10.json -match 'ScheduleBatch32|OffloadUpdate|SlowPathEnqueue' -threshold 0.12 -max-allocs 0

# Parallel scaling matrix: the fvbench wall-clock mode at increasing
# -procs (shards + producers). On a multi-core host throughput should
# scale toward linear; on a single core it demonstrates the sharded
# path adds no overhead.
bench-procs:
	@for p in 1 2 4 8; do $(GO) run ./cmd/fvbench -procs $$p -duration 2s; done

# Full-scale reproduction of the paper's evaluation.
reproduce:
	$(GO) run ./cmd/fvsim -experiment all
