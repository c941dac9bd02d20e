# Build, test and verification entry points. `make ci` is the gate every
# change must pass: vet, build, the full test suite under the race detector
# (the serving layer is concurrent, so -race is not optional), and the fuzz
# seed corpora as plain tests.

GO ?= go

.PHONY: all build vet test race fuzz-smoke smoke verify-campaign bench alloc-gate store-gate hetero-gate ft-gate serve ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race detector gates every serving-layer change; the whole tree runs
# under it, not just internal/server.
race:
	$(GO) test -race ./...

# Run the pinned fuzz seed corpora as regular tests (no fuzzing engine, no
# new inputs — a deterministic smoke check of the parsers).
fuzz-smoke:
	$(GO) test -run='^Fuzz' ./internal/stg ./internal/sched ./internal/power ./internal/server

# Build-and-run smoke: every example and every command executes end to end
# with quick arguments, so a main() that compiles but crashes on startup
# cannot slip through the unit-test gate. The benchmark harnesses write
# their reports into a scratch directory (a smoke run must not clobber the
# checked-in BENCH_*.json workflow), and lampsd runs for two seconds and has
# to drain cleanly on SIGINT.
smoke:
	@set -e; for ex in examples/*/; do \
		ls $$ex*.go >/dev/null 2>&1 || continue; \
		echo "== $$ex"; $(GO) run ./$$ex >/dev/null; done
	$(GO) run ./cmd/lamps -random 24 -seed 7 >/dev/null
	$(GO) run ./cmd/stggen -nodes 16 -method mix >/dev/null
	$(GO) run ./cmd/experiments -run fig3 -quick >/dev/null
	$(GO) run ./cmd/verifycamp -n 10 >/dev/null
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/sweepbench -out $$tmp/sweep.json >/dev/null; \
	$(GO) run ./cmd/corebench -repeat 1 -out $$tmp/core.json >/dev/null; \
	$(GO) run ./cmd/loadgen -smoke -out $$tmp/loadgen.json >/dev/null; \
	$(GO) build -o $$tmp/lampsd ./cmd/lampsd; \
	echo "== lampsd (2s, SIGINT drain)"; \
	timeout --preserve-status -s INT 2 $$tmp/lampsd -addr 127.0.0.1:0 2>/dev/null; \
	echo "== lampsd warm restart (-store-dir: populate, drain, restart, byte-identical)"; \
	req='{"approach":"lamps+ps","deadline_factor":2,"graph":{"tasks":[{"weight_cycles":3100000},{"weight_cycles":6200000},{"weight_cycles":4650000}],"edges":[[0,1],[0,2]]}}'; \
	getaddr() { sed -n 's/.*"msg":"listening","addr":"\([^"]*\)".*/\1/p' "$$1" | head -n1; }; \
	$$tmp/lampsd -addr 127.0.0.1:0 -store-dir $$tmp/store 2>$$tmp/log1 & pid=$$!; \
	addr=; for i in $$(seq 100); do addr=$$(getaddr $$tmp/log1); [ -n "$$addr" ] && break; sleep 0.1; done; \
	[ -n "$$addr" ] || { echo "lampsd did not start"; cat $$tmp/log1; exit 1; }; \
	curl -sf -d "$$req" "http://$$addr/v1/schedule" -o $$tmp/resp1.json; \
	kill -INT $$pid; wait $$pid; \
	$$tmp/lampsd -addr 127.0.0.1:0 -store-dir $$tmp/store 2>$$tmp/log2 & pid=$$!; \
	addr=; for i in $$(seq 100); do addr=$$(getaddr $$tmp/log2); [ -n "$$addr" ] && break; sleep 0.1; done; \
	[ -n "$$addr" ] || { echo "lampsd did not restart"; cat $$tmp/log2; exit 1; }; \
	src=$$(curl -sf -D - -d "$$req" "http://$$addr/v1/schedule" -o $$tmp/resp2.json | tr -d '\r' | sed -n 's/^X-Lamps-Cache: //p'); \
	curl -sf "http://$$addr/metrics" | grep -q '^lampsd_cache_hits_total 1' || { echo "warm restart: no cache hit recorded"; exit 1; }; \
	kill -INT $$pid; wait $$pid; \
	[ "$$src" = "hit" ] || { echo "warm restart: cache header '$$src', want hit"; exit 1; }; \
	cmp -s $$tmp/resp1.json $$tmp/resp2.json || { echo "warm restart: response bytes differ across restart"; exit 1; }

# The independent-verifier campaign: 200 random graphs re-checked from first
# principles (schedule legality, energy accounting, cross-heuristic and
# metamorphic invariants, mutation self-test). Deterministic — same seeds in
# CI and locally. The nightly workflow runs `verifycamp -long` instead.
verify-campaign:
	$(GO) run ./cmd/verifycamp -n 200
	$(GO) run ./cmd/verifycamp -faults -n 8 -factors 3,6 -mutate-every 2

# Micro-benchmarks plus the three benchmark harnesses: sweepbench writes
# per-cell latency percentiles and cold/warm sweep wall times to
# BENCH_sweep.json; corebench writes serial-vs-parallel engine wall times,
# speedups and before/after kernel micro-benchmarks (ns/op + allocs/op) to
# BENCH_core.json (and fails if the parallel engine's results diverge from
# the serial ones); loadgen drives the batch execution layer with a mixed
# closed/open-loop workload and writes throughput + latency percentiles to
# BENCH_loadgen.json, failing (exit 2) if the 4-worker closed-loop
# throughput drops below the 1-worker rate on a multicore host. -benchmem so
# every benchmark line carries allocs/op.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' . ./internal/core ./internal/sched ./internal/energy
	$(GO) run ./cmd/sweepbench -out BENCH_sweep.json
	$(GO) run ./cmd/corebench -out BENCH_core.json
	$(GO) run ./cmd/loadgen -out BENCH_loadgen.json

# The steady-state allocation gate: the reused scheduling kernel, the
# gap-profile evaluation and the warm fault-tolerant profile resets must not
# allocate at all once their buffers are warm; a warm RunBatch request must
# stay within its 8-alloc arena-backed per-request budget, and a warm K=1
# request within its own budget (the plain tail plus the backup plans it
# returns); and a warm /v1/schedule cache hit must stay within its
# handler-layer bound (decode + graph build + digest only — never a
# re-render), the same small constant for a 4-task and a 1000-task graph,
# so nothing on the front door allocates per task or per edge. These budgets are the strict (non--race) ones; the same tests
# run widened under `make race`. CI fails the build if any test reports
# allocations over its bound.
alloc-gate:
	$(GO) test -run 'TestScheduleIntoSteadyStateZeroAlloc' -count=1 -v ./internal/sched
	$(GO) test -run 'TestGapProfileEvaluateZeroAlloc|TestResetFTSteadyStateZeroAlloc' -count=1 -v ./internal/energy
	$(GO) test -run 'TestRunBatchSteadyStateZeroAlloc|TestRunBatchFaultsSteadyStateAllocBound' -count=1 -v ./internal/core
	$(GO) test -run 'TestScheduleWarmCacheHitAllocBound' -count=1 -v ./internal/server

# The heterogeneous-platform gate. The parity half is the tentpole
# behaviour-preservation contract: an N-identical-core Platform must produce
# results byte-identical to the legacy single-model configuration at every
# layer — kernel placements, energy breakdowns bit for bit, engine results
# and stats — and both kernels must match their frozen heap-based
# references on the fuzz seed corpus. The invariant half holds the genuinely heterogeneous path to
# the independent verifier (scaled-slot legality, first-principles energy,
# LIMIT bounds, the HP-core feasibility separation) and to the platform
# digest/serving contract. Under -race: the engine evaluates platform
# candidates from many goroutines.
hetero-gate:
	$(GO) test -race -run 'TestScheduleIntoPlatformHomogeneousParity|FuzzScheduleIntoMatchesReference|TestEvaluatePointHomogeneousParity|TestMinFeasiblePointHomogeneousParity' -count=1 -v ./internal/sched ./internal/energy
	$(GO) test -race -run 'TestHomogeneousPlatformParity|TestHeterogeneous|TestHetero' -count=1 -v ./internal/core
	$(GO) test -race -run 'TestPlatformEnergyParity|TestSelfTestPlatformDetectsEveryClass' -count=1 -v ./internal/verify
	$(GO) test -race -run 'TestPlatform' -count=1 -v ./internal/graphhash
	$(GO) test -race -run 'TestSchedulePlatform' -count=1 -v ./internal/server

# The persistence and overload gate: the segment-log store must round-trip
# byte-identical records, drop truncated or corrupt tails at every byte
# boundary, and skip stale-stamp segments; the serving layer must warm-load
# persisted results across a restart and derive Retry-After from observed
# queue waits rather than a constant. Run by name with -count=1 so the
# crash-recovery sweep executes on every invocation, and under -race where
# the serving layer is involved.
store-gate:
	$(GO) test -run 'TestRoundTrip|TestTruncationAtEveryByteBoundary|TestChecksumMismatchDropsTail|TestMidSegmentCorruptionKeepsPrefixOnly|TestStaleStampSkipsSegment' -count=1 -v ./internal/store
	$(GO) test -race -run 'TestPersistenceAcrossServers|TestPersistenceSkipsStaleStamp|TestRetryAfterReflectsQueueWait|TestQueueFullReturns429' -count=1 -v ./internal/server
	$(GO) test -race -run 'TestWarmRestartServesPersistedResults' -count=1 -v ./cmd/lampsd

# The fault-tolerance gate. The parity half is the tentpole
# behaviour-preservation contract: a Faults block with K=0 must be
# byte-identical to no block at all across all six approaches, homogeneous
# and heterogeneous, end to end through the serving layer. The invariant
# half holds the K≥1 path to the independent verifier — backup-plan
# legality, bit-identical placement against the linear-scan reference
# planner (random graphs plus the fuzz seed corpus), bit-for-bit FT
# energy, simulator/verifier agreement on replayed fault patterns,
# detection of every backup corruption class — and to the digest/serving
# contract (distinct keys per K and policy, byte-stable bodies through
# cache, singleflight and a store warm restart, under -race).
ft-gate:
	$(GO) test -run 'TestPlanBackups|TestBackupPlan|FuzzBackupPlanMatchesReference' -count=1 -v ./internal/sched
	$(GO) test -run 'TestResetFT|TestResetPlatformFT' -count=1 -v ./internal/energy
	$(GO) test -run 'TestSelfTestFaults|TestFaultPlan' -count=1 -v ./internal/verify
	$(GO) test -run 'TestReplayFaults' -count=1 -v ./internal/sim
	$(GO) test -race -run 'TestFaults' -count=1 -v ./internal/core ./internal/graphhash ./internal/verify/campaign
	$(GO) test -race -run 'TestFaults' -count=1 -v ./internal/server

# Run the scheduling service locally.
serve:
	$(GO) run ./cmd/lampsd -addr :8080

ci: vet build race fuzz-smoke
