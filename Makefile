# Build, test and verification entry points. `make ci` is the gate every
# change must pass: vet, build, the full test suite under the race detector
# (the serving layer is concurrent, so -race is not optional), and the fuzz
# seed corpora as plain tests.

GO ?= go

.PHONY: all build vet test race fuzz-smoke smoke verify-campaign bench alloc-gate store-gate parity-gate gate-check serve ci

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
	$(GO) test -run='^Fuzz' ./internal/stg ./internal/sched ./internal/power ./internal/graphhash ./internal/frames ./internal/server

# Build-and-run smoke: every example and every command executes end to end
# with quick arguments, so a main() that compiles but crashes on startup
# cannot slip through the unit-test gate. corebench writes its report into
# a scratch directory (a smoke run must not clobber the checked-in
# BENCH_core.json), and lampsd runs for two seconds and has to drain cleanly
# on SIGINT.
smoke:
	@set -e; for ex in examples/*/; do \
		ls $$ex*.go >/dev/null 2>&1 || continue; \
		echo "== $$ex"; $(GO) run ./$$ex >/dev/null; done
	$(GO) run ./cmd/lamps -random 24 -seed 7 >/dev/null
	$(GO) run ./cmd/stggen -nodes 16 -method mix >/dev/null
	$(GO) run ./cmd/experiments -run fig3 -quick >/dev/null
	$(GO) run ./cmd/verifycamp -n 10 >/dev/null
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/corebench -repeat 1 -out $$tmp/core.json >/dev/null; \
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

# Micro-benchmarks (-benchmem, so every line carries allocs/op) plus the
# in-process benchmark harness. corebench writes BENCH_core.json: serial vs
# parallel engine wall times per graph and approach, the same for a mixed
# 64-request RunBatch batch, and kernel rows (ns/op best of -repeat, plus
# allocs/op) from the scheduling kernels up to a 48-cell /v1/sweep through
# the in-process handler. It fails (exit 1) if a parallel result diverges
# from the serial one, and (exit 2) if the batch runs slower on the worker
# pool than on one worker on a multicore host. Real loopback HTTP to lampsd
# is measured by lampsbench.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' . ./internal/core ./internal/sched ./internal/energy
	$(GO) run ./cmd/corebench -out BENCH_core.json

# The steady-state allocation gate: the reused scheduling kernel, the
# gap-profile evaluation and the warm fault-tolerant profile resets must not
# allocate at all once their buffers are warm; a warm RunBatch request must
# stay within its 8-alloc arena-backed per-request budget, and a warm K=1
# request within its own budget (the plain tail plus the backup plans it
# returns); a warm request served from the schedule memo must allocate
# exactly the plain tail — the key digest and restores add nothing — and a
# warm K=1 request served schedules and backup plans from the memo exactly
# that tail plus the one plan it detaches into its result; a warm LIMIT
# bound allocates its result alone; and a
# warm /v1/schedule cache hit must stay within its
# handler-layer bound (never a re-render), the same small constant for a
# 4-task and a 1000-task graph served from the intern table, and its own
# constant for a 1000-task graph renamed on every request, which misses
# the table and so is decoded, built and stored each time — so nothing on
# the front door allocates per task or per edge. These budgets are the strict (non--race) ones; the same tests
# run widened under `make race`. CI fails the build if any test reports
# allocations over its bound.
alloc-gate:
	$(GO) test -run 'TestScheduleIntoSteadyStateZeroAlloc' -count=1 -v ./internal/sched
	$(GO) test -run 'TestGapProfileEvaluateZeroAlloc|TestResetFTSteadyStateZeroAlloc' -count=1 -v ./internal/energy
	$(GO) test -run 'TestRunBatchSteadyStateZeroAlloc|TestRunBatchMemoWarmHitAllocs|TestRunBatchFaultsSteadyStateAllocBound|TestRunBatchFaultsMemoWarmAllocs|TestLimitBoundsSteadyStateAllocs' -count=1 -v ./internal/core
	$(GO) test -run 'TestScheduleWarmCacheHitAllocBound' -count=1 -v ./internal/server

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

# The parity gate: the heterogeneous-platform and fault-tolerance contracts.
# The parity half is the behaviour-preservation contract: an
# N-identical-core Platform must produce results byte-identical to the
# single-model configuration at every layer — kernel placements, energy
# breakdowns bit for bit, engine results and stats — a Faults block with
# K=0 must be byte-identical to no block at all across all six approaches,
# homogeneous and heterogeneous, end to end through the serving layer, every
# homogeneous K∈{0,1} result must match the frozen golden file
# (TestHomogeneousGolden), and both list-scheduling kernels and the backup
# planner must match their frozen reference implementations on the fuzz seed
# corpus. The invariant half holds the genuinely heterogeneous and the K≥1
# paths to the independent verifier: scaled-slot legality, the one
# first-principles energy walk (with a backup plan where there is one) on
# one-class and LP/HP inputs, the mutation self-tests including every backup
# corruption class, LIMIT bounds, the HP-core feasibility separation, the
# scaled-slot cycle envelope, backup-plan legality, simulator/verifier
# agreement on replayed fault patterns — and to the digest/serving contract:
# distinct keys per platform, K and policy, byte-stable bodies through cache,
# singleflight and a store warm restart, and the schedule-handler fuzz
# seeds. The engine evaluates candidates from many goroutines, so the
# engine, verifier, digest and serving lines run under -race.
parity-gate:
	$(GO) test -run 'TestPlanBackups|TestBackupPlan|FuzzBackupPlanMatchesReference' -count=1 -v ./internal/sched
	$(GO) test -run 'TestResetFT|TestResetPlatformFT' -count=1 -v ./internal/energy
	$(GO) test -run 'TestSelfTestFaults|TestFaultPlan' -count=1 -v ./internal/verify
	$(GO) test -run 'TestReplayFaults' -count=1 -v ./internal/sim
	$(GO) test -race -run 'TestScheduleIntoPlatformHomogeneousParity|FuzzScheduleIntoMatchesReference|TestEvaluatePointHomogeneousParity|TestMinFeasiblePointHomogeneousParity' -count=1 -v ./internal/sched ./internal/energy
	$(GO) test -race -run 'TestHomogeneousPlatformParity|TestHomogeneousGolden|TestHeterogeneous|TestHetero|TestFaults' -count=1 -v ./internal/core
	$(GO) test -race -run 'TestEnergyParity|TestPlatformEnergyParity|TestSelfTestDetectsEveryClass|TestSelfTestPlatformDetectsEveryClass' -count=1 -v ./internal/verify
	$(GO) test -race -run 'TestPlatform|TestFaults' -count=1 -v ./internal/graphhash
	$(GO) test -race -run 'TestFaults' -count=1 -v ./internal/verify/campaign
	$(GO) test -race -run 'TestSchedulePlatform|TestFaults|FuzzScheduleHandler' -count=1 -v ./internal/server

# A -run pattern that matches no test passes silently, so a renamed test
# would drop out of its gate unnoticed. This check lists, for every
# |-separated alternative of every gate line's -run pattern, the tests it
# selects in that line's packages (go test -list), and fails if any
# alternative selects none.
gate-check:
	@$(MAKE) -s -n alloc-gate parity-gate store-gate | grep -e " -run '" | { bad=0; n=0; \
	while read -r line; do \
		pat=$$(echo "$$line" | sed -n "s/.* -run '\([^']*\)'.*/\1/p"); \
		pkgs=$$(echo "$$line" | tr ' ' '\n' | grep '^\./'); \
		for alt in $$(echo "$$pat" | tr '|' ' '); do \
			n=$$((n+1)); \
			$(GO) test -list "$$alt" $$pkgs | grep -q '^\(Test\|Fuzz\|Benchmark\|Example\)' || \
				{ echo "gate-check: -run alternative '$$alt' selects no test in" $$pkgs; bad=1; }; \
		done; \
	done; [ $$bad = 0 ] && echo "gate-check: all $$n -run alternatives select a test"; exit $$bad; }

# Run the scheduling service locally.
serve:
	$(GO) run ./cmd/lampsd -addr :8080

ci: vet build race fuzz-smoke
