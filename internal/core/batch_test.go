package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"lamps/internal/dag"
	"lamps/internal/power"
	"lamps/internal/taskgen"
	"lamps/internal/workpool"
)

// batchWorkload builds a deterministic mixed batch: several seeded random
// graphs of different sizes, every approach, and a spread of deadline
// factors including an infeasible one (factor < 1 means even f_max cannot
// meet the deadline on the critical path) and an invalid config (negative
// deadline), so the parity test covers the full error taxonomy.
func batchWorkload(t testing.TB) []BatchRequest {
	t.Helper()
	m := power.Default70nm()
	var reqs []BatchRequest
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 20+int(seed)*12, 0.08, coarseWeight)
		for i, approach := range Approaches {
			factor := []float64{1.5, 2, 4}[i%3]
			reqs = append(reqs, BatchRequest{
				Approach: approach,
				Graph:    g,
				Config:   DeadlineFactor(g, m, factor),
			})
		}
		// One infeasible and one invalid request per graph.
		reqs = append(reqs,
			BatchRequest{Approach: ApproachLAMPS, Graph: g, Config: DeadlineFactor(g, m, 0.5)},
			BatchRequest{Approach: ApproachSS, Graph: g, Config: Config{Model: m, Deadline: -1}},
		)
	}
	return reqs
}

// TestRunBatchDeterminismParity is the batch determinism gate: for workers
// ∈ {1, 4, GOMAXPROCS}, RunBatch must return, slot for slot, exactly what
// N serial RunCtx calls return — the same rendered bytes (energy, level,
// processor count, schedule, Stats) for successes and the same error
// taxonomy and message for failures. Run under -race: the whole point of
// the batch layer is request-granularity concurrency.
func TestRunBatchDeterminismParity(t *testing.T) {
	reqs := batchWorkload(t)

	// The serial oracle: one RunCtx call per request.
	type oracle struct {
		body []byte
		err  error
	}
	want := make([]oracle, len(reqs))
	for i, req := range reqs {
		r, err := RunCtx(context.Background(), req.Approach, req.Graph, req.Config)
		if err != nil {
			want[i] = oracle{err: err}
			continue
		}
		want[i] = oracle{body: renderForDiff(t, r)}
	}

	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, workers := range workerCounts {
		eng := Engine{Pool: workpool.NewPool(workers)}
		got := eng.RunBatch(context.Background(), reqs)
		if len(got) != len(reqs) {
			t.Fatalf("workers=%d: %d results for %d requests", workers, len(got), len(reqs))
		}
		for i, br := range got {
			w := want[i]
			if (br.Err == nil) != (w.err == nil) {
				t.Fatalf("workers=%d slot %d (%s): batch err %v, serial err %v",
					workers, i, reqs[i].Approach, br.Err, w.err)
			}
			if w.err != nil {
				if br.Err.Error() != w.err.Error() {
					t.Errorf("workers=%d slot %d: batch error %q, serial error %q",
						workers, i, br.Err, w.err)
				}
				// Same taxonomy, not just same text: sentinel matching must
				// agree so the serving layer classifies both identically.
				for _, sentinel := range []error{ErrInfeasible, ErrBadConfig} {
					if errors.Is(br.Err, sentinel) != errors.Is(w.err, sentinel) {
						t.Errorf("workers=%d slot %d: errors.Is(%v) disagrees between batch and serial", workers, i, sentinel)
					}
				}
				continue
			}
			if !bytes.Equal(renderForDiff(t, br.Result), w.body) {
				t.Errorf("workers=%d slot %d (%s): batch result differs from serial\nbatch:  %s\nserial: %s",
					workers, i, reqs[i].Approach, renderForDiff(t, br.Result), w.body)
			}
		}
		if got := eng.Pool.InFlight(); got != 0 {
			t.Errorf("workers=%d: pool still holds %d slots after RunBatch returned", workers, got)
		}
	}
}

// TestRunBatchSerialEngine: a nil-pool engine runs the batch serially with
// identical results — the degenerate case the parallel path must match.
func TestRunBatchSerialEngine(t *testing.T) {
	reqs := batchWorkload(t)[:8]
	serial := (&Engine{}).RunBatch(context.Background(), reqs)
	parallel := (&Engine{Pool: workpool.NewPool(4)}).RunBatch(context.Background(), reqs)
	for i := range reqs {
		if (serial[i].Err == nil) != (parallel[i].Err == nil) {
			t.Fatalf("slot %d: serial err %v, parallel err %v", i, serial[i].Err, parallel[i].Err)
		}
		if serial[i].Err != nil {
			continue
		}
		if !bytes.Equal(renderForDiff(t, serial[i].Result), renderForDiff(t, parallel[i].Result)) {
			t.Errorf("slot %d: nil-pool and pooled batch results differ", i)
		}
	}
}

// TestRunBatchEmpty: an empty batch returns nil without touching the pool.
func TestRunBatchEmpty(t *testing.T) {
	eng := Engine{Pool: workpool.NewPool(2)}
	if got := eng.RunBatch(context.Background(), nil); got != nil {
		t.Fatalf("RunBatch(nil) = %v, want nil", got)
	}
}

// TestRunBatchPanicIsolation: a heuristic panicking on one request poisons
// only that request's slot (ErrBatchPanic); every other request of the
// batch completes normally. The panic trigger is a custom priority policy,
// the injection point the engine exposes for a specific graph.
func TestRunBatchPanicIsolation(t *testing.T) {
	m := power.Default70nm()
	g := buildFig4a(t, coarseWeight)
	bomb := buildFig4a(t, coarseWeight)
	good := DeadlineFactor(g, m, 2)
	evil := DeadlineFactor(bomb, m, 2)
	evil.Priorities = func(*dag.Graph) []int64 { panic("boom") }

	reqs := []BatchRequest{
		{Approach: ApproachLAMPS, Graph: g, Config: good},
		{Approach: ApproachLAMPS, Graph: bomb, Config: evil},
		{Approach: ApproachSSPS, Graph: g, Config: good},
	}
	for _, workers := range []int{0, 2} { // 0 = nil pool (serial)
		eng := Engine{}
		if workers > 0 {
			eng.Pool = workpool.NewPool(workers)
		}
		got := eng.RunBatch(context.Background(), reqs)
		if got[1].Err == nil || !errors.Is(got[1].Err, ErrBatchPanic) {
			t.Fatalf("workers=%d: panicking request err = %v, want ErrBatchPanic", workers, got[1].Err)
		}
		for _, i := range []int{0, 2} {
			if got[i].Err != nil {
				t.Errorf("workers=%d: request %d failed alongside the panicking one: %v", workers, i, got[i].Err)
			}
			if got[i].Result == nil || got[i].Result.TotalEnergy() <= 0 {
				t.Errorf("workers=%d: request %d returned no usable result", workers, i)
			}
		}
	}
}

// TestRunBatchCancelledContext: with ctx already done, every slot reports
// the context error and no heuristic runs at all.
func TestRunBatchCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var runs atomic.Int32
	g := buildFig4a(t, coarseWeight)
	cfg := DeadlineFactor(g, power.Default70nm(), 2)
	cfg.Priorities = func(gr *dag.Graph) []int64 {
		runs.Add(1)
		return nil
	}
	reqs := []BatchRequest{
		{Approach: ApproachLAMPS, Graph: g, Config: cfg},
		{Approach: ApproachSS, Graph: g, Config: cfg},
	}
	for _, pool := range []*workpool.Pool{nil, workpool.NewPool(2)} {
		eng := Engine{Pool: pool}
		for i, br := range eng.RunBatch(ctx, reqs) {
			if !errors.Is(br.Err, context.Canceled) {
				t.Errorf("pool=%v slot %d: err = %v, want context.Canceled", pool != nil, i, br.Err)
			}
			if br.Result != nil {
				t.Errorf("pool=%v slot %d: got a result from a cancelled batch", pool != nil, i)
			}
		}
	}
	if n := runs.Load(); n != 0 {
		t.Errorf("%d heuristic runs executed under an already-cancelled context", n)
	}
}

// TestRunBatchMidBatchCancellation: cancelling the batch context while the
// serial batch is inside request 0 makes request 0 abort cooperatively and
// every later request complete with the context error without starting.
func TestRunBatchMidBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m := power.Default70nm()
	g := buildFig4a(t, coarseWeight)
	var started atomic.Int32
	cfg := DeadlineFactor(g, m, 2)
	cfg.Priorities = func(gr *dag.Graph) []int64 {
		started.Add(1)
		cancel() // fires during request 0's run
		return nil
	}
	reqs := make([]BatchRequest, 4)
	for i := range reqs {
		reqs[i] = BatchRequest{Approach: ApproachLAMPS, Graph: g, Config: cfg}
	}
	got := (&Engine{}).RunBatch(ctx, reqs)
	if !errors.Is(got[0].Err, context.Canceled) {
		t.Errorf("request 0: err = %v, want context.Canceled (cooperative abort)", got[0].Err)
	}
	for i := 1; i < len(got); i++ {
		if !errors.Is(got[i].Err, context.Canceled) {
			t.Errorf("request %d: err = %v, want context.Canceled", i, got[i].Err)
		}
	}
	if n := started.Load(); n != 1 {
		t.Errorf("%d requests started after cancellation; only request 0 should have run", n)
	}
}

// TestRunBatchSteadyStateZeroAlloc is the batch half of the CI alloc gate:
// once the scratch pools are warm, the per-request allocation count of the
// batch hot loop must stay bounded by a small constant — the Result
// assembly and memoised schedules the API must hand out — rather than
// growing with re-allocated kernels, profiles or priority slices. The
// bound is deliberately loose against Go-version drift but tight enough
// that losing scratch reuse (one kernel re-allocation is ~10 allocs, a
// gap-profile rebuild more) fails it.
func TestRunBatchSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate skipped in -short mode")
	}
	m := power.Default70nm()
	g := buildFig4a(t, coarseWeight)
	reqs := []BatchRequest{
		{Approach: ApproachLAMPS, Graph: g, Config: DeadlineFactor(g, m, 2)},
		{Approach: ApproachLAMPSPS, Graph: g, Config: DeadlineFactor(g, m, 2)},
	}
	eng := Engine{} // serial: measure the per-request loop itself, not goroutine scheduling
	ctx := context.Background()

	// Warm the kernel and profile pools.
	for i := 0; i < 5; i++ {
		for _, br := range eng.RunBatch(ctx, reqs) {
			if br.Err != nil {
				t.Fatal(br.Err)
			}
		}
	}
	const rounds = 50
	avg := testing.AllocsPerRun(rounds, func() {
		for _, br := range eng.RunBatch(ctx, reqs) {
			if br.Err != nil {
				t.Fatal(br.Err)
			}
		}
	})
	perRequest := avg / float64(len(reqs))
	// The warm budget is the irreducible per-request tail: the Result and its
	// CloneCompact-detached schedule (4 allocs), the per-phase worker
	// closures, and the batch's own result slice. Everything else — kernels,
	// profiles, priorities, candidate/pair slices, schedule shells — comes
	// from the request arena and must not allocate at steady state. The race
	// detector's instrumentation forces extra escapes, so -race runs only
	// enforce the pre-arena bound; `make alloc-gate` builds without -race and
	// holds the strict one.
	maxAllocsPerRequest := 8.0
	if raceEnabled {
		maxAllocsPerRequest = 60
	}
	if perRequest > maxAllocsPerRequest {
		t.Errorf("batch hot loop allocates %.1f allocs/request, want <= %g — per-request scratch reuse regressed",
			perRequest, maxAllocsPerRequest)
	}
	t.Logf("batch steady state: %.1f allocs/request", perRequest)
}

// TestRunBatchMemoWarmHitAllocs is the schedule-memo half of the CI alloc
// gate: a warm request whose every schedule is restored from a shared
// memo — key digest, lookups and restores into recycled shells — must
// allocate exactly what a warm request without a memo does: the Result
// tail of TestRunBatchSteadyStateZeroAlloc (6.5 allocs per request, 13 per
// LAMPS + LAMPS+PS pair). The count is pinned exactly, so a key or
// restore that starts allocating fails it.
func TestRunBatchMemoWarmHitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate skipped in -short mode")
	}
	m := power.Default70nm()
	g := buildFig4a(t, coarseWeight)
	reqs := []BatchRequest{
		{Approach: ApproachLAMPS, Graph: g, Config: DeadlineFactor(g, m, 2)},
		{Approach: ApproachLAMPSPS, Graph: g, Config: DeadlineFactor(g, m, 2)},
	}
	memo := NewScheduleMemo()
	eng := Engine{Memo: memo} // serial, like TestRunBatchSteadyStateZeroAlloc
	ctx := context.Background()
	run := func() {
		for _, br := range eng.RunBatch(ctx, reqs) {
			if br.Err != nil {
				t.Fatal(br.Err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		run()
	}
	before := memo.Stats()
	const rounds = 50
	perRequest := testing.AllocsPerRun(rounds, run) / float64(len(reqs))
	if st := memo.Stats(); st.Misses != before.Misses || st.Hits == before.Hits {
		t.Fatalf("warm requests were not served from the memo: %+v then %+v", before, st)
	}
	const want = 6.5
	if raceEnabled {
		if perRequest > 60 {
			t.Errorf("memo-hit request allocates %.1f allocs/request under -race, want <= 60", perRequest)
		}
	} else if perRequest != want {
		t.Errorf("memo-hit request allocates %.1f allocs/request, want exactly %g", perRequest, want)
	}
	t.Logf("memo-hit steady state: %.1f allocs/request", perRequest)
}

// TestRunBatchFaultsSteadyStateAllocBound is the K=1 counterpart of
// TestRunBatchSteadyStateZeroAlloc, homogeneous and on a heterogeneous
// platform: on top of the plain per-request tail, a fault-tolerant request
// pays only for the backup plans themselves — one plan struct and its two
// backing arrays per candidate processor count, which the winning
// candidate's Result keeps. Planner scratch comes from a pool and the FT
// gap-profile reset merges the planner's per-processor index instead of
// sorting, so neither allocates once warm.
func TestRunBatchFaultsSteadyStateAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate skipped in -short mode")
	}
	m := power.Default70nm()
	pf := heteroTestPlatform(t)
	g := buildFig4a(t, coarseWeight)
	ft := func(cfg Config, policy FaultPolicy) Config {
		cfg.Faults = &FaultConfig{K: 1, Policy: policy}
		return cfg
	}
	cases := []struct {
		name   string
		reqs   []BatchRequest
		budget float64 // strict (non-race) allocs per request
	}{
		{"model", []BatchRequest{
			{Approach: ApproachLAMPS, Graph: g, Config: ft(DeadlineFactor(g, m, 3), FaultBackupAnywhere)},
			{Approach: ApproachLAMPSPS, Graph: g, Config: ft(DeadlineFactor(g, m, 3), FaultBackupAnywhere)},
		}, 14},
		{"platform", []BatchRequest{
			{Approach: ApproachLAMPS, Graph: g, Config: ft(DeadlineFactorPlatform(g, pf, 3), FaultPrimaryHPBackupLP)},
			{Approach: ApproachLAMPSPS, Graph: g, Config: ft(DeadlineFactorPlatform(g, pf, 3), FaultBackupAnywhere)},
		}, 17},
	}
	eng := Engine{} // serial: measure the per-request loop itself, not goroutine scheduling
	ctx := context.Background()
	for _, tc := range cases {
		run := func() {
			for _, br := range eng.RunBatch(ctx, tc.reqs) {
				if br.Err != nil {
					t.Fatal(br.Err)
				}
				if br.Result.Backups == nil {
					t.Fatalf("%s: K=1 result carries no backup plan", tc.name)
				}
			}
		}
		for i := 0; i < 5; i++ {
			run()
		}
		perRequest := testing.AllocsPerRun(50, run) / float64(len(tc.reqs))
		budget := tc.budget
		if raceEnabled {
			budget = 80
		}
		if perRequest > budget {
			t.Errorf("%s: fault-tolerant batch hot loop allocates %.1f allocs/request, want <= %g — planner or FT profile scratch reuse regressed",
				tc.name, perRequest, budget)
		}
		t.Logf("%s: fault-tolerant batch steady state: %.1f allocs/request", tc.name, perRequest)
	}
}

// TestRunBatchFaultsMemoWarmAllocs is the backup-plan half of the memo
// alloc gate: a warm K=1 request whose every schedule and backup plan is
// restored from a shared memo allocates exactly what the same request
// without faults does from a warm memo, plus the winning plan it detaches
// into the Result (one plan struct and its two arrays) — whatever the
// candidate count, since a losing candidate's plan is unpacked into pooled
// scratch only while it is profiled.
func TestRunBatchFaultsMemoWarmAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate skipped in -short mode")
	}
	m := power.Default70nm()
	pf := heteroTestPlatform(t)
	small := buildFig4a(t, coarseWeight)
	wide := randomGraph(rand.New(rand.NewSource(12)), 48, 0.08, coarseWeight)
	reqs := func(g *dag.Graph, cfg Config, k int, policies ...FaultPolicy) []BatchRequest {
		var out []BatchRequest
		for i, approach := range []string{ApproachLAMPS, ApproachLAMPSPS} {
			c := cfg
			c.Faults = &FaultConfig{K: k, Policy: policies[i]}
			out = append(out, BatchRequest{Approach: approach, Graph: g, Config: c})
		}
		return out
	}
	// perRequest returns the warm allocs per request and the memo's counter
	// movement over the measured runs.
	perRequest := func(memo *ScheduleMemo, reqs []BatchRequest) (float64, MemoStats) {
		eng := Engine{Memo: memo} // serial: measure the request loop, not goroutine scheduling
		run := func() {
			for _, br := range eng.RunBatch(context.Background(), reqs) {
				if br.Err != nil {
					t.Fatal(br.Err)
				}
			}
		}
		for i := 0; i < 5; i++ {
			run()
		}
		before := memo.Stats()
		allocs := testing.AllocsPerRun(50, run) / float64(len(reqs))
		after := memo.Stats()
		return allocs, MemoStats{
			Misses:     after.Misses - before.Misses,
			PlanHits:   after.PlanHits - before.PlanHits,
			PlanMisses: after.PlanMisses - before.PlanMisses,
		}
	}
	const detachedPlan = 3
	// The 48-task graph's deadline is loose enough that every candidate is
	// recovery-feasible: an infeasible candidate's error allocates, and
	// only on the K=1 side.
	for _, tc := range []struct {
		name     string
		g        *dag.Graph
		cfg      Config
		policies []FaultPolicy
	}{
		{"model/fig4a", small, DeadlineFactor(small, m, 3), []FaultPolicy{FaultBackupAnywhere, FaultBackupAnywhere}},
		{"model/48 tasks", wide, DeadlineFactor(wide, m, 8), []FaultPolicy{FaultBackupAnywhere, FaultPrimaryHPBackupLP}},
		{"platform/fig4a", small, DeadlineFactorPlatform(small, pf, 3), []FaultPolicy{FaultPrimaryHPBackupLP, FaultBackupAnywhere}},
	} {
		memo := NewScheduleMemo()
		plain, _ := perRequest(memo, reqs(tc.g, tc.cfg, 0, tc.policies...))
		ft, warm := perRequest(memo, reqs(tc.g, tc.cfg, 1, tc.policies...))
		if warm.Misses != 0 || warm.PlanMisses != 0 || warm.PlanHits == 0 {
			t.Fatalf("%s: warm K=1 requests were not served from the memo: %+v", tc.name, warm)
		}
		if raceEnabled {
			// The race detector's instrumentation forces escapes and sync.Pool
			// drops a share of its items at random, more so the more
			// candidates a request profiles: only a loose bound holds there.
			if ft > 160 {
				t.Errorf("%s: memo-warm K=1 request allocates %.1f allocs/request under -race, want <= 160", tc.name, ft)
			}
		} else if ft != plain+detachedPlan {
			t.Errorf("%s: memo-warm K=1 request allocates %.1f allocs/request, want exactly %g (K=0 tail %g + detached plan %d)",
				tc.name, ft, plain+detachedPlan, plain, detachedPlan)
		}
		t.Logf("%s: memo-warm K=1 steady state: %.1f allocs/request, %d plans restored (K=0: %.1f)", tc.name, ft, warm.PlanHits, plain)
	}
}

// TestLimitBoundsSteadyStateAllocs is the LIMIT half of the alloc gate: a
// warm LIMIT-SF or LIMIT-MF run on a model — no platform configured —
// reuses a pooled arena's one-class platform instead of building one, so
// it allocates its Result and nothing else.
func TestLimitBoundsSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate skipped in -short mode")
	}
	g := taskgen.Coarse.Scale(taskgen.Applications()[0])
	for _, approach := range []string{ApproachLimitSF, ApproachLimitMF} {
		eng := Engine{Config: DeadlineFactor(g, nil, 2)}
		run := func() {
			if _, err := eng.Run(context.Background(), approach, g); err != nil {
				t.Fatal(err)
			}
		}
		run()
		allocs := testing.AllocsPerRun(100, run)
		budget := 1.0
		if raceEnabled {
			budget = 10
		}
		if allocs > budget {
			t.Errorf("%s: warm run allocates %.1f times, want <= %g — the bound rebuilds its machine", approach, allocs, budget)
		}
		t.Logf("%s: %.1f allocs/run", approach, allocs)
	}
}

// TestRunBatchErrorsDoNotLeakDirtyArenas: requests that fail — invalid
// configs, infeasible deadlines, cancelled contexts — recycle their arenas
// through the same pool as successful ones. If an error path ever returned
// an arena without resetting it (stale schedules, candidate slices pointing
// at the wrong graph), the interleaved good requests here would diverge
// from the serial oracle. Every good slot is byte-compared against a
// fresh-engine result after each error-heavy round.
func TestRunBatchErrorsDoNotLeakDirtyArenas(t *testing.T) {
	m := power.Default70nm()
	gA := buildFig4a(t, coarseWeight)
	rng := rand.New(rand.NewSource(99))
	gB := randomGraph(rng, 40, 0.08, coarseWeight)

	reqs := []BatchRequest{
		{Approach: ApproachLAMPSPS, Graph: gA, Config: DeadlineFactor(gA, m, 2)},
		{Approach: ApproachLAMPS, Graph: gB, Config: DeadlineFactor(gB, m, 0.5)}, // infeasible
		{Approach: ApproachLAMPS, Graph: gB, Config: DeadlineFactor(gB, m, 1.5)},
		{Approach: ApproachSS, Graph: gA, Config: Config{Model: m, Deadline: -1}}, // invalid
		{Approach: ApproachSSPS, Graph: gB, Config: DeadlineFactor(gB, m, 4)},
	}
	good := map[int][]byte{}
	for i, req := range reqs {
		if r, err := RunCtx(context.Background(), req.Approach, req.Graph, req.Config); err == nil {
			good[i] = renderForDiff(t, r)
		}
	}
	if len(good) != 3 {
		t.Fatalf("workload has %d good requests, want 3", len(good))
	}
	for _, pool := range []*workpool.Pool{nil, workpool.NewPool(3)} {
		eng := Engine{Pool: pool}
		for round := 0; round < 8; round++ {
			got := eng.RunBatch(context.Background(), reqs)
			for i, want := range good {
				if got[i].Err != nil {
					t.Fatalf("pool=%v round %d slot %d: unexpected error %v", pool != nil, round, i, got[i].Err)
				}
				if !bytes.Equal(renderForDiff(t, got[i].Result), want) {
					t.Fatalf("pool=%v round %d slot %d: result diverged after error-path arena reuse", pool != nil, round, i)
				}
			}
			for _, i := range []int{1, 3} {
				if got[i].Err == nil {
					t.Fatalf("pool=%v round %d slot %d: error request succeeded", pool != nil, round, i)
				}
			}
		}
	}
}

// TestRunBatchPanicsDoNotRecycleArenas: a panicking request must drop its
// arena rather than recycle it — the panic may have interrupted any
// invariant, so a pooled dirty arena could corrupt an unrelated later
// request. The rounds alternate panicking and clean batches and byte-compare
// every clean result against the serial oracle; with cancellation mixed in,
// this extends the TestRunBatchMidBatchCancellation family to arena hygiene.
func TestRunBatchPanicsDoNotRecycleArenas(t *testing.T) {
	m := power.Default70nm()
	g := buildFig4a(t, coarseWeight)
	bomb := buildFig4a(t, coarseWeight)
	good := DeadlineFactor(g, m, 2)
	evil := DeadlineFactor(bomb, m, 2)
	evil.Priorities = func(*dag.Graph) []int64 { panic("boom") }

	reqs := []BatchRequest{
		{Approach: ApproachLAMPSPS, Graph: g, Config: good},
		{Approach: ApproachLAMPS, Graph: bomb, Config: evil},
		{Approach: ApproachLAMPS, Graph: g, Config: good},
	}
	want := map[int][]byte{}
	for _, i := range []int{0, 2} {
		r, err := RunCtx(context.Background(), reqs[i].Approach, reqs[i].Graph, reqs[i].Config)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = renderForDiff(t, r)
	}
	for _, workers := range []int{0, 2} {
		eng := Engine{}
		if workers > 0 {
			eng.Pool = workpool.NewPool(workers)
		}
		for round := 0; round < 8; round++ {
			got := eng.RunBatch(context.Background(), reqs)
			if !errors.Is(got[1].Err, ErrBatchPanic) {
				t.Fatalf("workers=%d round %d: panic slot err = %v, want ErrBatchPanic", workers, round, got[1].Err)
			}
			for i, w := range want {
				if got[i].Err != nil {
					t.Fatalf("workers=%d round %d slot %d: %v", workers, round, i, got[i].Err)
				}
				if !bytes.Equal(renderForDiff(t, got[i].Result), w) {
					t.Fatalf("workers=%d round %d slot %d: result diverged after a panicking neighbour", workers, round, i)
				}
			}
			// A mid-run cancellation in the same engine: the cancelled arena
			// must also come back clean (it is recycled, not dropped).
			cctx, cancel := context.WithCancel(context.Background())
			cancel()
			for _, br := range eng.RunBatch(cctx, reqs[:1]) {
				if !errors.Is(br.Err, context.Canceled) {
					t.Fatalf("workers=%d round %d: cancelled slot err = %v", workers, round, br.Err)
				}
			}
		}
	}
}
