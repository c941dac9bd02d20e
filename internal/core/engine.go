package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/verify"
	"lamps/internal/workpool"
)

// Observer receives progress callbacks from a running Engine. Callbacks are
// serialised — the engine never invokes two hooks concurrently — so
// implementations need no locking of their own. Under a parallel engine the
// hooks run on worker goroutines inside the search; keep them fast. The
// *order* of OnScheduleBuilt/OnLevelEvaluated calls within a phase is the
// execution order and therefore not deterministic under parallelism; the
// totals are.
type Observer interface {
	// OnPhase marks the transition into a named phase of the search (see the
	// Phase* constants).
	OnPhase(name string)
	// OnScheduleBuilt reports one distinct processor count a run uses: the
	// count and the resulting makespan in cycles at maximum frequency. A
	// schedule restored from Engine.Memo counts like a fresh build; a
	// run's repeated use of the same count is reported once.
	OnScheduleBuilt(nprocs int, makespanCycles int64)
	// OnLevelEvaluated reports one successful (schedule, level) energy
	// evaluation.
	OnLevelEvaluated(lvl power.Level, b energy.Breakdown)
}

// Phase names reported through Observer.OnPhase, in the order a full LAMPS
// run emits them.
const (
	PhaseMinProcs   = "min-procs"  // phase-1 binary search for the minimal feasible count
	PhaseSaturation = "saturation" // phase-2 binary search for the saturation count
	PhaseBuild      = "build"      // list-scheduling the candidate processor counts
	PhaseEvaluate   = "evaluate"   // energy evaluation / +PS level sweeps
	PhaseReclaim    = "reclaim"    // per-task DVS slack reclamation
	PhaseRefine     = "refine"     // voltage-island greedy descent
)

// Engine runs the heuristics with cooperative cancellation, progress
// observation and optional parallel search. The zero value plus a Config is
// a valid serial engine; the package-level LAMPS/ScheduleAndStretch/...
// functions are thin wrappers around it.
//
// Cancellation: Run returns ctx.Err() as soon as the current leaf work item
// — at most one ListSchedule call or one energy sweep step — completes after
// ctx is done. All internal goroutines have exited by the time Run returns,
// so a cancelled run holds no pool slots afterwards.
//
// Parallelism: with a non-nil Pool, phase 2 of the LAMPS-family searches
// builds its candidate schedules and evaluates its (schedule, level) sweeps
// on the pool's workers. The candidate set is fixed up front — the
// saturation count is located by binary search under the same makespan
// monotonicity assumption phase 1 already makes — and results are reduced in
// the paper's deterministic tie-break order (lowest processor count first,
// the N_max fallback last, fastest level first), so a parallel engine
// returns results, including Stats, identical to the serial one.
type Engine struct {
	// Config carries the problem parameters, exactly as for the wrappers.
	Config Config
	// Observer, when non-nil, receives serialised progress callbacks.
	Observer Observer
	// Pool, when non-nil, supplies bounded parallelism for the candidate
	// builds and level sweeps. The engine holds at most one pool slot per
	// leaf work item and never nests acquisitions, so a single pool can be
	// shared by many engines (and by concurrent runs of one engine) without
	// deadlock at any pool size.
	Pool *workpool.Pool

	// Memo, when non-nil, is a cross-request store of list schedules: a
	// run restores every processor count the memo holds instead of
	// list-scheduling it, and stores the counts it builds. Results, Stats
	// and Observer callbacks are identical with and without it. Like Pool,
	// one memo is meant to be shared by many engines and concurrent runs.
	Memo *ScheduleMemo
}

// Run dispatches an approach by name under ctx.
func (e *Engine) Run(ctx context.Context, approach string, g *dag.Graph) (*Result, error) {
	switch approach {
	case ApproachSS:
		return e.ss(ctx, ApproachSS, g, false)
	case ApproachSSPS:
		return e.ss(ctx, ApproachSSPS, g, true)
	case ApproachLAMPS:
		return e.lamps(ctx, ApproachLAMPS, g, false)
	case ApproachLAMPSPS:
		return e.lamps(ctx, ApproachLAMPSPS, g, true)
	case ApproachLimitSF:
		return e.limit(ctx, g, LimitSF)
	case ApproachLimitMF:
		return e.limit(ctx, g, LimitMF)
	}
	return nil, fmt.Errorf("%w: unknown approach %q", ErrBadConfig, approach)
}

// obsHub serialises Observer callbacks: engine phases may run on many
// goroutines, but hooks are delivered one at a time. A hub with a nil
// Observer is free to call into.
type obsHub struct {
	mu sync.Mutex
	o  Observer
}

func (h *obsHub) phase(name string) {
	if h.o == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.o.OnPhase(name)
}

func (h *obsHub) scheduleBuilt(nprocs int, makespanCycles int64) {
	if h.o == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.o.OnScheduleBuilt(nprocs, makespanCycles)
}

func (h *obsHub) levelEvaluated(lvl power.Level, b energy.Breakdown) {
	if h.o == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.o.OnLevelEvaluated(lvl, b)
}

// run is the per-invocation state shared by the engine's phases, embedded in
// the request's arena. pf is the machine every phase schedules and prices
// on: Config.Platform, or for a Model config the arena's one-class platform
// of that model. fref is the frequency one schedule cycle corresponds to at
// full speed (pf.RefFMax()). cfg is a value copy so that no run state
// aliases the (possibly throwaway, stack-allocated) Engine that started it.
type run struct {
	ctx  context.Context
	cfg  Config
	pf   *power.Platform
	fref float64
	pool *workpool.Pool
	obs  obsHub
	sc   *scheduler
	a    *arena
}

// newRun validates the request and borrows an arena for it. Validation and
// the context check come first, so the error paths that never start a search
// touch no pooled state at all. On success the caller must arrange for the
// arena to be recycled (defer r.a.runGuard()).
func (e *Engine) newRun(ctx context.Context, g *dag.Graph) (*run, error) {
	if err := e.Config.validate(g); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a := arenaPool.Get().(*arena)
	r := &a.r
	r.ctx = ctx
	r.cfg = e.Config
	r.pool = e.Pool
	r.a = a
	r.pf = e.Config.Platform
	if r.pf == nil {
		pf, err := a.homogeneous(e.Config.model(), e.Config.maxUsefulProcs(g))
		if err != nil {
			a.close()
			return nil, err
		}
		r.pf = pf
	}
	r.fref = r.pf.RefFMax()
	r.obs.o = e.Observer
	var prio []int64
	if e.Config.Priorities != nil {
		prio = e.Config.Priorities(g)
	}
	a.sc.init(ctx, g, prio, &r.obs, e.Config.SelfCheck, r.pf, e.Memo)
	r.sc = &a.sc
	return r, nil
}

// selfCheckResult is the result-level half of Config.SelfCheck: the winning
// breakdown — produced by the pooled O(log G) GapProfile path — is
// re-derived with the verifier's naive linear gap walk and must agree bit
// for bit. The schedule itself was already verified when it was built (see
// scheduler.at); the limits carry no schedule and are covered by the
// cross-heuristic invariants instead.
func (r *run) selfCheckResult(res *Result, ps bool) error {
	if !r.cfg.SelfCheck || res.Schedule == nil {
		return nil
	}
	// A one-class result carries its ladder level, which is the platform's
	// operating point of the same index.
	pt := res.Point
	if r.pf.IsHomogeneous() {
		pt = r.pf.Points()[res.Level.Index]
	}
	if err := verify.EnergyMatches(res.Schedule, r.pf, res.Backups, pt, r.cfg.Deadline,
		energy.Options{PS: ps}, res.Energy); err != nil {
		return fmt.Errorf("core: self-check: %s result: %w", res.Approach, err)
	}
	return nil
}

// each runs fn(i) for every i in [0, n): serially without a pool, otherwise
// concurrently with one pool slot per item. fn must confine its writes to
// slot i and must begin with a context check — a denied pool admission
// (context done while queued) falls back to calling fn inline and relies on
// that check to bail out, so no result slot is ever silently skipped. each
// returns only after every fn call has finished.
func (r *run) each(n int, fn func(i int)) {
	if r.pool == nil || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			if err := r.pool.Do(r.ctx, func() { fn(i) }); err != nil {
				fn(i)
			}
		}(i)
	}
	wg.Wait()
}

// candidate is one processor count under evaluation in phase 2.
type candidate struct {
	n      int
	s      *sched.Schedule
	plan   *sched.BackupPlan    // fault-tolerant runs: the plan the planner made for this candidate,
	stored *sched.PackedPlan    // or the packed plan Engine.Memo held for it instead
	prof   *energy.GapProfile   // pooled; set lazily by profileIn, released by releaseProfiles
	pt     power.OperatingPoint // the winning operating point
	b      energy.Breakdown
	levels int // (schedule, level) evaluations charged to this candidate
	err    error
}

// feasCycles returns the cycle count the deadline must cover for this
// candidate: the recovery makespan when a backup plan is attached, the
// primary makespan otherwise. Feasibility and level sweeps are driven by
// this value, so fault-tolerant runs keep enough slack for recovery.
func (c *candidate) feasCycles() int64 {
	switch {
	case c.plan != nil:
		return c.plan.RecoveryMakespan
	case c.stored != nil:
		return c.stored.RecoveryMakespan()
	}
	return c.s.Makespan
}

// profilePool recycles gap profiles (sorted gap lengths, prefix sums)
// across candidates and runs, so steady-state level sweeps allocate
// nothing.
var profilePool = sync.Pool{New: func() any { return new(energy.GapProfile) }}

// profileIn returns the candidate's gap profile, extracting it per core
// class from the built schedule and its backup plan (nil on a plain run)
// on first use; a plan restored from the memo is unpacked into pooled
// scratch for the extraction only. Each candidate is profiled by exactly
// one goroutine; concurrent EvaluatePoint calls on the finished profile
// are safe.
func (c *candidate) profileIn(r *run) *energy.GapProfile {
	if c.prof == nil {
		c.prof = profilePool.Get().(*energy.GapProfile)
		if c.stored != nil {
			plan := planPool.Get().(*sched.BackupPlan)
			c.stored.Unpack(plan, r.sc.g, r.pf)
			c.prof.ResetPlatformFT(c.s, r.pf, plan)
			planPool.Put(plan)
		} else {
			c.prof.ResetPlatformFT(c.s, r.pf, c.plan)
		}
	}
	return c.prof
}

// releaseProfiles returns every candidate's profile to the pool. Called
// (deferred) once the winning Breakdown has been copied out of the
// candidates; Results never retain a profile.
func releaseProfiles(cands []candidate) {
	for i := range cands {
		if c := &cands[i]; c.prof != nil {
			profilePool.Put(c.prof)
			c.prof = nil
		}
	}
}

// buildAll list-schedules every candidate, in parallel when a pool is set.
// Fault-tolerant runs additionally plan each candidate's backup layer here
// — placement depends only on the built schedule, so it parallelises the
// same way — and surface planning failures through wrapInfeasible (a
// machine too small for backups is an infeasibility of the configuration,
// like a deadline no level can meet).
func (r *run) buildAll(cands []candidate) error {
	r.obs.phase(PhaseBuild)
	ft := r.cfg.faultsOn()
	r.each(len(cands), func(i int) {
		c := &cands[i]
		c.s, c.err = r.sc.at(c.n)
		if c.err == nil && ft {
			c.plan, c.stored, c.err = r.planBackups(c.s)
		}
	})
	for i := range cands {
		if cands[i].err != nil {
			return wrapInfeasible(cands[i].err)
		}
	}
	return nil
}

// plannerPool recycles backup-planner scratch (per-processor timelines,
// task order) across candidates and runs; candidates are planned
// concurrently, so each draws its own. The returned plan's arrays are fresh
// per call and owned by the caller.
var plannerPool = sync.Pool{New: func() any { return new(sched.BackupPlanner) }}

// planPool recycles the scratch plans that memo-restored plans are
// unpacked into while a candidate is checked or profiled.
var planPool = sync.Pool{New: func() any { return new(sched.BackupPlan) }}

// planBackups returns the backup layer of one built schedule: the packed
// plan Engine.Memo holds for its processor count and policy, or else a
// fresh plan from the planner on pooled scratch, of which the memo then
// keeps a packed copy. Under SelfCheck either is held to the independent
// plan verifier — a stored one unpacked into pooled scratch — before the
// engine evaluates any energy on top of it, and only a plan that passed is
// stored.
func (r *run) planBackups(s *sched.Schedule) (*sched.BackupPlan, *sched.PackedPlan, error) {
	policy := r.cfg.faultPolicy()
	memo := r.sc.memo
	if memo != nil {
		if p := memo.getPlan(&r.sc.key, s.NumProcs, policy); p != nil {
			if r.cfg.SelfCheck {
				plan := planPool.Get().(*sched.BackupPlan)
				p.Unpack(plan, r.sc.g, r.pf)
				err := r.checkPlan(s, plan, policy)
				planPool.Put(plan)
				if err != nil {
					return nil, nil, err
				}
			}
			return nil, p, nil
		}
	}
	bp := plannerPool.Get().(*sched.BackupPlanner)
	plan, err := bp.Plan(s, r.pf, policy)
	plannerPool.Put(bp)
	if err != nil {
		return nil, nil, err
	}
	if err := r.checkPlan(s, plan, policy); err != nil {
		return nil, nil, err
	}
	if memo != nil {
		memo.putPlan(&r.sc.key, s.NumProcs, policy, sched.PackPlan(plan))
	}
	return plan, nil, nil
}

// checkPlan is the plan half of Config.SelfCheck: it holds plan to the
// independent verifier.
func (r *run) checkPlan(s *sched.Schedule, plan *sched.BackupPlan, policy sched.FaultPolicy) error {
	if !r.cfg.SelfCheck {
		return nil
	}
	if verr := verify.FaultPlan(r.sc.g, s, plan, verify.FaultPlanOptions{
		Platform: r.pf,
		Policy:   policy,
	}); verr != nil {
		return fmt.Errorf("core: self-check: backup plan on %d processors: %w", s.NumProcs, verr)
	}
	return nil
}

// evalAll picks each candidate's operating point and energy on the run's
// platform grid. With sweep (the +PS heuristics) every feasible point is
// evaluated, in parallel as flat (candidate, point) pairs when a pool is
// set; otherwise each candidate runs at its slowest feasible point.
func (r *run) evalAll(cands []candidate, ps bool) {
	r.obs.phase(PhaseEvaluate)
	if ps {
		r.evalPairs(cands)
		return
	}
	r.each(len(cands), func(i int) { r.evalMin(&cands[i]) })
}

// evalMin evaluates one candidate at its slowest feasible operating point —
// the full S&S stretch, used by the non-PS heuristics.
func (r *run) evalMin(c *candidate) {
	if err := r.ctx.Err(); err != nil {
		c.err = err
		return
	}
	pt, err := energy.MinFeasiblePointCycles(c.feasCycles(), r.pf, r.cfg.Deadline)
	if err != nil {
		c.err = err
		return
	}
	b, err := c.profileIn(r).EvaluatePoint(r.pf, pt, r.cfg.Deadline, energy.Options{})
	c.levels = 1
	if err != nil {
		c.err = err
		return
	}
	c.pt, c.b = pt, b
	r.obs.levelEvaluated(pt.Levels[r.pf.RefClass()], b)
}

// evalPairs evaluates every (candidate, feasible operating point) pair of
// the +PS sweep, flattened so that each pair is one leaf work item on the
// pool — a candidate's sweep never blocks holding a slot — then reduces
// each candidate's sweep in fastest-point-first order, matching the serial
// walk exactly. The flat pair slice is arena scratch: cands is fixed-size
// for the whole sweep, so the *candidate pointers into it stay valid.
func (r *run) evalPairs(cands []candidate) {
	pairs := r.a.pairs[:0]
	for i := range cands {
		c := &cands[i]
		if err := r.ctx.Err(); err != nil {
			c.err = err
			r.a.pairs = pairs
			return
		}
		points, err := energy.FeasiblePointsCycles(c.feasCycles(), r.pf, r.cfg.Deadline)
		if err != nil {
			c.err = err
			continue
		}
		c.profileIn(r) // extracted once here, shared read-only by all pairs
		for _, pt := range points {
			pairs = append(pairs, evalPair{c: c, pt: pt})
		}
	}
	r.a.pairs = pairs
	r.each(len(pairs), func(i int) {
		p := &pairs[i]
		if err := r.ctx.Err(); err != nil {
			p.err = err
			return
		}
		p.b, p.err = p.c.prof.EvaluatePoint(r.pf, p.pt, r.cfg.Deadline, energy.Options{PS: true})
		if p.err == nil {
			r.obs.levelEvaluated(p.pt.Levels[r.pf.RefClass()], p.b)
		}
	})
	// Pairs are enumerated per candidate fastest→slowest, so reducing in
	// slice order with a strict < reproduces the serial sweep's first-wins
	// tie-break.
	for i := range pairs {
		p := &pairs[i]
		c := p.c
		c.levels++
		if c.err != nil {
			continue
		}
		if p.err != nil {
			c.err = p.err
			continue
		}
		if c.levels == 1 || p.b.Total() < c.b.Total() {
			c.pt, c.b = p.pt, p.b
		}
	}
}

// stats assembles the run's Stats: fresh schedules from the memo, level
// counts summed over candidates in slice order — both independent of the
// execution interleaving, so serial and parallel runs report identical
// Stats.
func (r *run) stats(cands []candidate) Stats {
	s := Stats{SchedulesBuilt: r.sc.builtCount()}
	for i := range cands {
		s.LevelsEvaluated += cands[i].levels
	}
	return s
}

// reduce picks the winning candidate in the paper's deterministic order:
// strictly lower total energy wins, ties keep the earlier candidate (lower
// processor count, the N_max fallback last). Any candidate error — the
// first in candidate order — fails the whole run, as the serial walk did.
// Level is the reference class's level of the winning point; a
// heterogeneous result additionally carries the platform and the point.
//
// The winning schedule is detached with CloneCompact — the memoised
// original is arena scratch and will be recycled when the run closes, while
// the Result may outlive the request indefinitely (the serving layer's
// cache keeps rendered results) — and a winning plan the memo held is
// restored into arrays of its own.
func reduce(r *run, approach string, g *dag.Graph, cands []candidate) (*Result, error) {
	// Phase 1 sizes the candidate range by the *primary* makespan, so on the
	// fault-tolerant path the smallest counts can still be
	// recovery-infeasible (the recovery makespan shrinks as processors are
	// added). Those candidates are skipped rather than failing the run; any
	// other error — and, on a plain run, any error at all — still fails it,
	// first in candidate order, as the serial walk did.
	ft := r.cfg.faultsOn()
	var firstErr error
	var best *candidate
	for i := range cands {
		c := &cands[i]
		if c.err != nil {
			if ft && errors.Is(c.err, energy.ErrDeadline) {
				if firstErr == nil {
					firstErr = c.err
				}
				continue
			}
			return nil, wrapInfeasible(c.err)
		}
		if best == nil || c.b.Total() < best.b.Total() {
			best = c
		}
	}
	if best == nil {
		return nil, wrapInfeasible(firstErr)
	}
	res := &Result{
		Approach: approach,
		Graph:    g,
		NumProcs: best.n,
		Level:    best.pt.Levels[r.pf.RefClass()],
		Schedule: best.s.CloneCompact(),
		Backups:  best.plan, // a freshly planned plan is the candidate's own
		Energy:   best.b,
	}
	if best.stored != nil {
		res.Backups = best.stored.Restore(g, r.pf)
	}
	if r.cfg.heterogeneous() {
		res.Platform = r.pf
		res.Point = best.pt
	}
	return res, nil
}

// ss implements the shared S&S structure: schedule on as many processors as
// the graph can occupy — the machine is assumed to have at least as many
// processors as the maximum task concurrency, so the EDF schedule dispatches
// every task at its earliest start — then trade the remaining slack for DVS
// (and, with ps, processor shutdown). Every processor that executes at least
// one task is employed and stays on, which is precisely the wastefulness
// LAMPS improves upon: in the paper's Fig. 4 example S&S employs 3
// processors although 2 would reach the same makespan.
func (e *Engine) ss(ctx context.Context, approach string, g *dag.Graph, ps bool) (*Result, error) {
	r, err := e.newRun(ctx, g)
	if err != nil {
		return nil, err
	}
	defer r.a.runGuard()
	cands := append(r.a.cands[:0], candidate{n: r.cfg.maxUsefulProcs(g)})
	r.a.cands = cands
	defer releaseProfiles(cands)
	if err := r.buildAll(cands); err != nil {
		return nil, err
	}
	r.evalAll(cands, ps)
	best, err := reduce(r, approach, g, cands)
	if err != nil {
		return nil, err
	}
	best.NumProcs = cands[0].s.ProcsUsed()
	if best.Backups != nil {
		// Backup-only processors must stay powered too.
		best.NumProcs = best.Backups.EmployedWith(cands[0].s)
	}
	best.Stats = r.stats(cands)
	if err := r.selfCheckResult(best, ps); err != nil {
		return nil, err
	}
	return best, nil
}

// lamps implements the shared LAMPS structure (Fig. 5 and Fig. 8 of the
// paper): a binary search for the minimal feasible processor count, then an
// evaluation of every count up to the saturation point — where adding
// processors stops reducing the makespan — because the energy as a function
// of the processor count has local minima (Fig. 6), so no count in that
// range can be skipped.
func (e *Engine) lamps(ctx context.Context, approach string, g *dag.Graph, ps bool) (*Result, error) {
	r, err := e.newRun(ctx, g)
	if err != nil {
		return nil, err
	}
	defer r.a.runGuard()
	return r.lamps(approach, g, ps)
}

// lamps is the LAMPS search within an open run.
func (r *run) lamps(approach string, g *dag.Graph, ps bool) (*Result, error) {
	cands, err := r.lampsCandidates(g)
	if err != nil {
		return nil, err
	}
	defer releaseProfiles(cands)
	r.evalAll(cands, ps)
	best, err := reduce(r, approach, g, cands)
	if err != nil {
		return nil, err
	}
	best.Stats = r.stats(cands)
	if err := r.selfCheckResult(best, ps); err != nil {
		return nil, err
	}
	return best, nil
}

// lampsCandidates is the candidate search of LAMPS and of the per-task DVS
// extension: phase 1 finds the minimal feasible processor count, the
// saturation search the count past which adding processors stops
// shortening the schedule, and every count in between is a candidate, plus
// N_max when it lies beyond. It builds every candidate's schedule and
// returns the set, which is the arena's candidate slice.
func (r *run) lampsCandidates(g *dag.Graph) ([]candidate, error) {
	r.obs.phase(PhaseMinProcs)
	deadlineCycles := r.cfg.Deadline * r.fref
	hi := r.cfg.maxUsefulProcs(g)
	nmin, err := r.sc.minProcsForDeadline(deadlineCycles, hi)
	if err != nil {
		return nil, err
	}
	if r.cfg.faultsOn() && nmin < 2 {
		// Backups need a second processor; maxUsefulProcs guarantees hi >= 2.
		nmin = 2
	}
	r.obs.phase(PhaseSaturation)
	nstop, err := r.sc.saturationPoint(nmin, hi)
	if err != nil {
		return nil, err
	}
	cands := r.a.cands[:0]
	for n := nmin; n <= nstop; n++ {
		cands = append(cands, candidate{n: n})
	}
	if nstop < hi {
		// Also consider N_max, the "as many processors as can be employed
		// efficiently" configuration that S&S uses, so the LAMPS search space
		// always contains the S&S(+PS) solution: with shutdown available,
		// wider schedules can consolidate idle time into fewer, longer,
		// sleepable gaps, so skipping it could make LAMPS+PS worse than
		// S&S+PS.
		cands = append(cands, candidate{n: hi})
	}
	r.a.cands = cands
	return cands, r.buildAll(cands)
}

// limit wraps the closed-form LIMIT-SF/MF bounds with the engine's context
// and observer conventions.
func (e *Engine) limit(ctx context.Context, g *dag.Graph, fn func(*dag.Graph, Config) (*Result, error)) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.Observer != nil {
		// One callback from one goroutine: nothing to serialise.
		e.Observer.OnPhase(PhaseEvaluate)
	}
	return fn(g, e.Config)
}
