package campaign

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"lamps/internal/core"
	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/graphhash"
	"lamps/internal/power"
	"lamps/internal/sim"
	"lamps/internal/taskgen"
	"lamps/internal/verify"
)

// maxPatternsPerK bounds the fault patterns replayed per (machine, K):
// exhaustive below the bound, uniformly sampled above it.
const maxPatternsPerK = 12

// FaultReport is the fault-injection campaign's tally, the FT sibling of
// Report. A campaign is clean iff Violations is empty.
type FaultReport struct {
	Graphs     int // graphs generated and exercised
	Runs       int // fault-tolerant engine invocations
	Infeasible int // (machine, factor) cases without enough recovery slack
	Patterns   int // fault patterns replayed and re-verified

	PlanChecks        int // independent backup-plan verifications
	EnergyChecks      int // bit-for-bit FT breakdown re-derivations
	MetamorphicChecks int // K-independence and digest relations asserted

	MutationRuns     int // injected backup corruptions
	MutationDetected int // corruptions the verifier rejected
	MutationSkipped  int // corruption classes not applicable to the instance

	Violations []string
}

// Clean reports whether the campaign found nothing.
func (r *FaultReport) Clean() bool { return len(r.Violations) == 0 }

// Summary renders the one-line tally.
func (r *FaultReport) Summary() string {
	return fmt.Sprintf(
		"%d graphs, %d FT runs (%d infeasible): %d fault patterns, %d plan checks, %d energy checks, %d metamorphic checks, mutations %d/%d detected (%d skipped), violations: %d",
		r.Graphs, r.Runs, r.Infeasible, r.Patterns, r.PlanChecks, r.EnergyChecks,
		r.MetamorphicChecks, r.MutationDetected, r.MutationRuns, r.MutationSkipped, len(r.Violations))
}

func (r *FaultReport) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// ftMachine is one (machine, policy) combination the fault campaign drives.
type ftMachine struct {
	name   string
	pf     *power.Platform // nil for the homogeneous model machine
	policy core.FaultPolicy
}

// campaignPlatform builds the heterogeneous machine the fault campaign runs
// against: three low-power cores beside two reference-class ones, so the
// primary-HP/backup-LP policy always has an off-reference processor to fall
// back to.
func campaignPlatform() (*power.Platform, error) {
	lp := *power.Default70nm()
	lp.VddMax = 0.85
	lp.POn = 0.04
	if err := lp.Build(); err != nil {
		return nil, err
	}
	return power.NewPlatform(
		[]power.CoreClass{{Name: "lp", Model: &lp}, {Name: "hp", Model: power.Default70nm()}},
		[]int{0, 0, 0, 1, 1},
	)
}

// RunFaults executes the metamorphic fault-injection campaign: seeded random
// graphs are scheduled fault-tolerantly (LAMPS+PS with the engine self-check
// on) across a homogeneous machine and a heterogeneous platform under both
// backup policies; every resulting plan is re-checked by the independent
// verifier; K∈{1,2} fault patterns — exhaustive up to maxPatternsPerK per K,
// sampled above — are replayed through internal/sim and re-derived by
// verify.RecoverySchedule, requiring agreement and deadline compliance;
// the K-independence of the plan and the K-sensitivity of the problem digest
// are asserted per instance; and verify.SelfTestFaults periodically proves
// the checker still rejects corrupted plans. Options are interpreted as in
// Run; factors rotate per graph rather than multiplying the run count, and
// cases whose deadline leaves no recovery slack are tallied as Infeasible
// and skipped.
func RunFaults(ctx context.Context, options Options) (*FaultReport, error) {
	opt := options.withDefaults()
	m := power.Default70nm()
	rep := &FaultReport{}
	pf, err := campaignPlatform()
	if err != nil {
		return rep, fmt.Errorf("campaign: platform: %w", err)
	}
	machines := []ftMachine{
		{"model/anywhere", nil, core.FaultBackupAnywhere},
		{"platform/anywhere", pf, core.FaultBackupAnywhere},
		{"platform/hp-lp", pf, core.FaultPrimaryHPBackupLP},
	}
	grains := []taskgen.Grain{taskgen.Coarse, taskgen.Fine}

	for i := 0; i < opt.Graphs; i++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		if len(rep.Violations) >= opt.MaxViolations {
			if opt.Logf != nil {
				opt.Logf("stopping after %d violations", len(rep.Violations))
			}
			break
		}
		size := opt.Sizes[i%len(opt.Sizes)]
		seed := opt.Seed + 7919*int64(i)
		raw, err := taskgen.Member(size, i, seed)
		if err != nil {
			return rep, fmt.Errorf("campaign: graph %d: %w", i, err)
		}
		g := grains[i%len(grains)].Scale(raw)
		rep.Graphs++
		factor := opt.Factors[i%len(opt.Factors)]
		tag := fmt.Sprintf("graph %d (%q, %d tasks, seed %d, factor %g)", i, g.Name(), g.NumTasks(), seed, factor)
		rng := rand.New(rand.NewSource(seed))
		mutate := opt.MutateEvery > 0 && i%opt.MutateEvery == 0

		for _, mc := range machines {
			if err := runFaultCase(ctx, rep, tag, g, m, mc, factor, rng, mutate); err != nil {
				return rep, err
			}
		}
		if opt.Logf != nil && (i+1)%50 == 0 {
			opt.Logf("%d/%d graphs, %d FT runs, %d patterns, %d violations",
				i+1, opt.Graphs, rep.Runs, rep.Patterns, len(rep.Violations))
		}
	}
	return rep, nil
}

// runFaultCase drives one (graph, machine, factor) case end to end.
func runFaultCase(ctx context.Context, rep *FaultReport, tag string, g *dag.Graph, m *power.Model, mc ftMachine, factor float64, rng *rand.Rand, mutate bool) error {
	var base core.Config
	if mc.pf != nil {
		base = core.DeadlineFactorPlatform(g, mc.pf, factor)
	} else {
		base = core.DeadlineFactor(g, m, factor)
	}
	base.SelfCheck = true

	results := make([]*core.Result, 2)
	for ki, k := range []int{1, 2} {
		cfg := base
		cfg.Faults = &core.FaultConfig{K: k, Policy: mc.policy}
		res, err := (&core.Engine{Config: cfg}).Run(ctx, core.ApproachLAMPSPS, g)
		rep.Runs++
		switch {
		case err == nil:
			results[ki] = res
		case errors.Is(err, core.ErrInfeasible):
			rep.Infeasible++
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			rep.violate("%s %s K=%d: unexpected error: %v", tag, mc.name, k, err)
		}
	}
	r1, r2 := results[0], results[1]

	// K-independence: the static plan covers every task, so K=1 and K=2 must
	// agree bit for bit — while their problem digests must not.
	if (r1 == nil) != (r2 == nil) {
		rep.violate("%s %s: feasibility differs between K=1 and K=2", tag, mc.name)
	}
	if r1 != nil && r2 != nil {
		if r1.Energy != r2.Energy || r1.NumProcs != r2.NumProcs {
			rep.violate("%s %s: K=1 and K=2 results diverge: %g J / %d procs vs %g J / %d procs",
				tag, mc.name, r1.TotalEnergy(), r1.NumProcs, r2.TotalEnergy(), r2.NumProcs)
		}
		p := graphhash.Problem{Graph: g, Deadline: base.Deadline, Approach: core.ApproachLAMPSPS}
		if mc.pf != nil {
			p.Platform = mc.pf
		} else {
			p.Model = m
		}
		p0 := p
		p1, k1 := p, p
		p1.FaultsK, p1.FaultsPolicy = 1, string(mc.policy)
		k1.FaultsK, k1.FaultsPolicy = 2, string(mc.policy)
		if graphhash.Sum(p1) == graphhash.Sum(p0) || graphhash.Sum(k1) == graphhash.Sum(p0) || graphhash.Sum(p1) == graphhash.Sum(k1) {
			rep.violate("%s %s: fault digests not distinct across K", tag, mc.name)
		}
	}
	rep.MetamorphicChecks++
	if r2 == nil {
		return nil
	}
	r := r2

	// Independent plan verification plus the bit-for-bit FT energy walk.
	freq := r.Level.Freq
	if r.Platform != nil {
		freq = r.Point.TimelineFreq
	}
	deadlineCycles := int64(base.Deadline * freq)
	popt := verify.FaultPlanOptions{Platform: mc.pf, Policy: mc.policy, DeadlineCycles: deadlineCycles}
	if err := verify.FaultPlan(g, r.Schedule, r.Backups, popt); err != nil {
		rep.violate("%s %s: %v", tag, mc.name, err)
		return nil
	}
	rep.PlanChecks++
	opts := energy.Options{PS: true}
	pf, pt := mc.pf, r.Point
	var err error
	if pf == nil {
		pf, pt, err = oneClass(r.Schedule, m, r.Level)
	}
	if err == nil {
		err = verify.EnergyMatches(r.Schedule, pf, r.Backups, pt, base.Deadline, opts, r.Energy)
	}
	if err != nil {
		rep.violate("%s %s: %v", tag, mc.name, err)
	}
	rep.EnergyChecks++

	// Replay every sampled fault pattern through the simulator and re-derive
	// it with the verifier's independent recovery construction.
	for _, pattern := range faultPatterns(rng, g.NumTasks()) {
		rp, err := sim.ReplayFaults(r.Schedule, r.Backups, pattern, freq, base.Deadline)
		if err != nil {
			rep.violate("%s %s pattern %v: replay: %v", tag, mc.name, pattern, err)
			continue
		}
		mk, err := verify.RecoverySchedule(g, r.Schedule, r.Backups, pattern, deadlineCycles)
		if err != nil {
			rep.violate("%s %s pattern %v: %v", tag, mc.name, pattern, err)
			continue
		}
		if mk != rp.MakespanCycles {
			rep.violate("%s %s pattern %v: simulator makespan %d, verifier %d",
				tag, mc.name, pattern, rp.MakespanCycles, mk)
		}
		if !rp.DeadlineMet {
			rep.violate("%s %s pattern %v: recovery misses the deadline", tag, mc.name, pattern)
		}
		rep.Patterns++
	}

	if mutate && mc.pf == nil {
		outcomes, err := verify.SelfTestFaults(g, r.Schedule, pf, r.Backups, pt, base.Deadline, opts)
		if err != nil {
			rep.violate("%s: fault mutation self-test baseline: %v", tag, err)
			return nil
		}
		for _, o := range outcomes {
			rep.MutationRuns++
			switch {
			case o.Skipped:
				rep.MutationSkipped++
			case o.Detected:
				rep.MutationDetected++
			default:
				rep.violate("%s: backup corruption %q went undetected by the verifier", tag, o.Class)
			}
		}
	}
	return nil
}

// faultPatterns returns the K=1 and K=2 fault patterns to replay for an
// n-task instance: all singles and all pairs when they fit the per-K bound,
// a deterministic uniform sample otherwise.
func faultPatterns(rng *rand.Rand, n int) [][]int {
	var out [][]int
	if n <= maxPatternsPerK {
		for v := 0; v < n; v++ {
			out = append(out, []int{v})
		}
	} else {
		for _, v := range rng.Perm(n)[:maxPatternsPerK] {
			out = append(out, []int{v})
		}
	}
	if n < 2 {
		return out
	}
	if n*(n-1)/2 <= maxPatternsPerK {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				out = append(out, []int{u, v})
			}
		}
		return out
	}
	seen := make(map[[2]int]bool, maxPatternsPerK)
	for len(seen) < maxPatternsPerK {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		out = append(out, []int{u, v})
	}
	return out
}
