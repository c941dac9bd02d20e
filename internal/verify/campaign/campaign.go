// Package campaign runs randomized metamorphic verification campaigns over
// the scheduling heuristics: seeded taskgen graphs are pushed through every
// approach with core.Config.SelfCheck on, every produced schedule and
// breakdown is re-checked by the independent verifier, the cross-heuristic
// invariants are asserted per instance, and metamorphic relations —
// relabelling invariance, deadline monotonicity, processor-cap invariance
// of the limits — are asserted across instances. A mutation self-test runs
// periodically to prove the verifier still rejects known corruptions.
//
// The campaign is fully deterministic in its options (graph count, seed,
// sizes, deadline factors), so a clean run in CI is reproducible locally
// with the same flags.
//
// This package sits above internal/core (unlike internal/verify, which core
// imports), which is what lets it drive the engine end to end.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"lamps/internal/core"
	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/graphhash"
	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/taskgen"
	"lamps/internal/verify"
)

// Options configures one campaign. The zero value selects the CI defaults.
type Options struct {
	// Graphs is the number of random graphs (0 = 200, the CI short run).
	Graphs int
	// Seed is the base seed; graph i uses Seed + 7919*i (0 = 1).
	Seed int64
	// Sizes are the task counts, rotated per graph
	// (nil = {10, 20, 30, 50}).
	Sizes []int
	// Factors are the deadline factors over the critical path length, as in
	// the paper's evaluation; they are sorted ascending for the monotonicity
	// relations (nil = {1.5, 2, 4, 8}).
	Factors []float64
	// MutateEvery runs the mutation self-test on every k-th graph
	// (0 = 25, negative = never).
	MutateEvery int
	// MaxViolations stops the campaign early once this many violations have
	// been collected (0 = 20).
	MaxViolations int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Graphs == 0 {
		out.Graphs = 200
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if len(out.Sizes) == 0 {
		out.Sizes = []int{10, 20, 30, 50}
	}
	if len(out.Factors) == 0 {
		out.Factors = []float64{1.5, 2, 4, 8}
	}
	out.Factors = append([]float64(nil), out.Factors...)
	sort.Float64s(out.Factors)
	if out.MutateEvery == 0 {
		out.MutateEvery = 25
	}
	if out.MaxViolations == 0 {
		out.MaxViolations = 20
	}
	return out
}

// Report is the campaign's tally. A campaign is clean iff Violations is
// empty and every applicable mutation class was detected (undetected
// classes are themselves violations).
type Report struct {
	Graphs            int // graphs generated and exercised
	Runs              int // heuristic invocations
	ScheduleChecks    int // independent full-schedule verifications
	EnergyChecks      int // bit-for-bit breakdown re-derivations
	CrossChecks       int // cross-heuristic invariant sets
	MetamorphicChecks int // metamorphic relations asserted

	MutationRuns     int // injected corruptions
	MutationDetected int // corruptions the verifier rejected
	MutationSkipped  int // corruption classes not applicable to the instance

	Violations []string
}

// Clean reports whether the campaign found nothing.
func (r *Report) Clean() bool { return len(r.Violations) == 0 }

// Summary renders the one-line tally.
func (r *Report) Summary() string {
	return fmt.Sprintf(
		"%d graphs, %d runs: %d schedule checks, %d energy checks, %d cross-heuristic checks, %d metamorphic checks, mutations %d/%d detected (%d skipped), violations: %d",
		r.Graphs, r.Runs, r.ScheduleChecks, r.EnergyChecks, r.CrossChecks, r.MetamorphicChecks,
		r.MutationDetected, r.MutationRuns, r.MutationSkipped, len(r.Violations))
}

func (r *Report) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

var approaches = []string{
	core.ApproachLimitMF, core.ApproachLimitSF,
	core.ApproachSS, core.ApproachSSPS,
	core.ApproachLAMPS, core.ApproachLAMPSPS,
}

// Run executes the campaign. It returns a non-nil Report even on error;
// the error is non-nil only for infrastructure failures (context expiry,
// graph generation), never for violations — those are in the Report.
func Run(ctx context.Context, options Options) (*Report, error) {
	opt := options.withDefaults()
	m := power.Default70nm()
	rep := &Report{}
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
		tag := fmt.Sprintf("graph %d (%q, %d tasks, seed %d)", i, g.Name(), g.NumTasks(), seed)

		cplSec := float64(g.CriticalPathLength()) / m.FMax()
		eng := &core.Engine{Config: core.Config{Model: m, SelfCheck: true}}
		perFactor := make([]map[string]*core.Result, len(opt.Factors))
		for fi, f := range opt.Factors {
			deadline := f * cplSec
			eng.Config.Deadline = deadline
			results := make(map[string]*core.Result, len(approaches))
			outs := make([]verify.Outcome, 0, len(approaches))
			for _, ap := range approaches {
				res, err := eng.Run(ctx, ap, g)
				rep.Runs++
				switch {
				case err == nil:
					results[ap] = res
					outs = append(outs, verify.Outcome{Approach: ap, Feasible: true, Energy: res.Energy.Total()})
				case errors.Is(err, core.ErrInfeasible):
					outs = append(outs, verify.Outcome{Approach: ap, Feasible: false})
				case ctx.Err() != nil:
					return rep, ctx.Err()
				default:
					rep.violate("%s factor %g %s: unexpected error: %v", tag, f, ap, err)
				}
			}
			for _, ap := range approaches {
				res := results[ap]
				if res == nil || res.Schedule == nil {
					continue // infeasible, or a limit (no schedule)
				}
				if err := verify.Schedule(g, res.Schedule); err != nil {
					rep.violate("%s factor %g %s: %v", tag, f, ap, err)
				}
				rep.ScheduleChecks++
				if mk := float64(res.Schedule.Makespan) / res.Level.Freq; mk > deadline*(1+1e-12) {
					rep.violate("%s factor %g %s: makespan %gs misses deadline %gs", tag, f, ap, mk, deadline)
				}
				ps := ap == core.ApproachSSPS || ap == core.ApproachLAMPSPS
				pf, pt, err := oneClass(res.Schedule, m, res.Level)
				if err == nil {
					err = verify.EnergyMatches(res.Schedule, pf, nil, pt, deadline, energy.Options{PS: ps}, res.Energy)
				}
				if err != nil {
					rep.violate("%s factor %g %s: %v", tag, f, ap, err)
				}
				rep.EnergyChecks++
			}
			if err := verify.Results(outs); err != nil {
				rep.violate("%s factor %g: %v", tag, f, err)
			}
			rep.CrossChecks++
			perFactor[fi] = results
		}

		checkDeadlineMonotonicity(rep, tag, m, cplSec, opt.Factors, perFactor)
		if err := checkRelabelInvariance(ctx, rep, tag, m, g, opt.Factors[0], cplSec, perFactor[0]); err != nil {
			return rep, err
		}
		if err := checkLimitsIgnoreProcCap(ctx, rep, tag, m, g, opt.Factors[0], cplSec, perFactor[0]); err != nil {
			return rep, err
		}

		if opt.MutateEvery > 0 && i%opt.MutateEvery == 0 {
			runSelfTest(rep, tag, m, g, opt.Factors, perFactor)
		}
		if opt.Logf != nil && (i+1)%50 == 0 {
			opt.Logf("%d/%d graphs, %d runs, %d violations", i+1, opt.Graphs, rep.Runs, len(rep.Violations))
		}
	}
	return rep, nil
}

// checkDeadlineMonotonicity asserts the relations that provably hold when
// the deadline is loosened, for every consecutive factor pair:
//
//   - feasibility is monotone: an approach feasible at the tighter deadline
//     stays feasible at the looser one;
//   - LIMIT-MF is deadline-independent (bit-identical energies);
//   - LIMIT-SF never increases: its frequency only descends towards the
//     critical level, where energy per cycle is minimal;
//   - the +PS heuristics obey the availability-cost envelope
//     E(D') ≤ E(D) + procs·(D'−D)·P_idle(level): their level sweep at D'
//     still contains the tight winner, whose only extra cost at the looser
//     horizon is keeping its processors available for D'−D longer (sleeping
//     a trailing gap is chosen only when cheaper than idling it).
//
// Deliberately NOT asserted: monotonicity of plain S&S and LAMPS. Both
// stretch to the slowest feasible level, and with a loose enough deadline
// that level sits below the critical frequency where leakage dominates —
// their energy genuinely rises with slacker deadlines. That is the paper's
// own motivation (its Figure 10), not a bug, and a campaign asserting it
// would flag correct behaviour.
func checkDeadlineMonotonicity(rep *Report, tag string, m *power.Model, cplSec float64, factors []float64, perFactor []map[string]*core.Result) {
	for fi := 1; fi < len(factors); fi++ {
		prev, cur := perFactor[fi-1], perFactor[fi]
		d1, d2 := factors[fi-1]*cplSec, factors[fi]*cplSec
		for _, ap := range approaches {
			if prev[ap] != nil && cur[ap] == nil {
				rep.violate("%s %s: feasible at factor %g but infeasible at looser %g",
					tag, ap, factors[fi-1], factors[fi])
			}
		}
		if a, b := prev[core.ApproachLimitMF], cur[core.ApproachLimitMF]; a != nil && b != nil {
			if a.Energy != b.Energy {
				rep.violate("%s LIMIT-MF: deadline-dependent energy: %g J at factor %g, %g J at %g",
					tag, a.Energy.Total(), factors[fi-1], b.Energy.Total(), factors[fi])
			}
		}
		if a, b := prev[core.ApproachLimitSF], cur[core.ApproachLimitSF]; a != nil && b != nil {
			if b.Energy.Total() > a.Energy.Total()*(1+verify.RelTol) {
				rep.violate("%s LIMIT-SF: energy rose from %g J (factor %g) to %g J (factor %g)",
					tag, a.Energy.Total(), factors[fi-1], b.Energy.Total(), factors[fi])
			}
		}
		for _, ap := range []string{core.ApproachSSPS, core.ApproachLAMPSPS} {
			a, b := prev[ap], cur[ap]
			if a == nil || b == nil {
				continue
			}
			bound := a.Energy.Total() + float64(a.NumProcs)*(d2-d1)*m.IdlePower(a.Level)
			if b.Energy.Total() > bound*(1+verify.RelTol) {
				rep.violate("%s %s: energy %g J at factor %g exceeds availability bound %g J from factor %g (%g J, %d procs)",
					tag, ap, b.Energy.Total(), factors[fi], bound, factors[fi-1], a.Energy.Total(), a.NumProcs)
			}
		}
		rep.MetamorphicChecks++
	}
}

// checkRelabelInvariance rebuilds the graph with fresh task labels and a
// fresh name: the canonical problem digest must not move (labels are
// presentation metadata) and a LAMPS+PS run on the relabelled graph must
// reproduce the original result bit for bit.
func checkRelabelInvariance(ctx context.Context, rep *Report, tag string, m *power.Model, g *dag.Graph, factor, cplSec float64, results map[string]*core.Result) error {
	relabelled, err := relabel(g)
	if err != nil {
		return fmt.Errorf("campaign: relabel: %w", err)
	}
	deadline := factor * cplSec
	const ap = core.ApproachLAMPSPS
	p := graphhash.Problem{Graph: g, Model: m, Deadline: deadline, Approach: ap}
	q := p
	q.Graph = relabelled
	if graphhash.Sum(p) != graphhash.Sum(q) {
		rep.violate("%s: relabelling changed the canonical problem digest", tag)
	}
	eng := &core.Engine{Config: core.Config{Model: m, Deadline: deadline, SelfCheck: true}}
	res, err := eng.Run(ctx, ap, relabelled)
	base := results[ap]
	switch {
	case err != nil && errors.Is(err, core.ErrInfeasible):
		if base != nil {
			rep.violate("%s: relabelled graph infeasible where the original was not", tag)
		}
	case err != nil:
		if ctx.Err() != nil {
			return ctx.Err()
		}
		rep.violate("%s: relabelled run failed: %v", tag, err)
	case base == nil:
		rep.violate("%s: relabelled graph feasible where the original was not", tag)
	case res.Energy != base.Energy || res.NumProcs != base.NumProcs || res.Level != base.Level:
		rep.violate("%s: relabelling changed the %s result: %+v vs %+v", tag, ap, res.Energy, base.Energy)
	}
	rep.MetamorphicChecks++
	return nil
}

// checkLimitsIgnoreProcCap asserts the processor-count invariance of the
// limits: LIMIT-SF and LIMIT-MF assume an unbounded machine, so capping
// MaxProcs must not move them by a single bit.
func checkLimitsIgnoreProcCap(ctx context.Context, rep *Report, tag string, m *power.Model, g *dag.Graph, factor, cplSec float64, results map[string]*core.Result) error {
	capped := &core.Engine{Config: core.Config{Model: m, Deadline: factor * cplSec, MaxProcs: 2}}
	for _, ap := range []string{core.ApproachLimitSF, core.ApproachLimitMF} {
		res, err := capped.Run(ctx, ap, g)
		base := results[ap]
		switch {
		case err != nil && errors.Is(err, core.ErrInfeasible):
			if base != nil {
				rep.violate("%s: %s infeasible under MaxProcs=2 but feasible unbounded", tag, ap)
			}
		case err != nil:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			rep.violate("%s: %s under MaxProcs=2 failed: %v", tag, ap, err)
		case base == nil:
			rep.violate("%s: %s feasible under MaxProcs=2 but infeasible unbounded", tag, ap)
		case res.Energy != base.Energy || res.Level != base.Level:
			rep.violate("%s: MaxProcs moved %s from %g J to %g J", tag, ap, base.Energy.Total(), res.Energy.Total())
		}
		rep.MetamorphicChecks++
	}
	return nil
}

// runSelfTest injects the known corruption classes into the instance's
// widest-slack LAMPS+PS result and requires the verifier to reject every
// applicable one.
func runSelfTest(rep *Report, tag string, m *power.Model, g *dag.Graph, factors []float64, perFactor []map[string]*core.Result) {
	last := len(factors) - 1
	res := perFactor[last][core.ApproachLAMPSPS]
	if res == nil || res.Schedule == nil {
		return // infeasible even at the widest slack: nothing to corrupt
	}
	cplSec := float64(g.CriticalPathLength()) / m.FMax()
	deadline := factors[last] * cplSec
	pf, pt, err := oneClass(res.Schedule, m, res.Level)
	if err != nil {
		rep.violate("%s: mutation self-test platform: %v", tag, err)
		return
	}
	outcomes, err := verify.SelfTest(g, res.Schedule, pf, pt, deadline, energy.Options{PS: true})
	if err != nil {
		rep.violate("%s: mutation self-test baseline: %v", tag, err)
		return
	}
	for _, o := range outcomes {
		rep.MutationRuns++
		switch {
		case o.Skipped:
			rep.MutationSkipped++
		case o.Detected:
			rep.MutationDetected++
		default:
			rep.violate("%s: corruption %q went undetected by the verifier", tag, o.Class)
		}
	}
}

// oneClass returns the identical-processor machine of model m that s runs
// on, as the one-class platform the verifier prices every schedule on, and
// the operating point of ladder level lvl on it.
func oneClass(s *sched.Schedule, m *power.Model, lvl power.Level) (*power.Platform, power.OperatingPoint, error) {
	pf, err := power.Homogeneous(s.NumProcs, m)
	if err != nil {
		return nil, power.OperatingPoint{}, err
	}
	return pf, pf.Points()[lvl.Index], nil
}

// relabel rebuilds g with the same structure under fresh labels and name.
func relabel(g *dag.Graph) (*dag.Graph, error) {
	b := dag.NewBuilder(g.Name() + "~relabelled")
	for v := 0; v < g.NumTasks(); v++ {
		b.AddLabeledTask(g.Weight(v), fmt.Sprintf("r%d", v))
	}
	for u := 0; u < g.NumTasks(); u++ {
		for _, v := range g.Succs(u) {
			b.AddEdge(u, int(v))
		}
	}
	return b.Build()
}
