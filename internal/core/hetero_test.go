package core

import (
	"errors"
	"math/rand"
	"testing"

	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/verify"
)

// lpTestModel returns the low-power class model used across the
// heterogeneous tests: the 70 nm constants with a lower voltage ceiling, so
// its fmax (and timeline slot stretch) differs from the stock HP class.
func lpTestModel(t testing.TB) *power.Model {
	t.Helper()
	lp := *power.Default70nm()
	lp.VddMax = 0.85
	lp.POn = 0.04
	lp.PSleep = 25e-6
	lp.EOverhead = 200e-6
	if err := lp.Build(); err != nil {
		t.Fatal(err)
	}
	return &lp
}

// heteroTestPlatform returns the canonical LP×3 + HP×1 heterogeneous test
// machine (the shape of examples/platforms/lp3hp1.json).
func heteroTestPlatform(t testing.TB) *power.Platform {
	t.Helper()
	pf, err := power.NewPlatform(
		[]power.CoreClass{{Name: "lp", Model: lpTestModel(t)}, {Name: "hp", Model: power.Default70nm()}},
		[]int{0, 0, 0, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

// requireSameResult fails unless the platform-config result is
// bit-identical to the legacy-config one: energy breakdown, level,
// processor count, stats and every schedule time.
func requireSameResult(t *testing.T, ctx string, legacy, plat *Result) {
	t.Helper()
	if plat.Energy != legacy.Energy {
		t.Fatalf("%s: energy breakdown differs\n  platform %+v\n  legacy   %+v", ctx, plat.Energy, legacy.Energy)
	}
	if plat.Level != legacy.Level {
		t.Fatalf("%s: level %+v != legacy %+v", ctx, plat.Level, legacy.Level)
	}
	if plat.NumProcs != legacy.NumProcs {
		t.Fatalf("%s: %d procs != legacy %d", ctx, plat.NumProcs, legacy.NumProcs)
	}
	if plat.Stats != legacy.Stats {
		t.Fatalf("%s: stats %+v != legacy %+v", ctx, plat.Stats, legacy.Stats)
	}
	if (plat.Schedule == nil) != (legacy.Schedule == nil) {
		t.Fatalf("%s: schedule presence differs", ctx)
	}
	if plat.Schedule != nil {
		ps, ls := plat.Schedule, legacy.Schedule
		if ps.Makespan != ls.Makespan || ps.NumProcs != ls.NumProcs {
			t.Fatalf("%s: schedule shape (%d procs, makespan %d) != legacy (%d, %d)",
				ctx, ps.NumProcs, ps.Makespan, ls.NumProcs, ls.Makespan)
		}
		for v := range ls.Proc {
			if ps.Proc[v] != ls.Proc[v] || ps.Start[v] != ls.Start[v] || ps.Finish[v] != ls.Finish[v] {
				t.Fatalf("%s: task %d placement differs", ctx, v)
			}
		}
	}
}

// TestHomogeneousPlatformParity is the tentpole's behaviour-preservation
// gate, enforced under -race by `make parity-gate`: for every approach — the
// six of the paper plus both multiple-frequency extensions — a Config
// carrying an N-identical-core Platform must produce results byte-identical
// to the legacy (Model, MaxProcs=N) Config: same energy breakdown bit for
// bit, same operating level, same processor count, same schedule times, same
// search stats. newRun collapses a homogeneous platform onto the legacy
// engine path, so any divergence here means that normalisation — or a
// platform code path leaking into homogeneous runs — broke.
func TestHomogeneousPlatformParity(t *testing.T) {
	m := power.Default70nm()
	rng := rand.New(rand.NewSource(20260809))
	graphs := []*dag.Graph{
		buildFig4a(t, coarseWeight),
		randomGraph(rng, 25, 0.15, coarseWeight),
		randomGraph(rng, 50, 0.08, fineWeight),
	}
	for gi, g := range graphs {
		for _, n := range []int{1, 3, 6} {
			pf, err := power.Homogeneous(n, m)
			if err != nil {
				t.Fatal(err)
			}
			for _, factor := range []float64{1.2, 2, 4} {
				legacyCfg := DeadlineFactor(g, m, factor)
				legacyCfg.MaxProcs = n
				platCfg := DeadlineFactorPlatform(g, pf, factor)
				platCfg.MaxProcs = n
				if legacyCfg.Deadline != platCfg.Deadline {
					t.Fatalf("deadline %v != platform deadline %v", legacyCfg.Deadline, platCfg.Deadline)
				}
				for _, approach := range Approaches {
					ctx := approach
					legacy, err1 := Run(approach, g, legacyCfg)
					plat, err2 := Run(approach, g, platCfg)
					if (err1 == nil) != (err2 == nil) {
						t.Fatalf("g%d n%d f%g %s: err %v vs legacy %v", gi, n, factor, ctx, err2, err1)
					}
					if err1 != nil {
						continue
					}
					requireSameResult(t, ctx, legacy, plat)
					if plat.Platform != nil {
						t.Fatalf("%s: homogeneous-platform result carries a Platform; normalisation failed", ctx)
					}
				}
				// The multiple-frequency extensions must normalise identically.
				li, e1 := VoltageIslands(g, legacyCfg, true)
				pi, e2 := VoltageIslands(g, platCfg, true)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("g%d n%d f%g islands: err %v vs legacy %v", gi, n, factor, e2, e1)
				}
				if e1 == nil && (pi.Energy != li.Energy || pi.NumProcs != li.NumProcs) {
					t.Fatalf("g%d n%d f%g islands: %+v != legacy %+v", gi, n, factor, pi.Energy, li.Energy)
				}
				lp, e3 := SlackReclaimDVS(g, legacyCfg, true)
				pp, e4 := SlackReclaimDVS(g, platCfg, true)
				if (e3 == nil) != (e4 == nil) {
					t.Fatalf("g%d n%d f%g pertask: err %v vs legacy %v", gi, n, factor, e4, e3)
				}
				if e3 == nil && (pp.Energy != lp.Energy || pp.NumProcs != lp.NumProcs) {
					t.Fatalf("g%d n%d f%g pertask: %+v != legacy %+v", gi, n, factor, pp.Energy, lp.Energy)
				}
			}
		}
	}
}

// TestHeterogeneousApproachesVerified runs every approach on the genuinely
// heterogeneous machine and holds each result to the independent verifier:
// schedules must be legal under per-class scaled durations, the reported
// breakdown must match the first-principles platform energy walk bit for
// bit, deadlines must hold, and the LIMIT bounds must actually bound the
// heuristics from below.
func TestHeterogeneousApproachesVerified(t *testing.T) {
	pf := heteroTestPlatform(t)
	rng := rand.New(rand.NewSource(17))
	graphs := []*dag.Graph{
		buildFig4a(t, coarseWeight),
		randomGraph(rng, 30, 0.12, coarseWeight),
	}
	for gi, g := range graphs {
		// Anchor the deadlines to the machine's actual full-prefix EDF
		// makespan — the schedule the engine's phase-1 feasibility check
		// uses — so the tight slack is genuinely tight yet always feasible.
		base, err := sched.ListSchedulePlatform(g, pf, pf.NumProcs(), sched.EDFPriorities(g, 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		minDeadline := float64(base.Makespan) / pf.RefFMax()
		for _, factor := range []float64{1.05, 2.5} {
			cfg := Config{Platform: pf, Deadline: minDeadline * factor}
			var sfE, mfE float64
			achieved := make(map[string]float64)
			for _, approach := range Approaches {
				r, err := Run(approach, g, cfg)
				if err != nil {
					t.Fatalf("g%d f%g %s: %v", gi, factor, approach, err)
				}
				if r.Platform != pf {
					t.Fatalf("g%d f%g %s: result does not carry the platform", gi, factor, approach)
				}
				switch approach {
				case ApproachLimitSF:
					sfE = r.TotalEnergy()
				case ApproachLimitMF:
					mfE = r.TotalEnergy()
				default:
					achieved[approach] = r.TotalEnergy()
					if r.Schedule == nil {
						t.Fatalf("g%d f%g %s: no schedule", gi, factor, approach)
					}
					if err := verify.ScheduleWithin(g, r.Schedule, verify.ScheduleOptions{Platform: pf}); err != nil {
						t.Fatalf("g%d f%g %s: illegal schedule: %v", gi, factor, approach, err)
					}
					if ms := r.MakespanSec(); ms > cfg.Deadline*(1+1e-9) {
						t.Fatalf("g%d f%g %s: makespan %.6gs > deadline %.6gs", gi, factor, approach, ms, cfg.Deadline)
					}
					ps := approach == ApproachSSPS || approach == ApproachLAMPSPS
					if err := verify.EnergyMatches(r.Schedule, pf, nil, r.Point, cfg.Deadline,
						energy.Options{PS: ps}, r.Energy); err != nil {
						t.Fatalf("g%d f%g %s: breakdown rejected: %v", gi, factor, approach, err)
					}
				}
			}
			if mfE > sfE*(1+1e-9) {
				t.Errorf("g%d f%g: LIMIT-MF %.6g > LIMIT-SF %.6g", gi, factor, mfE, sfE)
			}
			for a, e := range achieved {
				if sfE > e*(1+1e-9) {
					t.Errorf("g%d f%g: LIMIT-SF %.6g above %s %.6g — not a lower bound", gi, factor, sfE, a, e)
				}
			}
		}
	}
}

// TestHeterogeneousSelfCheck runs the engine's built-in verification on
// heterogeneous configs: with SelfCheck set, every schedule the search
// builds is re-verified against the platform verifier and the winning
// breakdown re-derived bit for bit. A pass here means the serving layer's
// canary mode covers heterogeneous requests too.
func TestHeterogeneousSelfCheck(t *testing.T) {
	pf := heteroTestPlatform(t)
	g := buildFig4a(t, coarseWeight)
	cfg := DeadlineFactorPlatform(g, pf, 2)
	cfg.SelfCheck = true
	for _, approach := range Approaches {
		if _, err := Run(approach, g, cfg); err != nil {
			t.Fatalf("%s with SelfCheck: %v", approach, err)
		}
	}
}

// TestHeterogeneousScaledSlotEnvelope: the graph builder caps total work
// plus critical path at dag.MaxCycles raw cycles, but on a platform every
// slot is stretched by its class's scale on the shared timeline. A graph
// inside the raw envelope whose stretched envelope passes dag.MaxCycles
// (three 2^30-cycle tasks on a class of scale 1e12) must be rejected as a
// bad weight by every approach, with or without SelfCheck, instead of
// being scheduled on a wrapped-around timeline; the same graph on the
// canonical LP/HP machine stays schedulable.
func TestHeterogeneousScaledSlotEnvelope(t *testing.T) {
	slow := *power.Default70nm()
	slow.Ld *= 1e12
	if err := slow.Build(); err != nil {
		t.Fatal(err)
	}
	pf, err := power.NewPlatform(
		[]power.CoreClass{{Name: "lp", Model: &slow}, {Name: "hp", Model: power.Default70nm()}},
		[]int{0, 0, 0, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	b := dag.NewBuilder("envelope")
	for i := 0; i < 3; i++ {
		b.AddTask(1 << 30)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, selfCheck := range []bool{false, true} {
		cfg := DeadlineFactorPlatform(g, pf, 2)
		cfg.SelfCheck = selfCheck
		for _, approach := range Approaches {
			if _, err := Run(approach, g, cfg); !errors.Is(err, dag.ErrBadWeight) {
				t.Errorf("SelfCheck=%v %s: err = %v, want dag.ErrBadWeight", selfCheck, approach, err)
			}
		}
	}
	cfg := DeadlineFactorPlatform(g, heteroTestPlatform(t), 2)
	cfg.SelfCheck = true
	if _, err := Run(ApproachLAMPSPS, g, cfg); err != nil {
		t.Errorf("canonical LP/HP platform: %v", err)
	}
}

// TestHeteroTightDeadlineNeedsHPCore pins the scheduling value of
// heterogeneity: a deadline sustainable only at the HP core's speed is
// feasible on the mixed machine (the critical chain lands on the HP core)
// but infeasible on an LP-only machine.
func TestHeteroTightDeadlineNeedsHPCore(t *testing.T) {
	lp := lpTestModel(t)
	hetero := heteroTestPlatform(t)
	lpOnly, err := power.Homogeneous(4, lp)
	if err != nil {
		t.Fatal(err)
	}
	// A serial chain: the makespan is the critical path, no parallelism to
	// hide slow cores behind.
	b := dag.NewBuilder("chain")
	for i := 0; i < 6; i++ {
		b.AddTask(coarseWeight)
		if i > 0 {
			b.AddEdge(i-1, i)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	deadline := 1.05 * float64(g.CriticalPathLength()) / hetero.RefFMax()

	r, err := LAMPS(g, Config{Platform: hetero, Deadline: deadline})
	if err != nil {
		t.Fatalf("heterogeneous machine cannot meet an HP-speed deadline: %v", err)
	}
	for v := 0; v < g.NumTasks(); v++ {
		if c := hetero.ClassOf(int(r.Schedule.Proc[v])); c != hetero.RefClass() {
			t.Errorf("chain task %d placed on class %d, want the HP class", v, c)
		}
	}
	if _, err := LAMPS(g, Config{Platform: lpOnly, Deadline: deadline}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("LP-only machine met an HP-speed deadline (err=%v)", err)
	}
}

// TestHeteroMoreProcsNeverWorse: on the heterogeneous machine, allowing the
// search more processors can only keep or reduce the best energy — the
// candidate set grows monotonically with MaxProcs.
func TestHeteroMoreProcsNeverWorse(t *testing.T) {
	pf := heteroTestPlatform(t)
	rng := rand.New(rand.NewSource(23))
	g := randomGraph(rng, 24, 0.1, coarseWeight)
	cfg := DeadlineFactorPlatform(g, pf, 3)
	prev := -1.0
	for _, maxProcs := range []int{1, 2, 3, 4} {
		c := cfg
		c.MaxProcs = maxProcs
		r, err := LAMPSPS(g, c)
		if errors.Is(err, ErrInfeasible) && prev < 0 {
			// Small LP-only prefixes may simply lack the throughput for the
			// deadline; monotonicity is only claimed once a count is feasible.
			continue
		}
		if err != nil {
			t.Fatalf("MaxProcs=%d: %v", maxProcs, err)
		}
		if prev >= 0 && r.TotalEnergy() > prev*(1+1e-9) {
			t.Errorf("MaxProcs=%d: energy %.6g > %.6g with fewer processors", maxProcs, r.TotalEnergy(), prev)
		}
		prev = r.TotalEnergy()
	}
}

// TestHeteroFasterLPNeverHurtsLimit: the LIMIT-MF bound is monotone in the
// LP/HP speed ratio — raising the LP class's voltage ceiling (making it
// faster) can only keep or reduce the bound, because every operating point
// of the slower machine's cheapest class remains available.
func TestHeteroFasterLPNeverHurtsLimit(t *testing.T) {
	g := buildFig4a(t, coarseWeight)
	hp := power.Default70nm()
	prev := -1.0
	for _, vmax := range []float64{0.70, 0.80, 0.90, 1.00} {
		lp := *power.Default70nm()
		lp.VddMax = vmax
		lp.POn = 0.04
		if err := lp.Build(); err != nil {
			t.Fatal(err)
		}
		pf, err := power.NewPlatform(
			[]power.CoreClass{{Name: "lp", Model: &lp}, {Name: "hp", Model: hp}},
			[]int{0, 0, 0, 1},
		)
		if err != nil {
			t.Fatal(err)
		}
		// Generous deadline: the bound is then W × min-class E/cycle at each
		// machine's critical levels, unaffected by feasibility clipping.
		cfg := Config{Platform: pf, Deadline: 10 * float64(g.CriticalPathLength()) / hp.FMax()}
		r, err := LimitMF(g, cfg)
		if err != nil {
			t.Fatalf("vmax=%.2f: %v", vmax, err)
		}
		if prev >= 0 && r.TotalEnergy() > prev*(1+1e-9) {
			t.Errorf("vmax=%.2f: LIMIT-MF %.6g > %.6g of the slower LP class", vmax, r.TotalEnergy(), prev)
		}
		prev = r.TotalEnergy()
	}
}

// TestHeterogeneousExtensions: the per-task DVS and voltage-island
// extensions must produce feasible, bounded results on the heterogeneous
// machine — finishing within the deadline and never beating the LIMIT-MF
// bound.
func TestHeterogeneousExtensions(t *testing.T) {
	pf := heteroTestPlatform(t)
	rng := rand.New(rand.NewSource(29))
	g := randomGraph(rng, 20, 0.12, coarseWeight)
	cfg := DeadlineFactorPlatform(g, pf, 2)
	mf, err := LimitMF(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := LAMPSPS(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	pt, err := SlackReclaimDVS(g, cfg, true)
	if err != nil {
		t.Fatalf("per-task DVS: %v", err)
	}
	for v, fin := range pt.FinishSec {
		if fin > cfg.Deadline*(1+1e-9) {
			t.Errorf("per-task DVS: task %d finishes at %.6gs past deadline %.6gs", v, fin, cfg.Deadline)
		}
	}
	if pt.TotalEnergy() < mf.TotalEnergy()*(1-1e-9) {
		t.Errorf("per-task DVS %.6g beats LIMIT-MF %.6g", pt.TotalEnergy(), mf.TotalEnergy())
	}

	isl, err := VoltageIslands(g, cfg, true)
	if err != nil {
		t.Fatalf("voltage islands: %v", err)
	}
	if ms := isl.MakespanSec(); ms > cfg.Deadline*(1+1e-9) {
		t.Errorf("voltage islands: makespan %.6gs > deadline %.6gs", ms, cfg.Deadline)
	}
	if isl.TotalEnergy() > base.TotalEnergy()*(1+1e-9) {
		t.Errorf("voltage islands %.6g worse than its LAMPS+PS base %.6g", isl.TotalEnergy(), base.TotalEnergy())
	}
	if isl.TotalEnergy() < mf.TotalEnergy()*(1-1e-9) {
		t.Errorf("voltage islands %.6g beats LIMIT-MF %.6g", isl.TotalEnergy(), mf.TotalEnergy())
	}
}
