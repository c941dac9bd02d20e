package energy_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lamps/internal/energy"
	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/taskgen"
	"lamps/internal/verify"
)

// ftPlatform returns the LP×3 + HP×2 machine used across the fault tests.
func ftPlatform(t testing.TB) *power.Platform {
	t.Helper()
	lp := *power.Default70nm()
	lp.VddMax = 0.85
	lp.POn = 0.04
	if err := lp.Build(); err != nil {
		t.Fatal(err)
	}
	pf, err := power.NewPlatform(
		[]power.CoreClass{{Name: "lp", Model: &lp}, {Name: "hp", Model: power.Default70nm()}},
		[]int{0, 0, 0, 1, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

// TestResetFTMatchesReferenceWalk sweeps random fault-tolerant profiles
// against verify.Energy — an independent merged-interval walk — on the
// one-class platform of the schedule's identical processors, and requires
// bit-identical breakdowns at every ladder level, with and without
// processor shutdown. This is the FT counterpart of the Evaluate/per-gap
// parity pin.
func TestResetFTMatchesReferenceWalk(t *testing.T) {
	m := power.Default70nm()
	rng := rand.New(rand.NewSource(20260809))
	p := &energy.GapProfile{}
	for iter := 0; iter < 40; iter++ {
		g, err := taskgen.Member(2+rng.Intn(40), rng.Intn(4), rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.ListEDF(g, 2+rng.Intn(5))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sched.PlanBackups(s, nil, sched.BackupAnywhere)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := power.Homogeneous(s.NumProcs, m)
		if err != nil {
			t.Fatal(err)
		}
		p.ResetFT(s, plan)
		// A deadline comfortably past the recovery makespan at the slowest
		// level, so every ladder level is feasible and exercised.
		deadline := 4 * float64(plan.RecoveryMakespan) / m.Levels()[len(m.Levels())-1].Freq
		for _, lvl := range m.Levels() {
			for _, ps := range []bool{false, true} {
				opts := energy.Options{PS: ps}
				got, err := p.Evaluate(m, lvl, deadline, opts)
				if err != nil {
					t.Fatalf("iter %d lvl %d ps=%v: %v", iter, lvl.Index, ps, err)
				}
				if verr := verify.EnergyMatches(s, pf, plan, pf.Points()[lvl.Index], deadline, opts, got); verr != nil {
					t.Fatalf("iter %d lvl %d ps=%v: %v", iter, lvl.Index, ps, verr)
				}
			}
		}
	}
}

// TestResetPlatformFTMatchesReferenceWalk is the heterogeneous parity pin:
// EvaluatePoint over ResetPlatformFT must agree bit for bit with
// verify.Energy across random schedules and operating points.
func TestResetPlatformFTMatchesReferenceWalk(t *testing.T) {
	pf := ftPlatform(t)
	rng := rand.New(rand.NewSource(7))
	p := &energy.GapProfile{}
	var k sched.Scheduler
	for iter := 0; iter < 25; iter++ {
		g, err := taskgen.Member(2+rng.Intn(30), rng.Intn(4), rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		var s sched.Schedule
		if err := k.ScheduleIntoPlatform(&s, g, pf, pf.NumProcs(), sched.LPTPriorities(g), nil); err != nil {
			t.Fatal(err)
		}
		policy := sched.BackupAnywhere
		if iter%2 == 1 {
			policy = sched.PrimaryHPBackupLP
		}
		plan, err := sched.PlanBackups(&s, pf, policy)
		if err != nil {
			t.Fatal(err)
		}
		p.ResetPlatformFT(&s, pf, plan)
		deadline := 4 * float64(plan.RecoveryMakespan) / pf.RefFMax()
		pts := pf.Points()
		for i := 0; i < 6; i++ {
			pt := pts[rng.Intn(len(pts))]
			for _, ps := range []bool{false, true} {
				opts := energy.Options{PS: ps}
				got, err := p.EvaluatePoint(pf, pt, deadline, opts)
				if err != nil {
					continue // the sampled point may be deadline-infeasible
				}
				if verr := verify.EnergyMatches(&s, pf, plan, pt, deadline, opts, got); verr != nil {
					t.Fatalf("iter %d ps=%v: %v", iter, ps, verr)
				}
			}
		}
	}
}

// TestResetFTDeadlineCoversRecovery pins that the FT profile judges
// feasibility by the recovery makespan, not the primary one: a deadline
// between the two must be rejected.
func TestResetFTDeadlineCoversRecovery(t *testing.T) {
	m := power.Default70nm()
	g, err := taskgen.Member(12, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListEDF(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.PlanBackups(s, nil, sched.BackupAnywhere)
	if err != nil {
		t.Fatal(err)
	}
	if plan.RecoveryMakespan <= s.Makespan {
		t.Fatalf("degenerate case: recovery makespan %d not beyond primary %d", plan.RecoveryMakespan, s.Makespan)
	}
	lvl := m.Levels()[0]
	between := (float64(s.Makespan) + float64(plan.RecoveryMakespan)) / 2 / lvl.Freq
	p := energy.NewGapProfile(s)
	if _, err := p.Evaluate(m, lvl, between, energy.Options{}); err != nil {
		t.Fatalf("non-FT profile rejects a deadline past the primary makespan: %v", err)
	}
	p.ResetFT(s, plan)
	if _, err := p.Evaluate(m, lvl, between, energy.Options{}); err == nil {
		t.Error("FT profile accepted a deadline the recovery makespan misses")
	}
	full := float64(plan.RecoveryMakespan) / lvl.Freq
	if _, err := p.Evaluate(m, lvl, full, energy.Options{}); err != nil {
		t.Errorf("FT profile rejects a deadline equal to the recovery makespan: %v", err)
	}
}

// TestResetFTChargesReservedAsIdle pins the reservation-energy semantics:
// relative to the plain profile at the same deadline, the FT profile adds
// exactly the reserved backup cycles to idle time — awake capacity that
// neither sleeps nor computes.
func TestResetFTChargesReservedAsIdle(t *testing.T) {
	m := power.Default70nm()
	g, err := taskgen.Member(16, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListEDF(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.PlanBackups(s, nil, sched.BackupAnywhere)
	if err != nil {
		t.Fatal(err)
	}
	lvl := m.Levels()[0]
	deadline := 2 * float64(plan.RecoveryMakespan) / lvl.Freq
	opts := energy.Options{}

	plain := energy.NewGapProfile(s)
	base, err := plain.Evaluate(m, lvl, deadline, opts)
	if err != nil {
		t.Fatal(err)
	}
	ftp := &energy.GapProfile{}
	ftp.ResetFT(s, plan)
	ft, err := ftp.Evaluate(m, lvl, deadline, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Total() < base.Total() {
		t.Errorf("FT energy %g below non-FT %g at the same level and deadline", ft.Total(), base.Total())
	}
	if ft.ActiveTime != base.ActiveTime {
		t.Errorf("FT active time %g differs from non-FT %g: backups must not count as computation", ft.ActiveTime, base.ActiveTime)
	}
	// Without PS every awake-but-not-computing cycle lands in idle; the FT
	// walk covers the same horizon on the same machine, so the idle delta
	// is the backup-only processors' newly covered span plus intra-gap
	// reallocation — all of it idle, never sleep.
	if ft.SleepTime != 0 || base.SleepTime != 0 {
		t.Fatalf("non-PS evaluation produced sleep time")
	}
}

// TestResetFTSteadyStateZeroAlloc is the FT counterpart of the warm-Reset
// half of TestGapProfileEvaluateZeroAlloc: once a profile has absorbed a
// fault-tolerant schedule, re-extracting it — homogeneous and per class —
// must not allocate. The resets merge the planner's per-processor backup
// index, so there is no sort scratch left to grow.
func TestResetFTSteadyStateZeroAlloc(t *testing.T) {
	g, err := taskgen.Member(200, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListEDF(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.PlanBackups(s, nil, sched.BackupAnywhere)
	if err != nil {
		t.Fatal(err)
	}
	var p energy.GapProfile
	p.ResetFT(s, plan)
	if allocs := testing.AllocsPerRun(100, func() { p.ResetFT(s, plan) }); allocs != 0 {
		t.Errorf("warm GapProfile.ResetFT allocates %v allocs/op", allocs)
	}

	pf := ftPlatform(t)
	var k sched.Scheduler
	var ps sched.Schedule
	if err := k.ScheduleIntoPlatform(&ps, g, pf, pf.NumProcs(), sched.LPTPriorities(g), nil); err != nil {
		t.Fatal(err)
	}
	pplan, err := sched.PlanBackups(&ps, pf, sched.PrimaryHPBackupLP)
	if err != nil {
		t.Fatal(err)
	}
	p.ResetPlatformFT(&ps, pf, pplan)
	if allocs := testing.AllocsPerRun(100, func() { p.ResetPlatformFT(&ps, pf, pplan) }); allocs != 0 {
		t.Errorf("warm GapProfile.ResetPlatformFT allocates %v allocs/op", allocs)
	}
}

// TestResetFTRejectsPlansWithoutValidIndex pins that the FT resets refuse a
// backup plan whose per-processor index is missing or disagrees with its
// arrays, instead of charging reserved slots to the wrong processors: a
// plan assembled field by field, one whose Proc or Start was edited after
// planning, and one planned for a schedule with more processors.
func TestResetFTRejectsPlansWithoutValidIndex(t *testing.T) {
	g, err := taskgen.Member(60, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListEDF(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.PlanBackups(s, nil, sched.BackupAnywhere)
	if err != nil {
		t.Fatal(err)
	}
	literal := &sched.BackupPlan{
		Proc:             append([]int32(nil), plan.Proc...),
		Start:            append([]int64(nil), plan.Start...),
		Finish:           append([]int64(nil), plan.Finish...),
		RecoveryMakespan: plan.RecoveryMakespan,
		Policy:           plan.Policy,
	}

	// Edit copies of the planner's plan in place; a shallow struct copy
	// keeps the index, so each copy gets its own arrays first.
	edited := func(edit func(pl *sched.BackupPlan)) *sched.BackupPlan {
		c := *plan
		c.Proc = append([]int32(nil), plan.Proc...)
		c.Start = append([]int64(nil), plan.Start...)
		edit(&c)
		return &c
	}
	movedProc := edited(func(pl *sched.BackupPlan) {
		v := 0
		for p := range int32(s.NumProcs) {
			if p != s.Proc[v] && p != pl.Proc[v] {
				pl.Proc[v] = p
				return
			}
		}
	})
	reordered := edited(func(pl *sched.BackupPlan) {
		for p := range s.NumProcs {
			if backs := plan.BackupsOn(p); len(backs) >= 2 {
				pl.Start[backs[0]] = plan.Start[backs[len(backs)-1]] + 1
				return
			}
		}
		t.Fatal("no processor holds two backups")
	})
	s5, err := sched.ListEDF(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	wider, err := sched.PlanBackups(s5, nil, sched.BackupAnywhere)
	if err != nil {
		t.Fatal(err)
	}
	if n := wider.EmployedWith(s5); n < 5 {
		t.Fatalf("5-processor plan employs only %d processors", n)
	}

	for _, tc := range []struct {
		name string
		plan *sched.BackupPlan
	}{
		{"literal", literal},
		{"moved-proc", movedProc},
		{"reordered-start", reordered},
		{"wider-schedule", wider},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), "BackupPlan") {
					t.Errorf("ResetFT on a %s plan: recovered %v, want an index panic", tc.name, r)
				}
			}()
			var p energy.GapProfile
			p.ResetFT(s, tc.plan)
		})
	}

	pf := ftPlatform(t)
	var k sched.Scheduler
	var ps sched.Schedule
	if err := k.ScheduleIntoPlatform(&ps, g, pf, pf.NumProcs(), sched.LPTPriorities(g), nil); err != nil {
		t.Fatal(err)
	}
	pplan, err := sched.PlanBackups(&ps, pf, sched.PrimaryHPBackupLP)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "BackupPlan") {
			t.Errorf("ResetPlatformFT on a literal plan: recovered %v, want an index panic", r)
		}
	}()
	var p energy.GapProfile
	p.ResetPlatformFT(&ps, pf, &sched.BackupPlan{
		Proc:   pplan.Proc,
		Start:  pplan.Start,
		Finish: pplan.Finish,
		Policy: pplan.Policy,
	})
}
