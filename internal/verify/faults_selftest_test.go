package verify

import (
	"errors"
	"testing"

	"lamps/internal/energy"
	"lamps/internal/power"
	"lamps/internal/sched"
)

// faultFixture returns a fork-join schedule with a verified backup plan —
// a baseline on which every fault mutation class is applicable.
func faultFixture(t *testing.T) (*sched.Schedule, *sched.BackupPlan) {
	t.Helper()
	g := parallelGraph(t)
	s := schedule(t, g, 2)
	plan, err := sched.PlanBackups(s, nil, sched.BackupAnywhere)
	if err != nil {
		t.Fatal(err)
	}
	return s, plan
}

// TestSelfTestFaultsDetectsEveryClass: every fault corruption class must be
// applicable on the fork-join fixture — on two identical processors, and
// on the LP/HP platform under both backup policies — every one must be
// detected, and each detection must be a Violation: the test that the
// checkers actually reject what they claim to reject.
func TestSelfTestFaultsDetectsEveryClass(t *testing.T) {
	type input struct {
		name string
		s    *sched.Schedule
		pf   *power.Platform
		plan *sched.BackupPlan
		pt   power.OperatingPoint
	}
	s, plan := faultFixture(t)
	one := oneClass(t, 2)
	inputs := []input{{"one-class", s, one, plan, one.Points()[power.Default70nm().CriticalLevel().Index]}}
	hetero := heteroPlatform(t)
	for _, policy := range []sched.FaultPolicy{sched.BackupAnywhere, sched.PrimaryHPBackupLP} {
		var hs sched.Schedule
		var k sched.Scheduler
		if err := k.ScheduleIntoPlatform(&hs, s.Graph, hetero, hetero.NumProcs(), sched.LPTPriorities(s.Graph), nil); err != nil {
			t.Fatal(err)
		}
		hplan, err := sched.PlanBackups(&hs, hetero, policy)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{"lp/hp " + string(policy), &hs, hetero, hplan, hetero.MaxPoint()})
	}
	for _, in := range inputs {
		deadline := float64(in.plan.RecoveryMakespan) / in.pt.TimelineFreq * 2
		for _, opts := range []energy.Options{{}, {PS: true}} {
			results, err := SelfTestFaults(in.s.Graph, in.s, in.pf, in.plan, in.pt, deadline, opts)
			if err != nil {
				t.Fatalf("%s PS=%v: %v", in.name, opts.PS, err)
			}
			if len(results) < 8 {
				t.Fatalf("%s: only %d fault mutation classes", in.name, len(results))
			}
			for _, r := range results {
				if r.Skipped {
					t.Errorf("%s PS=%v: class %q not applicable on a fork-join fixture", in.name, opts.PS, r.Class)
					continue
				}
				if !r.Detected {
					t.Errorf("%s PS=%v: corruption %q went undetected", in.name, opts.PS, r.Class)
					continue
				}
				if !errors.Is(r.Err, ErrViolation) {
					t.Errorf("%s PS=%v: class %q detected with a non-Violation error: %v", in.name, opts.PS, r.Class, r.Err)
				}
			}
		}
	}
}

// TestSelfTestFaultsRejectsBadBaseline: an already corrupt plan must fail
// fast instead of producing mutation results.
func TestSelfTestFaultsRejectsBadBaseline(t *testing.T) {
	s, plan := faultFixture(t)
	bad := clonePlan(plan)
	bad.Start[0] = s.Finish[0] - 1
	bad.Finish[0] = bad.Start[0] + (plan.Finish[0] - plan.Start[0])
	pf := oneClass(t, 2)
	pt := pf.MaxPoint()
	deadline := float64(plan.RecoveryMakespan) / pt.TimelineFreq * 2
	if _, err := SelfTestFaults(s.Graph, s, pf, bad, pt, deadline, energy.Options{}); !errors.Is(err, ErrViolation) {
		t.Fatalf("corrupt baseline: %v", err)
	}
}

// TestFaultPlanRejectsPolicyBreach: a hand-moved backup violating the
// primary-HP/backup-LP restriction must be caught by the policy check.
func TestFaultPlanRejectsPolicyBreach(t *testing.T) {
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
	g := parallelGraph(t)
	var s sched.Schedule
	var k sched.Scheduler
	if err := k.ScheduleIntoPlatform(&s, g, pf, pf.NumProcs(), sched.LPTPriorities(g), nil); err != nil {
		t.Fatal(err)
	}
	plan, err := sched.PlanBackups(&s, pf, sched.PrimaryHPBackupLP)
	if err != nil {
		t.Fatal(err)
	}
	opt := FaultPlanOptions{Platform: pf, Policy: sched.PrimaryHPBackupLP}
	if err := FaultPlan(g, &s, plan, opt); err != nil {
		t.Fatalf("pristine plan rejected: %v", err)
	}
	// Move some backup onto a reference-class processor (class hp = the
	// platform's reference class: procs 3 and 4).
	ref := pf.RefClass()
	bad := clonePlan(plan)
	moved := false
	for v := range bad.Proc {
		for p := 0; p < pf.NumProcs(); p++ {
			if pf.ClassOf(p) == ref && int32(p) != s.Proc[v] {
				bad.Proc[v] = int32(p)
				moved = true
				break
			}
		}
		if moved {
			break
		}
	}
	if !moved {
		t.Fatal("no reference-class processor available to move a backup onto")
	}
	if err := FaultPlan(g, &s, bad, opt); err == nil {
		t.Error("policy breach went undetected")
	}
}
