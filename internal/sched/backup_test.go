package sched_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"lamps/internal/dag"
	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/taskgen"
	"lamps/internal/verify"
)

// TestPlanBackupsFig4a pins the plan's shape on the paper's running
// example: every backup avoids its primary's processor, starts at or after
// the detection point, and the whole plan passes the independent verifier.
func TestPlanBackupsFig4a(t *testing.T) {
	g := buildFig4a(t)
	s, err := sched.ListEDF(g, 3)
	if err != nil {
		t.Fatalf("ListEDF: %v", err)
	}
	plan, err := sched.PlanBackups(s, nil, sched.BackupAnywhere)
	if err != nil {
		t.Fatalf("PlanBackups: %v", err)
	}
	if err := verify.FaultPlan(g, s, plan, verify.FaultPlanOptions{Policy: plan.Policy}); err != nil {
		t.Fatalf("FaultPlan rejects the plan: %v", err)
	}
	for v := 0; v < g.NumTasks(); v++ {
		if plan.Proc[v] == s.Proc[v] {
			t.Errorf("task %d backup on its primary's processor %d", v, s.Proc[v])
		}
		if plan.Start[v] < s.Finish[v] {
			t.Errorf("task %d backup at %d before primary finish %d", v, plan.Start[v], s.Finish[v])
		}
	}
	if plan.RecoveryMakespan < s.Makespan {
		t.Errorf("recovery makespan %d below primary makespan %d", plan.RecoveryMakespan, s.Makespan)
	}
	if got, want := plan.ReservedCycles(), g.TotalWork(); got != want {
		t.Errorf("reserved cycles = %d, want the graph's total work %d on identical processors", got, want)
	}
}

// TestPlanBackupsSingleProcessor asserts the infeasibility signal: with one
// processor there is nowhere to put any backup.
func TestPlanBackupsSingleProcessor(t *testing.T) {
	g := buildFig4a(t)
	s, err := sched.ListEDF(g, 1)
	if err != nil {
		t.Fatalf("ListEDF: %v", err)
	}
	if _, err := sched.PlanBackups(s, nil, sched.BackupAnywhere); !errors.Is(err, sched.ErrBackupInfeasible) {
		t.Errorf("PlanBackups on 1 processor = %v, want ErrBackupInfeasible", err)
	}
}

// TestPlanBackupsUnknownPolicy asserts policy validation; the empty policy
// must resolve to backup-anywhere rather than erroring.
func TestPlanBackupsUnknownPolicy(t *testing.T) {
	g := buildFig4a(t)
	s, err := sched.ListEDF(g, 2)
	if err != nil {
		t.Fatalf("ListEDF: %v", err)
	}
	if _, err := sched.PlanBackups(s, nil, "teleport"); err == nil {
		t.Error("PlanBackups accepted an unknown policy")
	}
	plan, err := sched.PlanBackups(s, nil, "")
	if err != nil {
		t.Fatalf("PlanBackups with empty policy: %v", err)
	}
	if plan.Policy != sched.BackupAnywhere {
		t.Errorf("empty policy resolved to %q, want %q", plan.Policy, sched.BackupAnywhere)
	}
}

// TestPlanBackupsPolicyRestriction pins the primary-HP/backup-LP rule on
// the heterogeneous test platform: it has three LP processors, so a
// non-reference processor other than the primary's always exists and every
// backup must land outside the reference class.
func TestPlanBackupsPolicyRestriction(t *testing.T) {
	pf := testPlatform(t)
	g := buildFig4a(t)
	k := sched.Scheduler{}
	var s sched.Schedule
	if err := k.ScheduleIntoPlatform(&s, g, pf, pf.NumProcs(), sched.LPTPriorities(g), nil); err != nil {
		t.Fatalf("ScheduleIntoPlatform: %v", err)
	}
	plan, err := sched.PlanBackups(&s, pf, sched.PrimaryHPBackupLP)
	if err != nil {
		t.Fatalf("PlanBackups: %v", err)
	}
	ref := pf.RefClass()
	for v := range plan.Proc {
		if pf.ClassOf(int(plan.Proc[v])) == ref {
			t.Errorf("task %d backup on reference-class processor %d under %q", v, plan.Proc[v], plan.Policy)
		}
	}
	if err := verify.FaultPlan(g, &s, plan, verify.FaultPlanOptions{Platform: pf, Policy: plan.Policy}); err != nil {
		t.Fatalf("FaultPlan rejects the plan: %v", err)
	}
}

// TestPlanBackupsProperty sweeps random graphs × processor counts × both
// policies, homogeneous and heterogeneous, and requires every plan to pass
// the independent verifier. The same BackupPlanner is reused throughout and
// its plans compared against fresh ones, pinning the scratch-reuse
// determinism the engine relies on.
func TestPlanBackupsProperty(t *testing.T) {
	pf := testPlatform(t)
	rng := rand.New(rand.NewSource(20260809))
	var reused sched.BackupPlanner
	for iter := 0; iter < 60; iter++ {
		size := 2 + rng.Intn(40)
		g, err := taskgen.Member(size, rng.Intn(4), rng.Int63())
		if err != nil {
			t.Fatalf("iter %d: taskgen: %v", iter, err)
		}
		policy := sched.BackupAnywhere
		if iter%2 == 1 {
			policy = sched.PrimaryHPBackupLP
		}
		var s *sched.Schedule
		var plat *power.Platform
		if iter%3 == 0 {
			plat = pf
			var ps sched.Schedule
			k := sched.Scheduler{}
			if err := k.ScheduleIntoPlatform(&ps, g, pf, pf.NumProcs(), sched.LPTPriorities(g), nil); err != nil {
				t.Fatalf("iter %d: ScheduleIntoPlatform: %v", iter, err)
			}
			s = &ps
		} else {
			nprocs := 2 + rng.Intn(5)
			if s, err = sched.ListEDF(g, nprocs); err != nil {
				t.Fatalf("iter %d: ListEDF: %v", iter, err)
			}
		}
		plan, err := reused.Plan(s, plat, policy)
		if err != nil {
			t.Fatalf("iter %d: Plan: %v", iter, err)
		}
		if err := verify.FaultPlan(g, s, plan, verify.FaultPlanOptions{Platform: plat, Policy: policy}); err != nil {
			t.Fatalf("iter %d (size %d, policy %s): %v", iter, size, policy, err)
		}
		fresh, err := sched.PlanBackups(s, plat, policy)
		if err != nil {
			t.Fatalf("iter %d: PlanBackups: %v", iter, err)
		}
		if !reflect.DeepEqual(plan, fresh) {
			t.Fatalf("iter %d: reused planner diverges from a fresh plan", iter)
		}
	}
}

// TestBackupPlanEmployedWith pins the processor-count accounting: a
// processor holding only backup slots still counts as employed.
func TestBackupPlanEmployedWith(t *testing.T) {
	b := dag.NewBuilder("chain")
	u := b.AddTask(4)
	v := b.AddTask(4)
	b.AddEdge(u, v)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// A two-task chain packs onto one processor; every backup must go to
	// the other, primary-idle one.
	s, err := sched.ListEDF(g, 2)
	if err != nil {
		t.Fatalf("ListEDF: %v", err)
	}
	if s.ProcsUsed() != 1 {
		t.Fatalf("ProcsUsed = %d, want 1 for a chain", s.ProcsUsed())
	}
	plan, err := sched.PlanBackups(s, nil, sched.BackupAnywhere)
	if err != nil {
		t.Fatalf("PlanBackups: %v", err)
	}
	if got := plan.EmployedWith(s); got != 2 {
		t.Errorf("EmployedWith = %d, want 2: the backup-only processor must stay counted", got)
	}
}
