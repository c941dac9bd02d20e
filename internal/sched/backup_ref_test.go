package sched_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/taskgen"
)

// referencePlan is the linear-scan backup placement the planner replaced,
// kept as the differential oracle for BackupPlanner.Plan: tasks in
// (primary finish, index) order, every eligible processor tried in index
// order, each fit rescanning that processor's whole timeline from its
// first interval, and the restriction of the primary-HP/backup-LP policy
// decided by scanning every processor for every task. It is deliberately
// slow and shares no code with the planner.
func referencePlan(s *sched.Schedule, pf *power.Platform, policy sched.FaultPolicy) (*sched.BackupPlan, error) {
	if policy == "" {
		policy = sched.BackupAnywhere
	}
	if s.NumProcs < 2 {
		return nil, sched.ErrBackupInfeasible
	}
	g := s.Graph
	n := g.NumTasks()
	type iv struct{ start, finish int64 }
	ivs := make([][]iv, s.NumProcs)
	for p := range ivs {
		for _, v := range s.TasksOn(p) {
			ivs[p] = append(ivs[p], iv{s.Start[v], s.Finish[v]})
		}
	}
	order := make([]int, n)
	for v := range order {
		order[v] = v
	}
	sort.Slice(order, func(i, j int) bool {
		vi, vj := order[i], order[j]
		if s.Finish[vi] != s.Finish[vj] {
			return s.Finish[vi] < s.Finish[vj]
		}
		return vi < vj
	})
	fit := func(list []iv, lb, dur int64) int64 {
		cursor := lb
		for _, x := range list {
			if x.start >= cursor+dur {
				break
			}
			if x.finish > cursor {
				cursor = x.finish
			}
		}
		return cursor
	}
	plan := &sched.BackupPlan{
		Proc:   make([]int32, n),
		Start:  make([]int64, n),
		Finish: make([]int64, n),
		Policy: policy,
	}
	ref := -1
	if pf != nil {
		ref = pf.RefClass()
	}
	for _, v := range order {
		lb := s.Finish[v]
		for _, u := range g.Preds(v) {
			lb = max(lb, plan.Finish[u])
		}
		w := g.Weight(v)
		restrict := false
		if policy == sched.PrimaryHPBackupLP && pf != nil {
			for p := 0; p < s.NumProcs; p++ {
				if int32(p) != s.Proc[v] && pf.ClassOf(p) != ref {
					restrict = true
				}
			}
		}
		bestProc, bestStart, bestFinish := -1, int64(0), int64(0)
		for p := 0; p < s.NumProcs; p++ {
			if int32(p) == s.Proc[v] || restrict && pf.ClassOf(p) == ref {
				continue
			}
			dur := w
			if pf != nil {
				dur = pf.ScaledWeight(pf.ClassOf(p), w)
			}
			start := fit(ivs[p], lb, dur)
			if bestProc < 0 || start+dur < bestFinish {
				bestProc, bestStart, bestFinish = p, start, start+dur
			}
		}
		if bestProc < 0 {
			return nil, sched.ErrBackupInfeasible
		}
		plan.Proc[v] = int32(bestProc)
		plan.Start[v] = bestStart
		plan.Finish[v] = bestFinish
		list := ivs[bestProc]
		i := sort.Search(len(list), func(j int) bool { return list[j].start > bestStart })
		list = append(list, iv{})
		copy(list[i+1:], list[i:])
		list[i] = iv{bestStart, bestFinish}
		ivs[bestProc] = list
		plan.RecoveryMakespan = max(plan.RecoveryMakespan, bestFinish)
	}
	return plan, nil
}

// planMatchesReference plans s with bp and with referencePlan and reports
// any difference on an exported field, or a per-processor index that does
// not list exactly each processor's backups in start order.
func planMatchesReference(bp *sched.BackupPlanner, s *sched.Schedule, pf *power.Platform, policy sched.FaultPolicy) error {
	got, err := bp.Plan(s, pf, policy)
	want, werr := referencePlan(s, pf, policy)
	if (err == nil) != (werr == nil) {
		return fmt.Errorf("Plan error %v, reference error %v", err, werr)
	}
	if err != nil {
		return nil
	}
	if got.RecoveryMakespan != want.RecoveryMakespan || got.Policy != want.Policy {
		return fmt.Errorf("recovery makespan/policy %d/%q, reference %d/%q",
			got.RecoveryMakespan, got.Policy, want.RecoveryMakespan, want.Policy)
	}
	for v := range want.Proc {
		if got.Proc[v] != want.Proc[v] || got.Start[v] != want.Start[v] || got.Finish[v] != want.Finish[v] {
			return fmt.Errorf("task %d backup (proc %d, %d..%d), reference (proc %d, %d..%d)", v,
				got.Proc[v], got.Start[v], got.Finish[v], want.Proc[v], want.Start[v], want.Finish[v])
		}
	}
	seen := 0
	for p := 0; p < s.NumProcs; p++ {
		on := got.BackupsOn(p)
		for i, v := range on {
			if int(got.Proc[v]) != p {
				return fmt.Errorf("BackupsOn(%d) lists task %d, whose backup is on %d", p, v, got.Proc[v])
			}
			if i > 0 && got.Start[on[i-1]] >= got.Start[v] {
				return fmt.Errorf("BackupsOn(%d) out of start order at position %d", p, i)
			}
		}
		seen += len(on)
	}
	if seen != len(got.Proc) {
		return fmt.Errorf("BackupsOn covers %d backups, want %d", seen, len(got.Proc))
	}
	return nil
}

// diffPlatform returns a two-class platform of nprocs processors whose
// first lp are low-power (non-reference) cores and the rest high-power.
func diffPlatform(t testing.TB, nprocs, lp int) *power.Platform {
	t.Helper()
	lpm := *power.Default70nm()
	lpm.VddMax = 0.85
	lpm.POn = 0.04
	if err := lpm.Build(); err != nil {
		t.Fatal(err)
	}
	procs := make([]int, nprocs)
	for p := lp; p < nprocs; p++ {
		procs[p] = 1
	}
	pf, err := power.NewPlatform(
		[]power.CoreClass{{Name: "lp", Model: &lpm}, {Name: "hp", Model: power.Default70nm()}},
		procs,
	)
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

// TestPlanBackupsMatchesReference is the planner's differential gate: over
// random taskgen graphs of every family, 2–16 processors, homogeneous and
// two-class platforms (including a single LP core, where the
// primary-HP/backup-LP policy must fall back for the tasks whose primary
// runs on it) and both policies, the bounded binary-search planner must
// reproduce the linear-scan reference bit for bit. One planner is reused
// throughout, so stale scratch would show up as a divergence.
func TestPlanBackupsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	var bp sched.BackupPlanner
	policies := []sched.FaultPolicy{sched.BackupAnywhere, sched.PrimaryHPBackupLP}
	for iter := 0; iter < 160; iter++ {
		size := 2 + rng.Intn(300)
		family := iter % 4
		g, err := taskgen.Member(size, family, rng.Int63())
		if err != nil {
			t.Fatalf("iter %d: taskgen: %v", iter, err)
		}
		nprocs := 2 + rng.Intn(15)
		prio := sched.EDFPriorities(g, 0)
		var pf *power.Platform
		var s *sched.Schedule
		switch iter % 3 {
		case 0:
			s, err = sched.ListScheduleReleases(g, nprocs, prio, nil)
		case 1:
			pf = diffPlatform(t, nprocs, 1+rng.Intn(nprocs-1))
			s, err = sched.ListSchedulePlatform(g, pf, nprocs, prio, nil)
		default:
			pf = diffPlatform(t, nprocs, 1) // the only LP core: fall-back case
			s, err = sched.ListSchedulePlatform(g, pf, nprocs, prio, nil)
		}
		if err != nil {
			t.Fatalf("iter %d: schedule: %v", iter, err)
		}
		for _, policy := range policies {
			if err := planMatchesReference(&bp, s, pf, policy); err != nil {
				t.Fatalf("iter %d (%d tasks, family %d, %d procs, platform %v, %s): %v",
					iter, g.NumTasks(), family, nprocs, pf != nil, policy, err)
			}
		}
	}
}

// FuzzBackupPlanMatchesReference drives the differential gate with fuzzed
// small graphs, processor counts and platform shapes: shape%3 picks a
// homogeneous machine, a two-class platform with lpCores LP cores, or one
// with a single LP core; shape/3 picks the policy.
func FuzzBackupPlanMatchesReference(f *testing.F) {
	f.Add(uint16(5), uint8(0), int64(1), uint8(2), uint8(0), uint8(0))
	f.Add(uint16(40), uint8(1), int64(7), uint8(5), uint8(4), uint8(2))
	f.Add(uint16(24), uint8(2), int64(99), uint8(3), uint8(5), uint8(1))
	f.Add(uint16(60), uint8(3), int64(1234), uint8(8), uint8(1), uint8(6))
	f.Add(uint16(16), uint8(0), int64(-5), uint8(16), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, rawSize uint16, rawFamily uint8, seed int64, rawProcs, shape, lpCores uint8) {
		g, err := taskgen.Member(1+int(rawSize)%80, int(rawFamily)%4, seed)
		if err != nil {
			return // the generator rejects some (size, family) combinations
		}
		nprocs := 2 + int(rawProcs)%15
		prio := sched.EDFPriorities(g, 0)
		policy := sched.BackupAnywhere
		if shape/3%2 == 1 {
			policy = sched.PrimaryHPBackupLP
		}
		var pf *power.Platform
		var s *sched.Schedule
		switch shape % 3 {
		case 0:
			s, err = sched.ListScheduleReleases(g, nprocs, prio, nil)
		case 1:
			pf = diffPlatform(t, nprocs, 1+int(lpCores)%(nprocs-1))
			s, err = sched.ListSchedulePlatform(g, pf, nprocs, prio, nil)
		default:
			pf = diffPlatform(t, nprocs, 1)
			s, err = sched.ListSchedulePlatform(g, pf, nprocs, prio, nil)
		}
		if err != nil {
			t.Fatalf("schedule: %v", err)
		}
		var bp sched.BackupPlanner
		if err := planMatchesReference(&bp, s, pf, policy); err != nil {
			t.Fatal(err)
		}
		// A packed copy of the plan restores it exactly.
		plan, err := bp.Plan(s, pf, policy)
		if err != nil {
			t.Fatal(err)
		}
		var back sched.BackupPlan
		sched.PackPlan(plan).Unpack(&back, g, pf)
		if !reflect.DeepEqual(&back, plan) {
			t.Fatal("unpacked plan differs from the planner's")
		}
	})
}
