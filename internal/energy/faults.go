package energy

import (
	"slices"

	"lamps/internal/power"
	"lamps/internal/sched"
)

// Fault-tolerant gap profiles: the backup slots of a sched.BackupPlan
// occupy the schedule's gaps, so they are neither sleepable nor part of any
// inner gap. ResetFT/ResetPlatformFT build each processor's merged
// primary+backup timeline — backup slots split gaps exactly like task slots
// — and accumulate the reserved cycles separately; Evaluate/EvaluatePoint
// charge them as idle time at the operating point's idle power, in both the
// PS and non-PS modes (a reserved processor must stay awake to take over
// the moment a fault is detected). The profile's makespan is the recovery
// makespan, so the existing deadline check covers recovery feasibility.
//
// Both resets are a pure per-processor merge of two start-ordered lists —
// Schedule.TasksOn and the planner's BackupPlan.BackupsOn — so they cost
// O(n) plus the gap sorts, like the plain Reset. plan must therefore come
// from the planner, which builds that index; backupsOn checks the index
// against the plan's arrays and panics on a missing or stale one rather
// than charge reserved slots to the wrong processors.

// backupsOn returns plan's backups on proc in start order, checking that
// each one is really planned there and that their starts do not decrease.
func backupsOn(plan *sched.BackupPlan, proc int) []int32 {
	backs := plan.BackupsOn(proc)
	for i, v := range backs {
		if int(plan.Proc[v]) != proc || i > 0 && plan.Start[v] < plan.Start[backs[i-1]] {
			panic("energy: BackupPlan index is stale; its Proc or Start arrays were edited after planning")
		}
	}
	return backs
}

// checkBackupCount panics unless the per-processor backup lists walked by a
// reset covered every task of plan, which fails when plan was built for a
// schedule on a different number of processors.
func checkBackupCount(plan *sched.BackupPlan, seen int) {
	if seen != len(plan.Proc) {
		panic("energy: BackupPlan index does not cover the schedule's processors")
	}
}

// ResetFT re-extracts the profile from s with plan's backup slots reserved.
// The profile must be evaluated with Evaluate (homogeneous machine).
func (p *GapProfile) ResetFT(s *sched.Schedule, plan *sched.BackupPlan) {
	p.busyCycles = s.BusyCycles()
	p.makespan = s.Makespan
	if plan.RecoveryMakespan > p.makespan {
		p.makespan = plan.RecoveryMakespan
	}
	p.reserved = 0
	p.inner = p.inner[:0]
	p.last = p.last[:0]
	seen := 0
	for proc := 0; proc < s.NumProcs; proc++ {
		tasks := s.TasksOn(proc)
		backs := backupsOn(plan, proc)
		seen += len(backs)
		if len(tasks) == 0 && len(backs) == 0 {
			continue // truly unemployed processors are off and contribute nothing
		}
		var cursor int64
		ti, bi := 0, 0
		for ti < len(tasks) || bi < len(backs) {
			var start, finish int64
			if bi == len(backs) || (ti < len(tasks) && s.Start[tasks[ti]] <= plan.Start[backs[bi]]) {
				v := tasks[ti]
				start, finish = s.Start[v], s.Finish[v]
				ti++
			} else {
				v := backs[bi]
				start, finish = plan.Start[v], plan.Finish[v]
				p.reserved += finish - start
				bi++
			}
			if start > cursor {
				p.inner = append(p.inner, start-cursor)
			}
			cursor = finish
		}
		p.last = append(p.last, cursor)
	}
	checkBackupCount(plan, seen)
	slices.Sort(p.inner)
	slices.Sort(p.last)
	p.innerSum = prefixSums(p.innerSum, p.inner)
	p.lastSum = prefixSums(p.lastSum, p.last)
}

// ResetPlatformFT is ResetFT for a heterogeneous platform schedule: the
// merged timelines are bucketed by core class, busy totals count primary
// slots only, and each class accumulates its own reserved cycles. The
// profile must be evaluated with EvaluatePoint.
func (p *GapProfile) ResetPlatformFT(s *sched.Schedule, pf *power.Platform, plan *sched.BackupPlan) {
	p.makespan = s.Makespan
	if plan.RecoveryMakespan > p.makespan {
		p.makespan = plan.RecoveryMakespan
	}
	nc := pf.NumClasses()
	if cap(p.classes) < nc {
		p.classes = make([]classGaps, nc)
	}
	p.classes = p.classes[:nc]
	for c := range p.classes {
		cg := &p.classes[c]
		cg.busySlot, cg.busyWork, cg.reserved = 0, 0, 0
		cg.inner = cg.inner[:0]
		cg.last = cg.last[:0]
	}
	g := s.Graph
	seen := 0
	for proc := 0; proc < s.NumProcs; proc++ {
		tasks := s.TasksOn(proc)
		backs := backupsOn(plan, proc)
		seen += len(backs)
		if len(tasks) == 0 && len(backs) == 0 {
			continue
		}
		cg := &p.classes[pf.ClassOf(proc)]
		var cursor int64
		ti, bi := 0, 0
		for ti < len(tasks) || bi < len(backs) {
			var start, finish int64
			if bi == len(backs) || (ti < len(tasks) && s.Start[tasks[ti]] <= plan.Start[backs[bi]]) {
				v := tasks[ti]
				start, finish = s.Start[v], s.Finish[v]
				cg.busySlot += finish - start
				cg.busyWork += g.Weight(int(v))
				ti++
			} else {
				v := backs[bi]
				start, finish = plan.Start[v], plan.Finish[v]
				cg.reserved += finish - start
				bi++
			}
			if start > cursor {
				cg.inner = append(cg.inner, start-cursor)
			}
			cursor = finish
		}
		cg.last = append(cg.last, cursor)
	}
	checkBackupCount(plan, seen)
	for c := range p.classes {
		cg := &p.classes[c]
		slices.Sort(cg.inner)
		slices.Sort(cg.last)
		cg.innerSum = prefixSums(cg.innerSum, cg.inner)
		cg.lastSum = prefixSums(cg.lastSum, cg.last)
	}
}
