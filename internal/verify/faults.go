package verify

import (
	"fmt"
	"sort"

	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/power"
	"lamps/internal/sched"
)

// Check names for the fault-tolerance invariants.
const (
	// CheckBackup covers the static backup plan: every task has a backup on
	// another processor, slots start after the primary and after every
	// predecessor's backup, nothing overlaps, and the recorded recovery
	// makespan is exact.
	CheckBackup = "backup"
	// CheckRecovery covers one concrete fault pattern: the re-derived
	// recovery execution is legal and meets its deadline.
	CheckRecovery = "recovery"
)

// FaultPlanOptions parameterises FaultPlan.
type FaultPlanOptions struct {
	// Platform, when non-nil, supplies per-class slot scaling (a backup on
	// processor p lasts ScaledWeight(class(p), weight) timeline cycles) and
	// the reference class for the policy check. Nil means identical
	// processors.
	Platform *power.Platform
	// Policy, when sched.PrimaryHPBackupLP on a heterogeneous platform,
	// additionally requires each backup to avoid the reference class
	// whenever a non-reference processor other than the primary's exists.
	Policy sched.FaultPolicy
	// DeadlineCycles, when positive, is the latest admissible recovery
	// finish in timeline cycles.
	DeadlineCycles int64
}

// FaultPlan checks a backup plan against its schedule from first
// principles, sharing no code with sched.PlanBackups: placement ranges and
// durations per task, the two start lower bounds that make time-triggered
// recovery correct for any fault set (a backup starts no earlier than its
// primary's finish — the detection point — and no earlier than every
// predecessor's backup finish), global slot exclusivity over the merged
// primary+backup timeline of every processor, the placement policy, and
// the recorded recovery makespan.
func FaultPlan(g *dag.Graph, s *sched.Schedule, plan *sched.BackupPlan, opt FaultPlanOptions) error {
	if g == nil || s == nil || plan == nil {
		return &Violation{Check: CheckShape, Detail: "nil graph, schedule or backup plan"}
	}
	n := g.NumTasks()
	if len(plan.Proc) != n || len(plan.Start) != n || len(plan.Finish) != n {
		return violationf(CheckShape, g, s, nil,
			"backup arrays have lengths %d/%d/%d for %d tasks",
			len(plan.Proc), len(plan.Start), len(plan.Finish), n)
	}
	if s.NumProcs < 2 {
		return violationf(CheckBackup, g, s, nil,
			"backups need a second processor, schedule has %d", s.NumProcs)
	}

	pf := opt.Platform
	ref := -1
	if pf != nil {
		ref = pf.RefClass()
	}
	restricted := opt.Policy == sched.PrimaryHPBackupLP && pf != nil && !pf.IsHomogeneous()

	var maxFinish int64
	for v := 0; v < n; v++ {
		bp := int(plan.Proc[v])
		if bp < 0 || bp >= s.NumProcs {
			return violationf(CheckBackup, g, s, []int32{int32(v)},
				"task %d backup on processor %d of %d", v, bp, s.NumProcs)
		}
		if int32(bp) == s.Proc[v] {
			return violationf(CheckBackup, g, s, []int32{int32(v)},
				"task %d backup shares its primary's processor %d", v, bp)
		}
		w := g.Weight(v)
		if pf != nil {
			w = pf.ScaledWeight(pf.ClassOf(bp), w)
		}
		if d := plan.Finish[v] - plan.Start[v]; d != w {
			return violationf(CheckBackup, g, s, []int32{int32(v)},
				"task %d backup lasts %d cycles, expected %d", v, d, w)
		}
		if plan.Start[v] < s.Finish[v] {
			return violationf(CheckBackup, g, s, []int32{int32(v)},
				"task %d backup starts at %d before the fault is detectable at %d",
				v, plan.Start[v], s.Finish[v])
		}
		for _, u := range g.Preds(v) {
			if plan.Start[v] < plan.Finish[u] {
				return violationf(CheckBackup, g, s, []int32{u, int32(v)},
					"task %d backup starts at %d before predecessor %d's backup finishes at %d",
					v, plan.Start[v], u, plan.Finish[u])
			}
		}
		if restricted {
			// The policy's fallback: when every non-reference processor is
			// the primary's own, any other processor is admissible.
			hasLP := false
			for p := 0; p < s.NumProcs; p++ {
				if int32(p) != s.Proc[v] && pf.ClassOf(p) != ref {
					hasLP = true
					break
				}
			}
			if hasLP && pf.ClassOf(bp) == ref {
				return violationf(CheckBackup, g, s, []int32{int32(v)},
					"task %d backup on reference-class processor %d despite policy %q", v, bp, opt.Policy)
			}
		}
		if plan.Finish[v] > maxFinish {
			maxFinish = plan.Finish[v]
		}
	}
	if plan.RecoveryMakespan != maxFinish {
		return violationf(CheckBackup, g, s, nil,
			"recorded recovery makespan %d, latest backup finish %d", plan.RecoveryMakespan, maxFinish)
	}

	// Exclusivity over the merged timeline: every primary slot and every
	// backup slot, bucketed per processor from the raw arrays and sorted.
	type slot struct {
		start, finish int64
		task          int32
	}
	byProc := make([][]slot, s.NumProcs)
	for v := 0; v < n; v++ {
		byProc[s.Proc[v]] = append(byProc[s.Proc[v]], slot{s.Start[v], s.Finish[v], int32(v)})
		byProc[plan.Proc[v]] = append(byProc[plan.Proc[v]], slot{plan.Start[v], plan.Finish[v], int32(v)})
	}
	for p, slots := range byProc {
		sort.Slice(slots, func(i, j int) bool {
			if slots[i].start != slots[j].start {
				return slots[i].start < slots[j].start
			}
			return slots[i].task < slots[j].task
		})
		for i := 1; i < len(slots); i++ {
			if slots[i].start < slots[i-1].finish {
				return violationf(CheckBackup, g, s, []int32{slots[i-1].task, slots[i].task},
					"slots of tasks %d and %d overlap on processor %d (backups included)",
					slots[i-1].task, slots[i].task, p)
			}
		}
	}

	if opt.DeadlineCycles > 0 && plan.RecoveryMakespan > opt.DeadlineCycles {
		return violationf(CheckDeadline, g, s, nil,
			"recovery makespan %d exceeds deadline %d cycles", plan.RecoveryMakespan, opt.DeadlineCycles)
	}
	return nil
}

// RecoverySchedule re-derives, from first principles, the effective
// execution of one concrete fault pattern — which primary executions are
// invalid (the faulty tasks plus every task whose primary slot began before
// an invalid predecessor's backup delivered its input), which backups run,
// and when everything effectively completes — and checks that the executed
// slots are mutually exclusive, every executed slot has its inputs by its
// start, and the effective makespan fits deadlineCycles (when positive) and
// never exceeds the plan's recorded recovery makespan. It returns the
// effective makespan in timeline cycles. It shares no code with
// sim.ReplayFaults; the campaign requires the two to agree exactly.
func RecoverySchedule(g *dag.Graph, s *sched.Schedule, plan *sched.BackupPlan, faults []int, deadlineCycles int64) (int64, error) {
	if g == nil || s == nil || plan == nil {
		return 0, &Violation{Check: CheckShape, Detail: "nil graph, schedule or backup plan"}
	}
	n := g.NumTasks()
	if len(plan.Proc) != n || len(plan.Start) != n || len(plan.Finish) != n {
		return 0, violationf(CheckShape, g, s, nil,
			"backup arrays have lengths %d/%d/%d for %d tasks",
			len(plan.Proc), len(plan.Start), len(plan.Finish), n)
	}
	faulty := make([]bool, n)
	for _, v := range faults {
		if v < 0 || v >= n {
			return 0, violationf(CheckRecovery, g, s, nil, "fault index %d out of range [0,%d)", v, n)
		}
		faulty[v] = true
	}

	// Settle validity in ascending primary-finish order (topological for
	// positive weights).
	order := make([]int32, n)
	for v := range order {
		order[v] = int32(v)
	}
	sort.Slice(order, func(i, j int) bool {
		vi, vj := order[i], order[j]
		if s.Finish[vi] != s.Finish[vj] {
			return s.Finish[vi] < s.Finish[vj]
		}
		return vi < vj
	})
	invalid := make([]bool, n)
	eff := make([]int64, n)
	var makespan int64
	for _, v := range order {
		bad := faulty[v]
		for _, u := range g.Preds(int(v)) {
			if invalid[u] && plan.Finish[u] > s.Start[v] {
				bad = true
				break
			}
		}
		invalid[v] = bad
		if bad {
			// The backup must have its inputs — every predecessor's valid
			// output — by its start.
			for _, u := range g.Preds(int(v)) {
				if eff[u] > plan.Start[v] {
					return 0, violationf(CheckRecovery, g, s, []int32{u, v},
						"task %d's backup starts at %d before predecessor %d's valid output at %d",
						v, plan.Start[v], u, eff[u])
				}
			}
			eff[v] = plan.Finish[v]
		} else {
			eff[v] = s.Finish[v]
		}
		if eff[v] > makespan {
			makespan = eff[v]
		}
	}

	// Exclusivity of the executed slots: every primary occupies its slot
	// (a faulty primary still runs until detection), plus the backups of
	// the invalid tasks.
	type slot struct {
		start, finish int64
		task          int32
	}
	byProc := make([][]slot, s.NumProcs)
	for v := 0; v < n; v++ {
		byProc[s.Proc[v]] = append(byProc[s.Proc[v]], slot{s.Start[v], s.Finish[v], int32(v)})
		if invalid[v] {
			byProc[plan.Proc[v]] = append(byProc[plan.Proc[v]], slot{plan.Start[v], plan.Finish[v], int32(v)})
		}
	}
	for p, slots := range byProc {
		sort.Slice(slots, func(i, j int) bool {
			if slots[i].start != slots[j].start {
				return slots[i].start < slots[j].start
			}
			return slots[i].task < slots[j].task
		})
		for i := 1; i < len(slots); i++ {
			if slots[i].start < slots[i-1].finish {
				return 0, violationf(CheckRecovery, g, s, []int32{slots[i-1].task, slots[i].task},
					"executed slots of tasks %d and %d overlap on processor %d",
					slots[i-1].task, slots[i].task, p)
			}
		}
	}

	if makespan > plan.RecoveryMakespan {
		return 0, violationf(CheckRecovery, g, s, nil,
			"effective makespan %d exceeds the plan's recovery makespan %d", makespan, plan.RecoveryMakespan)
	}
	if deadlineCycles > 0 && makespan > deadlineCycles {
		return 0, violationf(CheckDeadline, g, s, nil,
			"recovery makespan %d exceeds deadline %d cycles for fault pattern %v", makespan, deadlineCycles, faults)
	}
	return makespan, nil
}

// clonePlan copies the mutable arrays of a backup plan for mutation. The
// copy is built field by field, so it carries no planner index
// (BackupPlan.BackupsOn) that the mutation would leave stale.
func clonePlan(pl *sched.BackupPlan) *sched.BackupPlan {
	return &sched.BackupPlan{
		Proc:             append([]int32(nil), pl.Proc...),
		Start:            append([]int64(nil), pl.Start...),
		Finish:           append([]int64(nil), pl.Finish...),
		RecoveryMakespan: pl.RecoveryMakespan,
		Policy:           pl.Policy,
	}
}

// SelfTestFaults extends the mutation self-test to the fault-tolerance
// checkers: known corruptions — a backup moved onto its primary's
// processor, a backup overlapping a primary slot, a missing backup, a
// backup that starts before its fault is detectable or before a
// predecessor's backup, a recovery makespan the deadline cannot cover, and
// off-by-one recovery-makespan and reserved-energy accounting — injected
// into copies of a pristine (schedule, plan, breakdown) triple on platform
// pf at operating point pt, every applicable one of which FaultPlan or
// EnergyMatches must reject.
//
// The pristine inputs are verified first; an error there means the inputs
// were not a valid baseline and no mutation results are returned.
func SelfTestFaults(g *dag.Graph, s *sched.Schedule, pf *power.Platform, plan *sched.BackupPlan, pt power.OperatingPoint, deadlineSec float64, opts energy.Options) ([]SelfTestResult, error) {
	planOpt := FaultPlanOptions{Platform: pf, Policy: plan.Policy}
	if err := FaultPlan(g, s, plan, planOpt); err != nil {
		return nil, fmt.Errorf("verify: fault self-test baseline plan invalid: %w", err)
	}
	base, err := Energy(s, pf, plan, pt, deadlineSec, opts)
	if err != nil {
		return nil, fmt.Errorf("verify: fault self-test baseline energy invalid: %w", err)
	}

	return runMutations([]mutation{
		{"backup-on-primary-proc", func() (bool, error) {
			c := clonePlan(plan)
			c.Proc[0] = s.Proc[0]
			return false, FaultPlan(g, s, c, planOpt)
		}},
		{"backup-overlaps-primary", func() (bool, error) {
			// Slide some task's backup onto a primary slot of its backup
			// processor, keeping the duration.
			for v := range plan.Proc {
				for u := range s.Proc {
					if s.Proc[u] != plan.Proc[v] {
						continue
					}
					c := clonePlan(plan)
					d := plan.Finish[v] - plan.Start[v]
					c.Start[v] = s.Start[u]
					c.Finish[v] = c.Start[v] + d
					return false, FaultPlan(g, s, c, planOpt)
				}
			}
			return true, nil
		}},
		{"missing-backup", func() (bool, error) {
			c := clonePlan(plan)
			c.Proc = c.Proc[:len(c.Proc)-1]
			return false, FaultPlan(g, s, c, planOpt)
		}},
		{"backup-before-primary-finish", func() (bool, error) {
			c := clonePlan(plan)
			d := plan.Finish[0] - plan.Start[0]
			c.Start[0] = s.Finish[0] - 1
			c.Finish[0] = c.Start[0] + d
			return false, FaultPlan(g, s, c, planOpt)
		}},
		{"backup-before-pred-backup", func() (bool, error) {
			for u := 0; u < g.NumTasks(); u++ {
				for _, v := range g.Succs(u) {
					c := clonePlan(plan)
					d := plan.Finish[v] - plan.Start[v]
					c.Start[v] = plan.Finish[u] - 1
					c.Finish[v] = c.Start[v] + d
					return false, FaultPlan(g, s, c, planOpt)
				}
			}
			return true, nil // no edges: the constraint is vacuous
		}},
		{"recovery-misses-deadline", func() (bool, error) {
			opt := planOpt
			opt.DeadlineCycles = plan.RecoveryMakespan - 1
			return false, FaultPlan(g, s, plan, opt)
		}},
		{"recovery-makespan-off-by-one", func() (bool, error) {
			c := clonePlan(plan)
			c.RecoveryMakespan++
			return false, FaultPlan(g, s, c, planOpt)
		}},
		{"reserved-energy-off-by-one", func() (bool, error) {
			// One phantom reserved cycle.
			return false, EnergyMatches(s, pf, plan, pt, deadlineSec, opts, phantomIdleCycle(base, pf, pt))
		}},
	}), nil
}
