package sched

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"lamps/internal/power"
)

// Fault-tolerant scheduling: every task of a primary schedule gets one
// statically planned backup slot on a *different* processor, placed on the
// schedule's existing slack. Execution is time-triggered: primaries always
// run at their static times; a fault in task v (or a missing input, because
// a predecessor's valid output only became available from its backup) is
// detected when v's primary slot ends, and v's statically reserved backup
// slot re-executes it. Because every backup starts no earlier than the
// backup finish of every predecessor, a backup's inputs are always
// available by its start, so ANY set of faulty tasks — one transient fault
// per task — is recovered without re-planning. The recovery makespan is the
// latest backup finish: the deadline guarantee for up to K faults follows
// from RecoveryMakespan fitting the deadline, independent of which tasks
// actually fault.

// FaultPolicy selects where backup slots may be placed.
type FaultPolicy string

const (
	// BackupAnywhere places each backup on whichever processor (other than
	// the primary's) finishes it earliest.
	BackupAnywhere FaultPolicy = "backup-anywhere"
	// PrimaryHPBackupLP confines backups to processors outside the
	// platform's reference (fastest, HP) class whenever such a processor
	// other than the primary's exists — the FEST/EnSuRe-style split that
	// keeps recovery reservations on the low-power cores. On a homogeneous
	// machine every processor is reference-class, so the policy degrades to
	// BackupAnywhere.
	PrimaryHPBackupLP FaultPolicy = "primary-hp-backup-lp"
)

// ErrBackupInfeasible is returned when no legal backup placement exists —
// fault tolerance needs at least two processors.
var ErrBackupInfeasible = errors.New("sched: backup placement needs at least two processors")

// BackupPlan is the statically reserved recovery layer of one schedule: one
// backup slot per task, indexed like the schedule's own arrays. All times
// are in the schedule's timeline cycles.
type BackupPlan struct {
	Proc   []int32 // task -> backup processor (never the primary's)
	Start  []int64 // task -> backup start [cycles]
	Finish []int64 // task -> backup finish [cycles]

	// RecoveryMakespan is the latest backup finish — the schedule length
	// when recovery is exercised, and the quantity the deadline must cover
	// for the fault-tolerance guarantee to hold. It is never smaller than
	// the primary makespan.
	RecoveryMakespan int64

	// Policy records the placement policy the plan was built under.
	Policy FaultPolicy

	// byProc lists the tasks grouped by backup processor, each group in
	// backup start order; processor p's group is
	// byProc[byProcOff[p]:byProcOff[p+1]]. The planner fills it from its
	// per-processor timelines, so consumers that walk each processor's
	// backups in time order (the fault-tolerant gap profile) need no sort.
	byProc    []int32
	byProcOff []int32
}

// BackupsOn returns the tasks whose backup slot is on processor p, in
// backup start order — the backup counterpart of Schedule.TasksOn. The
// index is built by the planner and describes the plan as planned. It
// panics on a plan assembled field by field, which has no index; a plan
// whose Proc or Start arrays were edited after planning keeps a stale one,
// which callers detect by checking each returned task against Proc and
// Start.
func (pl *BackupPlan) BackupsOn(p int) []int32 {
	if len(pl.byProcOff) == 0 {
		panic("sched: BackupPlan has no planner index; BackupsOn needs a plan built by PlanBackups")
	}
	return pl.byProc[pl.byProcOff[p]:pl.byProcOff[p+1]]
}

// ReservedCycles returns the total timeline cycles held by backup slots.
func (pl *BackupPlan) ReservedCycles() int64 {
	var sum int64
	for v := range pl.Start {
		sum += pl.Finish[v] - pl.Start[v]
	}
	return sum
}

// EmployedWith returns the number of processors that run at least one
// primary task or hold at least one backup slot under s — the processor
// count that must stay powered in the fault-tolerant configuration.
func (pl *BackupPlan) EmployedWith(s *Schedule) int {
	n := 0
	for p := 0; p < s.NumProcs; p++ {
		if len(s.TasksOn(p)) > 0 {
			n++
			continue
		}
		for v := range pl.Proc {
			if int(pl.Proc[v]) == p {
				n++
				break
			}
		}
	}
	return n
}

// backupIv is one reserved interval on a processor's merged timeline: a
// primary slot (task < 0) or the backup slot of task.
type backupIv struct {
	start, finish int64
	task          int32
}

// BackupPlanner carries the scratch of PlanBackups so repeated planning
// (the engine evaluates many candidate processor counts per request)
// reuses its buffers. The zero value is ready to use; a planner is not
// safe for concurrent use.
type BackupPlanner struct {
	ivs [][]backupIv // per-processor reserved intervals, sorted by start
}

// PlanBackups plans one backup slot per task of s under policy. A nil or
// one-class platform means identical processors (durations equal task
// weights); with more classes, a backup on processor p takes
// ScaledWeight(ClassOf(p), w) timeline cycles. The plan is deterministic:
// tasks are processed in (primary finish, task index) order and each
// backup goes to the eligible processor with the earliest finish, ties
// broken by processor index.
func PlanBackups(s *Schedule, pf *power.Platform, policy FaultPolicy) (*BackupPlan, error) {
	var bp BackupPlanner
	return bp.Plan(s, pf, policy)
}

// Plan is PlanBackups on reusable scratch. It walks the tasks in
// s.FinishOrder(), so s must come from a scheduling kernel, CloneCompact or
// ReadJSON; a Schedule assembled field by field has no finish order and is
// rejected with an error. Each fit binary-searches to the
// first reserved interval ending after the task's lower bound instead of
// rescanning the timeline from its start, and stops as soon as it cannot
// beat the best processor found so far. Those two cuts bound the scanning,
// not the worst case: the scan past the search point is limited only by
// the incumbent, and inserting the chosen slot still shifts the tail of
// its processor's interval slice.
func (bp *BackupPlanner) Plan(s *Schedule, pf *power.Platform, policy FaultPolicy) (*BackupPlan, error) {
	switch policy {
	case "", BackupAnywhere, PrimaryHPBackupLP:
	default:
		return nil, fmt.Errorf("sched: unknown fault policy %q", policy)
	}
	if policy == "" {
		policy = BackupAnywhere
	}
	if pf != nil && pf.NumClasses() == 1 {
		// Identical processors: every slot is its task's weight and no
		// class is restricted, so the plan is the nil-platform plan.
		pf = nil
	}
	np := s.NumProcs
	if np < 2 {
		return nil, fmt.Errorf("%w: schedule uses %d", ErrBackupInfeasible, np)
	}
	g := s.Graph
	n := g.NumTasks()
	// (Finish, index) order is topological: weights are positive, so a
	// successor always finishes strictly after every predecessor.
	order := s.FinishOrder()
	if len(order) != n {
		return nil, fmt.Errorf("sched: schedule has a finish order of %d tasks, want %d; "+
			"plan a schedule built by a scheduling kernel, CloneCompact or ReadJSON", len(order), n)
	}

	bp.ivs = grow(bp.ivs, np)
	for p := range np {
		ivs := bp.ivs[p][:0]
		// Primary slots seed each processor's reserved timeline; TasksOn is
		// already in start order.
		for _, v := range s.TasksOn(p) {
			ivs = append(ivs, backupIv{s.Start[v], s.Finish[v], -1})
		}
		bp.ivs[p] = ivs
	}

	// The primary-HP/backup-LP policy restricts the candidate set to
	// non-reference-class processors when one other than the primary's
	// exists; otherwise (homogeneous machine, or the only LP core runs the
	// primary) it falls back to any other processor. Counting the
	// non-reference processors once decides that per task in O(1).
	ref, nonRef := -1, 0
	if pf != nil {
		ref = pf.RefClass()
		for p := range np {
			if pf.ClassOf(p) != ref {
				nonRef++
			}
		}
	}
	hpLP := policy == PrimaryHPBackupLP && pf != nil

	plan := newBackupPlan(n, np)
	plan.Policy = policy
	for _, v := range order {
		// The backup can start only after the fault is detectable (the
		// primary slot's end) and after every predecessor's backup output is
		// available — the invariant that makes recovery valid for any fault
		// set.
		lb := s.Finish[v]
		for _, u := range g.Preds(int(v)) {
			if plan.Finish[u] > lb {
				lb = plan.Finish[u]
			}
		}
		w := g.Weight(int(v))
		prim := int(s.Proc[v])
		restrict := false
		if pf != nil {
			others := nonRef
			if pf.ClassOf(prim) != ref {
				others--
			}
			restrict = hpLP && others > 0
		}

		// bestFinish doubles as the fit bound: a processor is taken only on
		// a strictly earlier finish, which keeps the lowest-index tie-break.
		bestProc, bestStart, bestFinish, bestAt := -1, int64(0), int64(math.MaxInt64), 0
		for p := range np {
			if p == prim {
				continue
			}
			dur := w
			if pf != nil {
				c := pf.ClassOf(p)
				if restrict && c == ref {
					continue
				}
				dur = pf.ScaledWeight(c, w)
			}
			if lb+dur >= bestFinish {
				continue
			}
			if start, at, ok := earliestFit(bp.ivs[p], lb, dur, bestFinish); ok {
				bestProc, bestStart, bestFinish, bestAt = p, start, start+dur, at
			}
		}
		if bestProc < 0 {
			return nil, fmt.Errorf("%w: no processor other than %d eligible for task %d",
				ErrBackupInfeasible, prim, v)
		}
		plan.Proc[v] = int32(bestProc)
		plan.Start[v] = bestStart
		plan.Finish[v] = bestFinish
		bp.ivs[bestProc] = slices.Insert(bp.ivs[bestProc], bestAt, backupIv{bestStart, bestFinish, v})
		if bestFinish > plan.RecoveryMakespan {
			plan.RecoveryMakespan = bestFinish
		}
	}

	k := int32(0)
	for p := range np {
		plan.byProcOff[p] = k
		for _, iv := range bp.ivs[p] {
			if iv.task >= 0 {
				plan.byProc[k] = iv.task
				k++
			}
		}
	}
	plan.byProcOff[np] = k
	return plan, nil
}

// newBackupPlan allocates a plan of n tasks on np processors with one
// array per element type, so the plan's arrays and its per-processor index
// are detached into the caller's result together: three allocations.
func newBackupPlan(n, np int) *BackupPlan {
	ints := make([]int32, 2*n+np+1)
	times := make([]int64, 2*n)
	return &BackupPlan{
		Proc:      ints[:n:n],
		Start:     times[:n:n],
		Finish:    times[n:],
		byProc:    ints[n : 2*n : 2*n],
		byProcOff: ints[2*n:],
	}
}

// earliestFit returns the earliest start >= lb at which a slot of dur
// cycles fits between the sorted, non-overlapping reserved intervals, and
// the index at which the slot's interval keeps ivs in start order. ok is
// false when the slot cannot finish before bound; the search then stops
// early.
//
// Because intervals never overlap, their finishes are sorted too, and an
// interval that ends at or before lb can neither block the slot nor move
// the cursor: the scan starts at the first interval ending after lb.
func earliestFit(ivs []backupIv, lb, dur, bound int64) (start int64, at int, ok bool) {
	lo, hi := 0, len(ivs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ivs[mid].finish > lb {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	cursor := lb
	for at = lo; at < len(ivs); at++ {
		iv := ivs[at]
		if iv.start >= cursor+dur {
			break // the slot fits entirely before this interval
		}
		if iv.finish > cursor {
			cursor = iv.finish
			if cursor+dur >= bound {
				return 0, 0, false
			}
		}
	}
	return cursor, at, cursor+dur < bound
}
