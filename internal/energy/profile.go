package energy

import (
	"fmt"
	"slices"

	"lamps/internal/power"
	"lamps/internal/sched"
)

// GapProfile is the idle-interval structure of one schedule, extracted once
// and then shared by every per-level energy evaluation. It buckets the
// schedule by core class — one class on an identical-processor machine —
// and splits each class's idle time into the part that is fixed by the
// schedule (the inner gaps: before the first slot and between consecutive
// slots of each employed processor) and the part parameterised by the
// horizon (the trailing slack of each employed processor from its last
// finish to the deadline). Both parts are kept sorted with exact integer
// prefix sums, so one evaluation at an operating point is two binary
// searches per class over the break-even threshold plus O(1) arithmetic —
// O(log G) per level instead of the O(G) per-gap walk, which turns the +PS
// frequency sweep from O(levels × gaps) into O(gaps·log gaps + levels·log
// gaps).
//
// The accounting is identical to the per-gap walk: a gap of g cycles at
// timeline frequency f lasts t = g/f seconds and sleeps exactly when PS is
// enabled and t exceeds the class's break-even time. Because gap durations
// are integers in cycles, classifying by t is monotone in g, which is what
// makes the threshold binary-searchable; the idle/sleep cycle totals are
// summed in int64 (exact, order-independent) and converted to seconds and
// joules once per class, so the profile path and the linear reference
// walks agree bit-for-bit (see TestGapProfileParity).
//
// A fault-tolerant profile also carries a backup plan's reserved slots:
// they split gaps exactly like task slots, and a reserved processor cannot
// sleep — it must be ready to take over the instant a fault is detected —
// so their cycles are charged as idle time regardless of the PS option. Its
// makespan is the recovery makespan, so the deadline check covers recovery.
//
// The zero value is empty; one of the Reset methods loads a schedule. A
// profile reused across schedules of the same shape performs no
// steady-state allocations. It is immutable between Resets and safe for
// concurrent evaluation.
type GapProfile struct {
	makespan int64
	classes  []classGaps
}

// classGaps is one core class's slice of a gap profile: its busy totals,
// reserved backup cycles, and sorted inner-gap and last-finish arrays with
// exact prefix sums (each class has its own power constants and break-even
// time, so gaps are classified per class).
type classGaps struct {
	busySlot int64 // timeline cycles occupied by task slots on this class
	busyWork int64 // raw work cycles executed by this class (sum of weights)
	reserved int64 // timeline cycles held by backup slots

	inner    []int64 // inner gap lengths in timeline cycles, sorted ascending
	innerSum []int64 // innerSum[i] = sum of inner[:i]; len(inner)+1
	last     []int64 // per-employed-processor last finish, sorted ascending
	lastSum  []int64 // lastSum[i] = sum of last[:i]; len(last)+1
}

// NewGapProfile returns the profile of s. Equivalent to a Reset on a zero
// profile.
func NewGapProfile(s *sched.Schedule) *GapProfile {
	p := new(GapProfile)
	p.Reset(s)
	return p
}

// Reset re-extracts the one-class profile of an identical-processor
// schedule, reusing the profile's buffers. Evaluate it with Evaluate.
func (p *GapProfile) Reset(s *sched.Schedule) { p.reset(s, nil, nil) }

// ResetFT is Reset with plan's backup slots reserved. plan must come from
// the backup planner, which builds the per-processor index the reset
// merges; a missing or stale index panics rather than charge reserved
// slots to the wrong processors.
func (p *GapProfile) ResetFT(s *sched.Schedule, plan *sched.BackupPlan) { p.reset(s, nil, plan) }

// ResetPlatform re-extracts the profile of a platform schedule, bucketed
// by the core class of each processor. Evaluate it with EvaluatePoint.
func (p *GapProfile) ResetPlatform(s *sched.Schedule, pf *power.Platform) { p.reset(s, pf, nil) }

// ResetPlatformFT is ResetPlatform with plan's backup slots reserved, on
// the same terms as ResetFT.
func (p *GapProfile) ResetPlatformFT(s *sched.Schedule, pf *power.Platform, plan *sched.BackupPlan) {
	p.reset(s, pf, plan)
}

// reset walks each employed processor's timeline — its tasks merged with
// plan's backups, both in start order — into its class's gap buckets. A nil
// pf means one class; a nil plan reserves nothing. The cost is O(n) plus
// the gap sorts.
func (p *GapProfile) reset(s *sched.Schedule, pf *power.Platform, plan *sched.BackupPlan) {
	p.makespan = s.Makespan
	if plan != nil && plan.RecoveryMakespan > p.makespan {
		p.makespan = plan.RecoveryMakespan
	}
	nc := 1
	if pf != nil {
		nc = pf.NumClasses()
	}
	if cap(p.classes) < nc {
		p.classes = make([]classGaps, nc)
	}
	p.classes = p.classes[:nc]
	slots := len(s.Proc)
	if plan != nil {
		slots += len(plan.Proc)
	}
	for c := range p.classes {
		cg := &p.classes[c]
		cg.busySlot, cg.busyWork, cg.reserved = 0, 0, 0
		// Room for a gap before every slot, so a cold reset allocates each
		// buffer once instead of growing it.
		cg.inner = slices.Grow(cg.inner[:0], slots)
		cg.last = slices.Grow(cg.last[:0], s.NumProcs)
	}
	seen := 0
	for proc := 0; proc < s.NumProcs; proc++ {
		tasks := s.TasksOn(proc)
		var backs []int32
		if plan != nil {
			backs = backupsOn(plan, proc)
			seen += len(backs)
		}
		if len(tasks) == 0 && len(backs) == 0 {
			continue // unemployed processors are off and contribute nothing
		}
		cg := &p.classes[0]
		if nc > 1 {
			cg = &p.classes[pf.ClassOf(proc)]
		}
		// Merge the two start-ordered lists: each backup follows the tasks
		// starting no later than it.
		var cursor int64
		ti := 0
		for _, b := range backs {
			for ; ti < len(tasks) && s.Start[tasks[ti]] <= plan.Start[b]; ti++ {
				cursor = cg.slot(cursor, s.Start[tasks[ti]], s.Finish[tasks[ti]])
			}
			cursor = cg.reserve(cursor, plan.Start[b], plan.Finish[b])
		}
		for _, v := range tasks[ti:] {
			cursor = cg.slot(cursor, s.Start[v], s.Finish[v])
		}
		cg.last = append(cg.last, cursor)
	}
	if plan != nil && seen != len(plan.Proc) {
		panic("energy: BackupPlan index does not cover the schedule's processors")
	}
	g := s.Graph
	if nc == 1 {
		// The only class is the reference class: every slot lasts exactly its
		// task's weight, so both busy totals are the graph's total work.
		p.classes[0].busySlot = g.TotalWork()
		p.classes[0].busyWork = p.classes[0].busySlot
	} else {
		for v := range s.Proc {
			cg := &p.classes[pf.ClassOf(int(s.Proc[v]))]
			cg.busySlot += s.Finish[v] - s.Start[v]
			cg.busyWork += g.Weight(v)
		}
	}
	for c := range p.classes {
		cg := &p.classes[c]
		slices.Sort(cg.inner)
		slices.Sort(cg.last)
		cg.innerSum = prefixSums(cg.innerSum, cg.inner)
		cg.lastSum = prefixSums(cg.lastSum, cg.last)
	}
}

// slot records the gap before a slot [start, finish) on a timeline whose
// previous slot ended at cursor, and returns the new cursor.
func (cg *classGaps) slot(cursor, start, finish int64) int64 {
	if start > cursor {
		cg.inner = append(cg.inner, start-cursor)
	}
	return finish
}

// reserve is slot for a backup slot, whose cycles are also reserved.
func (cg *classGaps) reserve(cursor, start, finish int64) int64 {
	cg.reserved += finish - start
	return cg.slot(cursor, start, finish)
}

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

// prefixSums writes the prefix sums of src into dst (reused when capacity
// allows): dst[i] = src[0]+…+src[i-1], len(dst) = len(src)+1.
func prefixSums(dst, src []int64) []int64 {
	if cap(dst) < len(src)+1 {
		dst = make([]int64, len(src)+1)
	}
	dst = dst[:len(src)+1]
	dst[0] = 0
	for i, v := range src {
		dst[i+1] = dst[i] + v
	}
	return dst
}

// Evaluate computes the energy of executing a one-class profile (Reset or
// ResetFT) at operating point lvl of model m with the machine available
// until deadlineSec, exactly as the package-level Evaluate does — same
// deadline check, same gap classification, same totals — in O(log G)
// instead of O(G).
func (p *GapProfile) Evaluate(m *power.Model, lvl power.Level, deadlineSec float64, opts Options) (Breakdown, error) {
	return p.evaluate(m, &lvl, nil, nil, deadlineSec, opts)
}

// EvaluatePoint computes the energy of executing a platform profile
// (ResetPlatform or ResetPlatformFT) at operating point pt with the machine
// available until deadlineSec. The timeline runs at pt.TimelineFreq, so
// every slot of c timeline cycles lasts c/TimelineFreq seconds; within its
// slot a task executes its raw work cycles at its class's ladder level and
// the slot remainder (ceil rounding plus any discrete-level headroom) is
// charged as idle time at the class's idle power. Gaps are classified
// against each class's own break-even time.
//
// All cycle totals are exact int64 sums converted to seconds once per
// class, in ascending class order, so the result is bit-identical to the
// independent per-gap walk in internal/verify (verify.Energy).
func (p *GapProfile) EvaluatePoint(pf *power.Platform, pt power.OperatingPoint, deadlineSec float64, opts Options) (Breakdown, error) {
	return p.evaluate(nil, nil, pf, &pt, deadlineSec, opts)
}

// evaluate is the one pricing body behind Evaluate (model m at level lvl,
// pf and pt nil) and EvaluatePoint (platform pf at point pt, m and lvl
// nil). It is a single frame on purpose: the engine calls it from freshly
// started goroutines, whose small initial stacks a deeper call chain would
// have to grow.
func (p *GapProfile) evaluate(m *power.Model, lvl *power.Level, pf *power.Platform, pt *power.OperatingPoint, deadlineSec float64, opts Options) (Breakdown, error) {
	var b Breakdown
	var ft float64 // timeline frequency
	if pt != nil {
		ft = pt.TimelineFreq
	} else {
		ft = lvl.Freq
	}
	makespanSec := float64(p.makespan) / ft
	if makespanSec > deadlineSec*(1+1e-12) {
		var at any
		if pt != nil {
			at = *pt
		} else {
			at = *lvl
		}
		return b, fmt.Errorf("%w: makespan %.6gs > deadline %.6gs at %v", ErrDeadline, makespanSec, deadlineSec, at)
	}
	// The horizon is expressed in timeline cycles, so that gap lengths
	// convert to seconds by dividing by ft.
	horizon := int64(deadlineSec * ft)
	if horizon < p.makespan {
		horizon = p.makespan // guard against float truncation
	}

	for c := range p.classes {
		cg := &p.classes[c]
		if len(cg.last) == 0 {
			continue // class has no employed processor
		}
		if pf != nil {
			m, lvl = pf.ClassModel(c), &pt.Levels[c]
		}

		// Active: the class's raw work at its ladder level.
		activeT := float64(cg.busyWork) / lvl.Freq
		b.ActiveTime += activeT
		b.Active += activeT * m.LevelPower(*lvl)

		// Intra-slot idle: the slot time not covered by execution (ceil
		// rounding of scaled weights plus discrete-level headroom). Zero by
		// construction on the reference class at a ladder-exact point.
		pIdle := m.IdlePower(*lvl)
		if intra := float64(cg.busySlot)/ft - activeT; intra > 0 {
			b.IdleTime += intra
			b.Idle += intra * pIdle
		}

		nEmp := len(cg.last)
		var idleCycles, sleepCycles int64
		shutdowns := 0
		if opts.PS {
			breakeven := m.BreakevenTime(*lvl)
			// Inner gaps are sorted ascending, so "sleeps" is a suffix:
			// binary search the first index whose duration exceeds the
			// break-even time.
			i := firstAbove(cg.inner, func(g int64) bool {
				return float64(g)/ft > breakeven
			})
			idleCycles = cg.innerSum[i]
			sleepCycles = cg.innerSum[len(cg.inner)] - cg.innerSum[i]
			shutdowns = len(cg.inner) - i
			// Trailing slack horizon−last shrinks as last grows, so "sleeps"
			// is a prefix of the sorted last-finish times.
			j := firstAbove(cg.last, func(lf int64) bool {
				return float64(horizon-lf)/ft <= breakeven
			})
			sleepCycles += int64(j)*horizon - cg.lastSum[j]
			idleCycles += int64(nEmp-j)*horizon - (cg.lastSum[nEmp] - cg.lastSum[j])
			shutdowns += j
		} else {
			idleCycles = cg.innerSum[len(cg.inner)] + int64(nEmp)*horizon - cg.lastSum[nEmp]
		}
		// Backup reservations are idle-but-awake in either mode.
		idleCycles += cg.reserved

		idleT := float64(idleCycles) / ft
		b.IdleTime += idleT
		b.Idle += idleT * pIdle
		sleepT := float64(sleepCycles) / ft
		b.SleepTime += sleepT
		b.Sleep += sleepT * m.PSleep
		b.Shutdowns += shutdowns
		b.Overhead += float64(shutdowns) * m.EOverhead
	}
	return b, nil
}

// firstAbove returns the smallest index i in the sorted slice s for which
// pred(s[i]) is true, or len(s) when none is. pred must be monotone
// (false…false true…true along s). A hand-rolled binary search keeps the
// predicate closure on the stack — sort.Search is equivalent but gives the
// escape analyser a harder time.
func firstAbove(s []int64, pred func(int64) bool) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pred(s[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
