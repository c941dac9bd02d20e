// Package verify is an independent, first-principles checker for the
// schedules and energy figures the rest of the system produces. It is
// deliberately naive: every invariant is re-derived directly from the
// definitions in de Langen & Juurlink — precedence from the task graph's
// edges, exclusivity from a per-processor sort of the raw Proc/Start/Finish
// arrays, energy from a linear walk over every gap — and none of it shares
// code with the optimised kernels in internal/sched and internal/energy
// (no Schedule.Validate, no Schedule.Gaps, no GapProfile). If a kernel
// optimisation and this package agree, the agreement is evidence; if they
// disagree, one of them is wrong and the Violation says where.
//
// There is one energy oracle, as there is one pricing rule in the paper:
// Energy walks a schedule on a power.Platform — a homogeneous machine is
// the one-class platform — with an optional backup plan whose reserved
// slots are priced as idle. SelfTest and SelfTestFaults corrupt known-good
// inputs on any platform and require the checkers to reject every
// corruption.
//
// The package is imported by internal/core (Config.SelfCheck) and must
// therefore not import it; cross-heuristic invariants are expressed over
// the neutral Outcome type instead of core.Result.
package verify

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"lamps/internal/dag"
	"lamps/internal/power"
	"lamps/internal/sched"
)

// ErrViolation is the sentinel matched by errors.Is for every violation
// this package reports, whatever the check that raised it.
var ErrViolation = errors.New("verify: violation")

// Check names identify the invariant class a Violation belongs to.
const (
	CheckShape      = "shape"          // slice lengths, processor count, nil inputs
	CheckPlacement  = "placement"      // processor range, negative start, duration != weight
	CheckPrecedence = "precedence"     // an edge's successor starts before its predecessor finishes
	CheckOverlap    = "overlap"        // two tasks share a processor at the same time
	CheckDispatch   = "dispatch-order" // per-processor task lists disagree with Proc/Start/Finish
	CheckRelease    = "release"        // a task starts before its release time
	CheckMakespan   = "makespan"       // recorded makespan != max finish time
	CheckDeadline   = "deadline"       // makespan exceeds the deadline
	CheckEnergy     = "energy"         // recomputed Breakdown differs from the reported one
	CheckResult     = "result"         // a cross-heuristic invariant is broken
)

// Violation describes one broken invariant, with enough context to
// reproduce it: the check class, what exactly disagreed, and a compact dump
// of the problem and the offending placements. It matches ErrViolation
// under errors.Is.
type Violation struct {
	Check  string // one of the Check* constants
	Detail string // what disagreed, with the numbers
	Repro  string // minimal repro dump: problem summary + offending placements
}

func (v *Violation) Error() string {
	if v.Repro == "" {
		return fmt.Sprintf("verify: %s: %s", v.Check, v.Detail)
	}
	return fmt.Sprintf("verify: %s: %s\n%s", v.Check, v.Detail, v.Repro)
}

// Is makes every Violation match the package sentinel.
func (v *Violation) Is(target error) bool { return target == ErrViolation }

// violationf builds a Violation with a repro dump covering the given tasks.
func violationf(check string, g *dag.Graph, s *sched.Schedule, tasks []int32, format string, args ...any) *Violation {
	return &Violation{
		Check:  check,
		Detail: fmt.Sprintf(format, args...),
		Repro:  dump(g, s, tasks),
	}
}

// dump renders the minimal repro: one line for the problem, one for the
// schedule, and one per offending task (capped — a violation needs at most
// a handful of placements to be reproduced).
func dump(g *dag.Graph, s *sched.Schedule, tasks []int32) string {
	var b strings.Builder
	if g != nil {
		fmt.Fprintf(&b, "  graph %q: %d tasks, %d edges, work=%d, cpl=%d\n",
			g.Name(), g.NumTasks(), g.NumEdges(), g.TotalWork(), g.CriticalPathLength())
	}
	if s != nil {
		fmt.Fprintf(&b, "  schedule: %d procs, makespan=%d cycles\n", s.NumProcs, s.Makespan)
	}
	const maxTasks = 8
	for i, v := range tasks {
		if i == maxTasks {
			fmt.Fprintf(&b, "  ... %d more tasks\n", len(tasks)-maxTasks)
			break
		}
		if s == nil || int(v) >= len(s.Proc) || int(v) >= len(s.Start) || int(v) >= len(s.Finish) {
			fmt.Fprintf(&b, "  task %d: <no placement>\n", v)
			continue
		}
		w := int64(-1)
		if g != nil && int(v) < g.NumTasks() {
			w = g.Weight(int(v))
		}
		fmt.Fprintf(&b, "  task %d: proc %d, [%d,%d) cycles, weight %d\n",
			v, s.Proc[v], s.Start[v], s.Finish[v], w)
	}
	return strings.TrimRight(b.String(), "\n")
}

// ScheduleOptions extends Schedule with the optional constraints a plain
// task graph does not carry.
type ScheduleOptions struct {
	// Release, when non-nil, gives per-task release times in cycles; no task
	// may start earlier. Must have one entry per task.
	Release []int64
	// DeadlineCycles, when positive, is the latest admissible finish time of
	// the whole schedule, in cycles at the schedule's frequency.
	DeadlineCycles int64

	// expectDur, when non-nil, overrides the expected duration of task v on
	// its assigned processor (the raw weight by default); ok is false when
	// that duration does not fit in int64. The platform checks use it for
	// class-scaled slot lengths; it is unexported because callers outside
	// the package go through PlatformScheduleWithin.
	expectDur func(v, proc int) (d int64, ok bool)
}

// Schedule checks s against g from first principles: placements, durations,
// precedence, per-processor exclusivity, dispatch-list consistency and the
// recorded makespan. It returns nil or the first *Violation found.
func Schedule(g *dag.Graph, s *sched.Schedule) error {
	return ScheduleWithin(g, s, ScheduleOptions{})
}

// ScheduleWithin is Schedule plus release-time and deadline checks.
//
// Every invariant is re-derived from the raw Proc/Start/Finish arrays and
// the graph's edges; the schedule's own per-processor lists are only read
// to be cross-checked, never trusted.
func ScheduleWithin(g *dag.Graph, s *sched.Schedule, opt ScheduleOptions) error {
	if g == nil || s == nil {
		return &Violation{Check: CheckShape, Detail: "nil graph or schedule"}
	}
	n := g.NumTasks()
	if len(s.Proc) != n || len(s.Start) != n || len(s.Finish) != n {
		return violationf(CheckShape, g, s, nil,
			"placement arrays have lengths %d/%d/%d for %d tasks",
			len(s.Proc), len(s.Start), len(s.Finish), n)
	}
	if s.NumProcs < 1 {
		return violationf(CheckShape, g, s, nil, "NumProcs = %d", s.NumProcs)
	}
	if opt.Release != nil && len(opt.Release) != n {
		return violationf(CheckShape, g, s, nil,
			"release slice has %d entries for %d tasks", len(opt.Release), n)
	}

	// Per-task placement: processor range, non-negative start, duration
	// exactly the task's weight, release respected.
	for v := 0; v < n; v++ {
		if p := int(s.Proc[v]); p < 0 || p >= s.NumProcs {
			return violationf(CheckPlacement, g, s, []int32{int32(v)},
				"task %d on processor %d of %d", v, p, s.NumProcs)
		}
		if s.Start[v] < 0 {
			return violationf(CheckPlacement, g, s, []int32{int32(v)},
				"task %d starts at %d", v, s.Start[v])
		}
		if s.Finish[v] <= s.Start[v] {
			return violationf(CheckPlacement, g, s, []int32{int32(v)},
				"task %d occupies the empty or reversed slot [%d, %d)", v, s.Start[v], s.Finish[v])
		}
		w := g.Weight(v)
		if opt.expectDur != nil {
			var ok bool
			if w, ok = opt.expectDur(v, int(s.Proc[v])); !ok {
				return violationf(CheckPlacement, g, s, []int32{int32(v)},
					"task %d's stretched slot on processor %d exceeds int64 cycles", v, s.Proc[v])
			}
		}
		if d := s.Finish[v] - s.Start[v]; d != w {
			return violationf(CheckPlacement, g, s, []int32{int32(v)},
				"task %d runs for %d cycles, weight is %d", v, d, w)
		}
		if opt.Release != nil && s.Start[v] < opt.Release[v] {
			return violationf(CheckRelease, g, s, []int32{int32(v)},
				"task %d starts at %d before its release %d", v, s.Start[v], opt.Release[v])
		}
	}

	// Precedence: every edge's successor starts no earlier than its
	// predecessor finishes.
	for u := 0; u < n; u++ {
		for _, v := range g.Succs(u) {
			if s.Start[v] < s.Finish[u] {
				return violationf(CheckPrecedence, g, s, []int32{int32(u), v},
					"edge %d->%d: successor starts at %d, predecessor finishes at %d",
					u, v, s.Start[v], s.Finish[u])
			}
		}
	}

	// Exclusivity: bucket tasks by processor from the raw Proc array, sort
	// each bucket by start time, and require consecutive intervals not to
	// overlap. This reconstruction is independent of the schedule's own
	// per-processor lists.
	byProc := make([][]int32, s.NumProcs)
	for v := 0; v < n; v++ {
		byProc[s.Proc[v]] = append(byProc[s.Proc[v]], int32(v))
	}
	for p, tasks := range byProc {
		sort.Slice(tasks, func(i, j int) bool {
			if s.Start[tasks[i]] != s.Start[tasks[j]] {
				return s.Start[tasks[i]] < s.Start[tasks[j]]
			}
			return tasks[i] < tasks[j]
		})
		for i := 1; i < len(tasks); i++ {
			prev, cur := tasks[i-1], tasks[i]
			if s.Start[cur] < s.Finish[prev] {
				return violationf(CheckOverlap, g, s, []int32{prev, cur},
					"tasks %d and %d overlap on processor %d", prev, cur, p)
			}
		}
	}

	// Dispatch lists: the schedule's own per-processor lists must agree with
	// the independent reconstruction — same coverage, same processor, starts
	// in dispatch order. A malformed schedule may carry lists that do not
	// even index correctly; treat a panic here as a shape violation rather
	// than crashing the verifier.
	if verr := checkDispatchLists(g, s, byProc); verr != nil {
		return verr
	}

	// Makespan: exactly the latest finish time.
	var maxFinish int64
	latest := int32(0)
	for v := 0; v < n; v++ {
		if s.Finish[v] > maxFinish {
			maxFinish = s.Finish[v]
			latest = int32(v)
		}
	}
	if s.Makespan != maxFinish {
		return violationf(CheckMakespan, g, s, []int32{latest},
			"recorded makespan %d, latest finish %d (task %d)", s.Makespan, maxFinish, latest)
	}

	if opt.DeadlineCycles > 0 && s.Makespan > opt.DeadlineCycles {
		return violationf(CheckDeadline, g, s, []int32{latest},
			"makespan %d exceeds deadline %d cycles", s.Makespan, opt.DeadlineCycles)
	}
	return nil
}

// PlatformSchedule checks a heterogeneous-platform schedule against g from
// first principles. The invariants are those of Schedule with one change:
// a task's slot on processor p must last the class-stretched duration
// ceil(weight·Scale(class(p))) timeline cycles (exactly the weight on an
// unstretched class) instead of the raw weight. The verifier derives that
// length itself, and a stretch past int64 is a violation, never a length.
func PlatformSchedule(g *dag.Graph, pf *power.Platform, s *sched.Schedule) error {
	return PlatformScheduleWithin(g, pf, s, ScheduleOptions{})
}

// PlatformScheduleWithin is PlatformSchedule plus release-time and deadline
// checks (deadline in timeline cycles).
func PlatformScheduleWithin(g *dag.Graph, pf *power.Platform, s *sched.Schedule, opt ScheduleOptions) error {
	if pf == nil {
		return &Violation{Check: CheckShape, Detail: "nil platform"}
	}
	if s != nil && s.NumProcs > pf.NumProcs() {
		return violationf(CheckShape, g, s, nil,
			"schedule uses %d processors of a %d-processor platform", s.NumProcs, pf.NumProcs())
	}
	opt.expectDur = func(v, proc int) (int64, bool) {
		return slotCycles(pf, pf.ClassOf(proc), g.Weight(v))
	}
	return ScheduleWithin(g, s, opt)
}

// slotCycles is the timeline slot length of a w-cycle task on class c of
// pf: w on a class of scale 1, ceil(w·scale) otherwise. ok is false when
// the stretched length is not below 2^63, so does not fit in int64.
func slotCycles(pf *power.Platform, c int, w int64) (d int64, ok bool) {
	scale := pf.Scale(c)
	if scale == 1 {
		return w, true
	}
	x := math.Ceil(float64(w) * scale)
	if !(x < math.MaxInt64) { // float64(MaxInt64) is 2^63; NaN fails too
		return 0, false
	}
	return int64(x), true
}

// checkDispatchLists cross-checks s.TasksOn against the independently
// reconstructed buckets.
func checkDispatchLists(g *dag.Graph, s *sched.Schedule, byProc [][]int32) (verr error) {
	defer func() {
		if r := recover(); r != nil {
			verr = violationf(CheckShape, g, s, nil, "per-processor task lists are malformed: %v", r)
		}
	}()
	n := g.NumTasks()
	seen := make([]bool, n)
	for p := 0; p < s.NumProcs; p++ {
		list := s.TasksOn(p)
		if len(list) != len(byProc[p]) {
			return violationf(CheckDispatch, g, s, list,
				"processor %d lists %d tasks, Proc array assigns it %d", p, len(list), len(byProc[p]))
		}
		for i, v := range list {
			if int(v) < 0 || int(v) >= n {
				return violationf(CheckDispatch, g, s, nil,
					"processor %d lists task %d of %d", p, v, n)
			}
			if seen[v] {
				return violationf(CheckDispatch, g, s, []int32{v},
					"task %d listed twice", v)
			}
			seen[v] = true
			if int(s.Proc[v]) != p {
				return violationf(CheckDispatch, g, s, []int32{v},
					"processor %d lists task %d, Proc says %d", p, v, s.Proc[v])
			}
			if i > 0 && s.Start[v] < s.Start[list[i-1]] {
				return violationf(CheckDispatch, g, s, []int32{list[i-1], v},
					"processor %d dispatch order is not by start time (%d before %d)", p, list[i-1], v)
			}
		}
	}
	for v := 0; v < n; v++ {
		if !seen[v] {
			return violationf(CheckDispatch, g, s, []int32{int32(v)},
				"task %d missing from every processor's list", v)
		}
	}
	return nil
}
