// Package sched implements static multiprocessor list scheduling for
// weighted task DAGs, in particular list scheduling with earliest deadline
// first (LS-EDF) as used by all heuristics in de Langen & Juurlink
// (Section 4). Schedules are expressed in cycles at the maximum frequency;
// running the machine at a scaled frequency stretches every interval
// uniformly, which preserves precedence and processor assignment.
package sched

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"lamps/internal/dag"
)

// Errors returned by the scheduler.
var (
	ErrNoProcs      = errors.New("sched: number of processors must be positive")
	ErrBadDeadlines = errors.New("sched: per-task deadline slice has wrong length")
	// ErrBadPriorities and ErrBadReleases are the analogous length errors for
	// the priority and release slices of ListSchedule/ListScheduleReleases.
	// They are distinct sentinels (not wrappers of ErrBadDeadlines) so callers
	// mapping scheduler errors onto API responses can tell the three inputs
	// apart unambiguously.
	ErrBadPriorities = errors.New("sched: per-task priority slice has wrong length")
	ErrBadReleases   = errors.New("sched: per-task release slice has wrong length")
)

// Schedule is the result of statically mapping a task graph onto a fixed
// number of identical processors. All times are in cycles at the maximum
// frequency.
type Schedule struct {
	Graph    *dag.Graph
	NumProcs int

	Proc   []int32 // task -> processor index
	Start  []int64 // task -> start time [cycles]
	Finish []int64 // task -> finish time [cycles]

	Makespan int64

	// Per-processor task lists in CSR layout: processor p runs
	// byProcFlat[byProcOff[p]:byProcOff[p+1]] in increasing start order. The
	// flat layout lets the scheduling kernel rebuild the lists in place with
	// a counting sort instead of per-processor allocations.
	byProcFlat []int32
	byProcOff  []int32 // len NumProcs+1

	// finishOrder lists the tasks in (Finish, task) order; see FinishOrder.
	finishOrder []int32
}

// FinishOrder returns the tasks in completion order: sorted by finish time,
// ties by task index. The scheduling kernels emit it as they retire tasks,
// CloneCompact copies it and ReadJSON derives it, so only a Schedule
// assembled field by field lacks it (the result is then empty). Because
// weights are positive, the order is topological. The returned slice is
// owned by the schedule and must not be modified.
func (s *Schedule) FinishOrder() []int32 { return s.finishOrder }

// TasksOn returns the tasks assigned to processor p in execution order. The
// returned slice is owned by the schedule and must not be modified.
func (s *Schedule) TasksOn(p int) []int32 {
	return s.byProcFlat[s.byProcOff[p]:s.byProcOff[p+1]]
}

// ProcsUsed returns the number of processors that execute at least one task.
// List scheduling may leave processors empty when the graph has less
// parallelism than the machine has processors.
func (s *Schedule) ProcsUsed() int {
	n := 0
	for p := 0; p < s.NumProcs; p++ {
		if s.byProcOff[p+1] > s.byProcOff[p] {
			n++
		}
	}
	return n
}

// CloneCompact returns a deep copy of the schedule packed into the minimum
// number of allocations: one shell, one int64 block shared by Start/Finish,
// and one int32 block shared by Proc/byProcFlat/finishOrder/byProcOff.
// Engines that recycle schedule scratch through a pool use it to detach the
// winning candidate before the scratch is reused; the full-slice-expression
// caps keep an append on any sub-slice from silently overwriting its
// neighbours.
func (s *Schedule) CloneCompact() *Schedule {
	n := len(s.Proc)
	c := &Schedule{
		Graph:    s.Graph,
		NumProcs: s.NumProcs,
		Makespan: s.Makespan,
	}
	t64 := make([]int64, 2*n)
	c.Start = t64[:n:n]
	c.Finish = t64[n:]
	copy(c.Start, s.Start)
	copy(c.Finish, s.Finish)
	m := 2*n + len(s.finishOrder)
	t32 := make([]int32, m+len(s.byProcOff))
	c.Proc = t32[:n:n]
	c.byProcFlat = t32[n : 2*n : 2*n]
	c.finishOrder = t32[2*n : m : m]
	c.byProcOff = t32[m:]
	copy(c.Proc, s.Proc)
	copy(c.byProcFlat, s.byProcFlat)
	copy(c.finishOrder, s.finishOrder)
	copy(c.byProcOff, s.byProcOff)
	return c
}

// Gap is a contiguous idle interval on one processor, in cycles. For
// employed processors the intervals before the first task, between
// consecutive tasks, and after the last task up to the schedule horizon are
// all gaps.
type Gap struct {
	Proc       int
	Begin, End int64 // [Begin, End) in cycles
}

// Length returns the gap duration in cycles.
func (g Gap) Length() int64 { return g.End - g.Begin }

// Gaps returns every idle interval of every *employed* processor, assuming
// the machine must stay available until horizon (typically the deadline
// expressed in cycles at the schedule's frequency). Processors that execute
// no task at all are considered off and contribute no gaps. Zero-length
// intervals are omitted.
func (s *Schedule) Gaps(horizon int64) []Gap {
	var gaps []Gap
	for p := 0; p < s.NumProcs; p++ {
		tasks := s.TasksOn(p)
		if len(tasks) == 0 {
			continue
		}
		cursor := int64(0)
		for _, v := range tasks {
			if s.Start[v] > cursor {
				gaps = append(gaps, Gap{p, cursor, s.Start[v]})
			}
			cursor = s.Finish[v]
		}
		if horizon > cursor {
			gaps = append(gaps, Gap{p, cursor, horizon})
		}
	}
	return gaps
}

// BusyCycles returns the total number of executed cycles, which equals the
// graph's total work.
func (s *Schedule) BusyCycles() int64 { return s.Graph.TotalWork() }

// IdleCycles returns the total idle cycles across employed processors up to
// the given horizon.
func (s *Schedule) IdleCycles(horizon int64) int64 {
	var idle int64
	for _, g := range s.Gaps(horizon) {
		idle += g.Length()
	}
	return idle
}

// Validate checks the structural invariants of the schedule: every task is
// placed exactly once, intervals on one processor do not overlap, durations
// equal task weights, all precedence constraints hold, Makespan is the
// maximum finish time, and FinishOrder is the (finish, task) order. It is
// used by tests and property checks.
func (s *Schedule) Validate() error {
	g := s.Graph
	n := g.NumTasks()
	if len(s.Proc) != n || len(s.Start) != n || len(s.Finish) != n {
		return fmt.Errorf("sched: schedule arrays have wrong length")
	}
	var maxFinish int64
	for v := 0; v < n; v++ {
		if s.Proc[v] < 0 || int(s.Proc[v]) >= s.NumProcs {
			return fmt.Errorf("sched: task %d on invalid processor %d", v, s.Proc[v])
		}
		if s.Start[v] < 0 {
			return fmt.Errorf("sched: task %d starts at negative time %d", v, s.Start[v])
		}
		if s.Finish[v]-s.Start[v] != g.Weight(v) {
			return fmt.Errorf("sched: task %d duration %d != weight %d",
				v, s.Finish[v]-s.Start[v], g.Weight(v))
		}
		if s.Finish[v] > maxFinish {
			maxFinish = s.Finish[v]
		}
		for _, pred := range g.Preds(v) {
			if s.Start[v] < s.Finish[pred] {
				return fmt.Errorf("sched: task %d starts at %d before pred %d finishes at %d",
					v, s.Start[v], pred, s.Finish[pred])
			}
		}
	}
	if maxFinish != s.Makespan {
		return fmt.Errorf("sched: makespan %d != max finish %d", s.Makespan, maxFinish)
	}
	// Per-processor non-overlap and ordering.
	if len(s.byProcOff) != s.NumProcs+1 || len(s.byProcFlat) != n {
		return fmt.Errorf("sched: per-processor task lists have wrong length")
	}
	seen := make([]bool, n)
	total := 0
	for p := 0; p < s.NumProcs; p++ {
		var cursor int64
		for _, v := range s.TasksOn(p) {
			if seen[v] {
				return fmt.Errorf("sched: task %d scheduled twice", v)
			}
			seen[v] = true
			total++
			if int(s.Proc[v]) != p {
				return fmt.Errorf("sched: task %d listed on proc %d but assigned to %d", v, p, s.Proc[v])
			}
			if s.Start[v] < cursor {
				return fmt.Errorf("sched: overlap on processor %d at task %d", p, v)
			}
			cursor = s.Finish[v]
		}
	}
	if total != n {
		return fmt.Errorf("sched: %d of %d tasks placed", total, n)
	}
	// A strictly increasing run of n in-range tasks is a permutation.
	if len(s.finishOrder) != n {
		return fmt.Errorf("sched: finish order lists %d of %d tasks", len(s.finishOrder), n)
	}
	for i, v := range s.finishOrder {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("sched: finish order lists invalid task %d", v)
		}
		if i > 0 {
			u := s.finishOrder[i-1]
			if s.Finish[u] > s.Finish[v] || s.Finish[u] == s.Finish[v] && u >= v {
				return fmt.Errorf("sched: finish order not sorted by (finish, task) at position %d", i)
			}
		}
	}
	return nil
}

// String renders a compact textual Gantt-like description, useful in
// examples and debugging.
func (s *Schedule) String() string {
	out := fmt.Sprintf("schedule of %q on %d processor(s), makespan %d cycles\n",
		s.Graph.Name(), s.NumProcs, s.Makespan)
	for p := 0; p < s.NumProcs; p++ {
		out += fmt.Sprintf("  P%d:", p)
		for _, v := range s.TasksOn(p) {
			label := s.Graph.Label(int(v))
			if label == "" {
				label = fmt.Sprintf("T%d", v)
			}
			out += fmt.Sprintf(" %s[%d,%d)", label, s.Start[v], s.Finish[v])
		}
		out += "\n"
	}
	return out
}

// buildByProc fills the flat per-processor task lists by a stable counting
// sort of the finish order over the processor index, and returns cursor
// grown to the processor count (the kernels keep it as scratch). One
// processor runs one task at a time and weights are positive, so along the
// finish order its tasks appear in start order: the stable scatter yields
// each list sorted by start time without a comparison sort.
func (s *Schedule) buildByProc(cursor []int32) []int32 {
	nprocs := s.NumProcs
	s.byProcOff = grow(s.byProcOff, nprocs+1)
	clear(s.byProcOff)
	for _, v := range s.finishOrder {
		s.byProcOff[s.Proc[v]+1]++
	}
	for p := 0; p < nprocs; p++ {
		s.byProcOff[p+1] += s.byProcOff[p]
	}
	cursor = grow(cursor, nprocs)
	copy(cursor, s.byProcOff[:nprocs])
	s.byProcFlat = grow(s.byProcFlat, len(s.finishOrder))
	for _, v := range s.finishOrder {
		p := s.Proc[v]
		s.byProcFlat[cursor[p]] = v
		cursor[p]++
	}
	return cursor
}

// rebuildOrders derives the finish order from Finish and then the
// per-processor task lists from it, for schedules that did not come from
// the kernel: deserialisation does this, because JSON documents may list
// tasks in any order.
func (s *Schedule) rebuildOrders() {
	s.finishOrder = make([]int32, len(s.Proc))
	for v := range s.finishOrder {
		s.finishOrder[v] = int32(v)
	}
	slices.SortFunc(s.finishOrder, func(a, b int32) int {
		if c := cmp.Compare(s.Finish[a], s.Finish[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	s.buildByProc(nil)
}
