package sched_test

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"testing"

	"lamps/internal/dag"
	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/taskgen"
)

// platformScheduleReference is ScheduleIntoPlatform as it was before the
// ready set and the idle processors became bitmaps: a (priority, task)
// ready heap, one lowest-index-first idle heap per core class, and the
// earliest-finish class rule with the lowest idle index across classes as
// its tie-break. It is kept, on container/heap and sharing no code with the
// kernel, as the differential oracle for the platform kernel.
func platformScheduleReference(g *dag.Graph, pf *power.Platform, nprocs int, prio, release []int64) *refSchedule {
	n := g.NumTasks()
	s := &refSchedule{
		proc:   make([]int32, n),
		start:  make([]int64, n),
		finish: make([]int64, n),
	}
	indeg := make([]int32, n)
	var ready refReadyHeap
	var pending, running refEventHeap
	for v := 0; v < n; v++ {
		indeg[v] = int32(g.InDegree(v))
		if indeg[v] == 0 {
			if release != nil && release[v] > 0 {
				pending = append(pending, refEvent{release[v], int32(v)})
			} else {
				ready = append(ready, refReadyItem{int32(v), prio[v]})
			}
		}
	}
	heap.Init(&ready)
	heap.Init(&pending)
	idle := make([]refIntHeap, pf.NumClasses())
	for p := 0; p < nprocs; p++ {
		heap.Push(&idle[pf.ClassOf(p)], int32(p))
	}
	idleCount := nprocs
	var t int64
	for {
		for pending.Len() > 0 && pending[0].finish <= t {
			ev := heap.Pop(&pending).(refEvent)
			heap.Push(&ready, refReadyItem{ev.task, prio[ev.task]})
		}
		for ready.Len() > 0 && idleCount > 0 {
			it := heap.Pop(&ready).(refReadyItem)
			v := int(it.task)
			bestClass := -1
			var bestDur int64
			for c := range idle {
				if idle[c].Len() == 0 {
					continue
				}
				d := pf.ScaledWeight(c, g.Weight(v))
				if bestClass < 0 || d < bestDur || (d == bestDur && idle[c][0] < idle[bestClass][0]) {
					bestClass, bestDur = c, d
				}
			}
			p := heap.Pop(&idle[bestClass]).(int32)
			idleCount--
			s.proc[v] = p
			s.start[v] = t
			s.finish[v] = t + bestDur
			s.makespan = max(s.makespan, s.finish[v])
			heap.Push(&running, refEvent{s.finish[v], it.task})
		}
		if running.Len() == 0 && pending.Len() == 0 {
			break
		}
		next := int64(math.MaxInt64)
		if running.Len() > 0 {
			next = running[0].finish
		}
		if pending.Len() > 0 && pending[0].finish < next {
			next = pending[0].finish
		}
		t = next
		for running.Len() > 0 && running[0].finish == t {
			ev := heap.Pop(&running).(refEvent)
			s.order = append(s.order, ev.task)
			p := s.proc[ev.task]
			heap.Push(&idle[pf.ClassOf(int(p))], p)
			idleCount++
			for _, succ := range g.Succs(int(ev.task)) {
				indeg[succ]--
				if indeg[succ] == 0 {
					if release != nil && release[succ] > t {
						heap.Push(&pending, refEvent{release[succ], succ})
					} else {
						heap.Push(&ready, refReadyItem{succ, prio[succ]})
					}
				}
			}
		}
	}
	s.byProc = make([][]int32, nprocs)
	for v, p := range s.proc {
		s.byProc[p] = append(s.byProc[p], int32(v))
	}
	for _, tasks := range s.byProc {
		sort.Slice(tasks, func(i, j int) bool { return s.start[tasks[i]] < s.start[tasks[j]] })
	}
	return s
}

// checkFinishOrder reports whether s.FinishOrder() is a permutation of the
// tasks sorted by (Finish, task). Schedule.Validate checks the same, but
// it also requires durations equal to the weights, which platform
// schedules do not have.
func checkFinishOrder(s *sched.Schedule) error {
	order := s.FinishOrder()
	if len(order) != len(s.Finish) {
		return fmt.Errorf("finish order lists %d of %d tasks", len(order), len(s.Finish))
	}
	seen := make([]bool, len(order))
	for i, v := range order {
		if v < 0 || int(v) >= len(order) || seen[v] {
			return fmt.Errorf("finish order position %d: task %d out of range or repeated", i, v)
		}
		seen[v] = true
		if i > 0 {
			u := order[i-1]
			if s.Finish[u] > s.Finish[v] || s.Finish[u] == s.Finish[v] && u > v {
				return fmt.Errorf("finish order position %d: task %d (finish %d) after task %d (finish %d)",
					i, v, s.Finish[v], u, s.Finish[u])
			}
		}
	}
	return nil
}

// FuzzScheduleIntoMatchesReference is the differential gate of both
// kernels on fuzzed small graphs: ScheduleInto against the pre-kernel
// heap scheduler, and ScheduleIntoPlatform on a two-class platform whose
// first lpCores processors are low-power against the frozen heap-based
// platform kernel. nprocs runs up to 130, so the idle bitmaps span up to
// three words; priorities come from prioData folded into 0..3, so ties are
// everywhere; releases come from relData when it is non-empty.
//
// One Scheduler serves every call, first with prio, then with its
// negation — the same length, a different ranking — and then with prio
// again, so a ranking reused without checking it still sorts the current
// priorities shows up as a divergence.
func FuzzScheduleIntoMatchesReference(f *testing.F) {
	f.Add(uint16(5), uint8(0), int64(1), uint8(0), uint8(0), []byte{3, 1, 2}, []byte(nil))
	f.Add(uint16(40), uint8(1), int64(7), uint8(3), uint8(2), []byte{0, 1, 2, 3, 0}, []byte{0, 9, 0, 4})
	f.Add(uint16(70), uint8(2), int64(99), uint8(64), uint8(40), []byte{2, 2, 1}, []byte(nil))
	f.Add(uint16(79), uint8(3), int64(1234), uint8(129), uint8(100), []byte{1, 0}, []byte{5, 0, 200, 17})
	f.Add(uint16(30), uint8(0), int64(-5), uint8(1), uint8(1), []byte(nil), []byte{3})
	f.Fuzz(func(t *testing.T, rawSize uint16, rawFamily uint8, seed int64, rawProcs, lpCores uint8, prioData, relData []byte) {
		g, err := taskgen.Member(1+int(rawSize)%80, int(rawFamily)%4, seed)
		if err != nil {
			return // the generator rejects some (size, family) combinations
		}
		n := g.NumTasks()
		nprocs := 1 + int(rawProcs)%130
		prio := make([]int64, n)
		for v := range prio {
			if len(prioData) > 0 {
				prio[v] = int64(prioData[v%len(prioData)] % 4)
			}
		}
		negated := make([]int64, n)
		for v := range negated {
			negated[v] = -prio[v]
		}
		var release []int64
		if len(relData) > 0 {
			release = make([]int64, n)
			for v := range release {
				release[v] = int64(relData[v%len(relData)]) * 7
			}
		}
		pf := diffPlatform(t, nprocs, int(lpCores)%(nprocs+1))

		var k sched.Scheduler
		var s sched.Schedule
		for round, p := range [][]int64{prio, negated, prio} {
			if err := k.ScheduleInto(&s, g, nprocs, p, release); err != nil {
				t.Fatalf("round %d: ScheduleInto: %v", round, err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("round %d: ScheduleInto schedule invalid: %v", round, err)
			}
			requireEqualSchedules(t, listScheduleReference(g, nprocs, p, release), &s, nprocs)

			if err := k.ScheduleIntoPlatform(&s, g, pf, nprocs, p, release); err != nil {
				t.Fatalf("round %d: ScheduleIntoPlatform: %v", round, err)
			}
			if err := checkFinishOrder(&s); err != nil {
				t.Fatalf("round %d: ScheduleIntoPlatform: %v", round, err)
			}
			requireEqualSchedules(t, platformScheduleReference(g, pf, nprocs, p, release), &s, nprocs)
		}
	})
}
