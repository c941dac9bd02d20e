package sched_test

import (
	"bytes"
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"lamps/internal/dag"
	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/taskgen"
	"lamps/internal/verify"
)

// ---------------------------------------------------------------------------
// Pre-kernel reference implementation.
//
// This is the list scheduler exactly as it existed before the
// zero-allocation kernel: three container/heap interface heaps, fresh
// slices per call, per-processor lists sorted with sort.Slice. It is kept
// verbatim (modulo test-local naming, and a record of the order in which
// the running heap retires tasks) as the oracle for the differential
// parity tests: Scheduler.ScheduleInto must reproduce its output, finish
// order included, byte for byte.
// ---------------------------------------------------------------------------

type refReadyItem struct {
	task int32
	prio int64
}

type refReadyHeap []refReadyItem

func (h refReadyHeap) Len() int { return len(h) }
func (h refReadyHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].task < h[j].task
}
func (h refReadyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refReadyHeap) Push(x any)   { *h = append(*h, x.(refReadyItem)) }
func (h *refReadyHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type refEvent struct {
	finish int64
	task   int32
}

type refEventHeap []refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].task < h[j].task
}
func (h refEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refEventHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type refIntHeap []int32

func (h refIntHeap) Len() int           { return len(h) }
func (h refIntHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h refIntHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refIntHeap) Push(x any)        { *h = append(*h, x.(int32)) }
func (h *refIntHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refSchedule is the reference result: the same arrays a Schedule carries
// plus the per-processor lists built the pre-kernel way and the order in
// which the running heap retired the tasks.
type refSchedule struct {
	proc     []int32
	start    []int64
	finish   []int64
	makespan int64
	byProc   [][]int32
	order    []int32
}

func listScheduleReference(g *dag.Graph, nprocs int, prio, release []int64) *refSchedule {
	n := g.NumTasks()
	relOf := func(v int32) int64 {
		if release == nil {
			return 0
		}
		return release[v]
	}
	s := &refSchedule{
		proc:   make([]int32, n),
		start:  make([]int64, n),
		finish: make([]int64, n),
	}
	indeg := make([]int32, n)
	ready := make(refReadyHeap, 0, n)
	var pending refEventHeap
	for v := 0; v < n; v++ {
		indeg[v] = int32(g.InDegree(v))
		if indeg[v] == 0 {
			if r := relOf(int32(v)); r > 0 {
				pending = append(pending, refEvent{r, int32(v)})
			} else {
				ready = append(ready, refReadyItem{int32(v), prio[v]})
			}
		}
	}
	heap.Init(&ready)
	heap.Init(&pending)
	idle := make(refIntHeap, nprocs)
	for p := range idle {
		idle[p] = int32(p)
	}
	heap.Init(&idle)
	var running refEventHeap
	var t int64
	for {
		for pending.Len() > 0 && pending[0].finish <= t {
			ev := heap.Pop(&pending).(refEvent)
			heap.Push(&ready, refReadyItem{ev.task, prio[ev.task]})
		}
		for ready.Len() > 0 && idle.Len() > 0 {
			it := heap.Pop(&ready).(refReadyItem)
			p := heap.Pop(&idle).(int32)
			v := int(it.task)
			finish := t + g.Weight(v)
			s.proc[v] = p
			s.start[v] = t
			s.finish[v] = finish
			if finish > s.makespan {
				s.makespan = finish
			}
			heap.Push(&running, refEvent{finish, it.task})
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
			heap.Push(&idle, s.proc[ev.task])
			for _, succ := range g.Succs(int(ev.task)) {
				indeg[succ]--
				if indeg[succ] == 0 {
					if r := relOf(succ); r > t {
						heap.Push(&pending, refEvent{r, succ})
					} else {
						heap.Push(&ready, refReadyItem{succ, prio[succ]})
					}
				}
			}
		}
	}
	s.byProc = make([][]int32, nprocs)
	for v := range s.proc {
		p := s.proc[v]
		s.byProc[p] = append(s.byProc[p], int32(v))
	}
	for p := range s.byProc {
		tasks := s.byProc[p]
		sort.Slice(tasks, func(i, j int) bool { return s.start[tasks[i]] < s.start[tasks[j]] })
	}
	return s
}

// requireEqualSchedules fails unless got matches the reference byte for
// byte: placement, times, makespan, every per-processor task list and the
// finish order.
func requireEqualSchedules(t *testing.T, ref *refSchedule, got *sched.Schedule, nprocs int) {
	t.Helper()
	if got.Makespan != ref.makespan {
		t.Fatalf("makespan %d != reference %d", got.Makespan, ref.makespan)
	}
	for v := range ref.proc {
		if got.Proc[v] != ref.proc[v] || got.Start[v] != ref.start[v] || got.Finish[v] != ref.finish[v] {
			t.Fatalf("task %d: got (proc %d, [%d,%d)) want (proc %d, [%d,%d))",
				v, got.Proc[v], got.Start[v], got.Finish[v], ref.proc[v], ref.start[v], ref.finish[v])
		}
	}
	for p := 0; p < nprocs; p++ {
		gp := got.TasksOn(p)
		rp := ref.byProc[p]
		if len(gp) != len(rp) {
			t.Fatalf("proc %d: %d tasks != reference %d", p, len(gp), len(rp))
		}
		for i := range rp {
			if gp[i] != rp[i] {
				t.Fatalf("proc %d slot %d: task %d != reference %d", p, i, gp[i], rp[i])
			}
		}
	}
	if fo := got.FinishOrder(); !slices.Equal(fo, ref.order) {
		t.Fatalf("finish order %v != reference %v", fo, ref.order)
	}
}

// TestScheduleIntoParity is the kernel's differential parity test: on random
// graphs from every generator family — with and without release times, with
// EDF and with adversarial random priorities — the reusable zero-allocation
// kernel must produce schedules byte-identical to the pre-kernel
// container/heap implementation, while one Scheduler and one Schedule are
// reused across every configuration. The last iterations schedule graphs of
// more than 4,096 tasks, so the ready set's summary spans two words, on 65
// and 130 processors, so the idle bitmap spans two and three words.
func TestScheduleIntoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	var k sched.Scheduler
	var reused sched.Schedule
	for iter := 0; iter < 64; iter++ {
		size := 2 + rng.Intn(60)
		if iter >= 60 {
			size = 4100 + rng.Intn(400)
		}
		g, err := taskgen.Member(size, rng.Intn(4), rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumTasks()
		if iter >= 60 && n <= 4096 {
			t.Fatalf("iter %d: large case has only %d tasks", iter, n)
		}
		var prio []int64
		if iter%2 == 0 {
			prio = sched.EDFPriorities(g, 0)
		} else {
			prio = make([]int64, n)
			for v := range prio {
				prio[v] = rng.Int63n(1000) - 500
			}
		}
		var release []int64
		if iter%3 != 0 {
			release = make([]int64, n)
			for v := range release {
				release[v] = int64(rng.Intn(300))
			}
		}
		nprocs := 1 + rng.Intn(8)
		if iter >= 60 {
			nprocs = []int{65, 130}[iter%2]
		}

		ref := listScheduleReference(g, nprocs, prio, release)
		if err := k.ScheduleInto(&reused, g, nprocs, prio, release); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := verify.ScheduleWithin(g, &reused, verify.ScheduleOptions{Release: release}); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := checkFinishOrder(&reused); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		requireEqualSchedules(t, ref, &reused, nprocs)

		// The one-shot wrapper must agree too (it shares the kernel, but a
		// fresh scratch must not behave differently from a reused one).
		fresh, err := sched.ListScheduleReleases(g, nprocs, prio, release)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		requireEqualSchedules(t, ref, fresh, nprocs)
	}
}

// TestScheduleIntoSteadyStateZeroAlloc is the allocation gate the CI
// benchmark job enforces: once the Scheduler scratch and the destination
// Schedule are warm, ScheduleInto must not allocate at all — with releases
// (pending-heap path included) and without.
func TestScheduleIntoSteadyStateZeroAlloc(t *testing.T) {
	g, err := taskgen.Member(300, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	prio := sched.EDFPriorities(g, 0)
	release := make([]int64, g.NumTasks())
	for v := range release {
		release[v] = int64((v * 37) % 5000)
	}
	var k sched.Scheduler
	var s sched.Schedule
	for _, rel := range [][]int64{nil, release} {
		rel := rel
		if err := k.ScheduleInto(&s, g, 5, prio, rel); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := k.ScheduleInto(&s, g, 5, prio, rel); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state ScheduleInto allocates %v allocs/op (release=%v)", allocs, rel != nil)
		}
	}
}

// BenchmarkListScheduleFreshScratch is the "before" shape: every call pays
// for a new Scheduler scratch and a new Schedule.
func BenchmarkListScheduleFreshScratch(b *testing.B) {
	g, err := taskgen.Member(500, 0, 42)
	if err != nil {
		b.Fatal(err)
	}
	prio := sched.EDFPriorities(g, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ListScheduleReleases(g, 8, prio, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleIntoReused is the "after" shape: a warm kernel writing
// into a warm Schedule — the steady state the CI allocation gate pins at
// 0 allocs/op.
func BenchmarkScheduleIntoReused(b *testing.B) {
	g, err := taskgen.Member(500, 0, 42)
	if err != nil {
		b.Fatal(err)
	}
	prio := sched.EDFPriorities(g, 0)
	var k sched.Scheduler
	var s sched.Schedule
	if err := k.ScheduleInto(&s, g, 8, prio, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.ScheduleInto(&s, g, 8, prio, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFinishOrderContract pins Schedule.FinishOrder. On kernel schedules
// with equal finish times and with releases, homogeneous and on a
// two-class platform, it is a permutation sorted by (Finish, task).
// CloneCompact and a WriteJSON→ReadJSON round trip preserve it — the
// restored copy, class-stretched slots included, passes the verifier on
// its machine — and the backup planner, which walks it, plans all three
// copies bit for bit the same. A Schedule assembled field by field has no finish order, and Plan
// refuses it.
func TestFinishOrderContract(t *testing.T) {
	// Twelve tasks of weights 2 and 4 on three processors finish in groups
	// of equal times; three edges and staggered releases vary the groups.
	b := dag.NewBuilder("equal-finishes")
	for v := 0; v < 12; v++ {
		b.AddTask(int64(2 + 2*(v%2)))
	}
	b.AddEdge(0, 6)
	b.AddEdge(1, 7)
	b.AddEdge(2, 8)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prio := sched.EDFPriorities(g, 0)
	release := []int64{0, 0, 0, 0, 2, 2, 0, 0, 0, 4, 4, 4}
	pf := testPlatform(t)

	var k sched.Scheduler
	for _, tc := range []struct {
		name    string
		release []int64
		pf      *power.Platform
	}{
		{"homogeneous", nil, nil},
		{"releases", release, nil},
		{"platform-releases", release, pf},
	} {
		var s sched.Schedule
		if tc.pf == nil {
			err = k.ScheduleInto(&s, g, 3, prio, tc.release)
		} else {
			err = k.ScheduleIntoPlatform(&s, g, tc.pf, tc.pf.NumProcs(), prio, tc.release)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := checkFinishOrder(&s); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		order := s.FinishOrder()
		ties := 0
		for i := 1; i < len(order); i++ {
			if s.Finish[order[i-1]] == s.Finish[order[i]] {
				ties++
			}
		}
		if ties == 0 {
			t.Fatalf("%s: no two tasks finish together; the case does not test the tie-break", tc.name)
		}

		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := sched.ReadJSON(&buf)
		if err != nil {
			t.Fatalf("%s: ReadJSON: %v", tc.name, err)
		}
		if err := verify.ScheduleWithin(r.Graph, r, verify.ScheduleOptions{Release: tc.release, Platform: tc.pf}); err != nil {
			t.Fatalf("%s: restored schedule: %v", tc.name, err)
		}
		copies := []*sched.Schedule{&s, s.CloneCompact(), r}
		policy := sched.BackupAnywhere
		if tc.pf != nil {
			policy = sched.PrimaryHPBackupLP
		}
		want, err := sched.PlanBackups(&s, tc.pf, policy)
		if err != nil {
			t.Fatalf("%s: PlanBackups: %v", tc.name, err)
		}
		for i, c := range copies[1:] {
			if !slices.Equal(c.FinishOrder(), order) {
				t.Fatalf("%s copy %d: finish order %v, want %v", tc.name, i+1, c.FinishOrder(), order)
			}
			plan, err := sched.PlanBackups(c, tc.pf, policy)
			if err != nil {
				t.Fatalf("%s copy %d: PlanBackups: %v", tc.name, i+1, err)
			}
			if !reflect.DeepEqual(plan, want) {
				t.Fatalf("%s copy %d: backup plan differs from the kernel schedule's", tc.name, i+1)
			}
		}

		literal := &sched.Schedule{
			Graph:    g,
			NumProcs: s.NumProcs,
			Proc:     s.Proc,
			Start:    s.Start,
			Finish:   s.Finish,
			Makespan: s.Makespan,
		}
		if _, err := sched.PlanBackups(literal, tc.pf, policy); err == nil {
			t.Fatalf("%s: PlanBackups accepted a schedule without a finish order", tc.name)
		}
	}
}
