package sched_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"lamps/internal/dag"
	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/taskgen"
	"lamps/internal/verify"
)

// singleTask builds a one-task graph of the given weight.
func singleTask(t *testing.T, w int64) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("single")
	b.AddTask(w)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testPlatform returns a heterogeneous LP×3 + HP×2 platform: the LP class is
// the 70 nm model capped at a lower voltage, so its fmax — and therefore its
// timeline slot stretch — differs from the HP class.
func testPlatform(t testing.TB) *power.Platform {
	t.Helper()
	lp := *power.Default70nm()
	lp.VddMax = 0.85
	lp.POn = 0.04
	if err := lp.Build(); err != nil {
		t.Fatal(err)
	}
	pf, err := power.NewPlatform(
		[]power.CoreClass{{Name: "lp", Model: &lp}, {Name: "hp", Model: power.Default70nm()}},
		[]int{0, 0, 0, 1, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

// TestScheduleIntoPlatformHomogeneousParity pins the tentpole's
// behaviour-preservation contract at the kernel layer: on a single-class
// platform, ScheduleIntoPlatform must reproduce ScheduleInto byte for byte —
// same placement, same times, same per-processor lists, same finish order —
// across random graphs, priorities and release times. The last iterations
// use graphs of more than 4,096 tasks on 65 and 130 processors, so the
// ready summary and the idle bitmaps span several words.
func TestScheduleIntoPlatformHomogeneousParity(t *testing.T) {
	m := power.Default70nm()
	rng := rand.New(rand.NewSource(20260809))
	var k, kp sched.Scheduler
	var legacy, plat sched.Schedule
	for iter := 0; iter < 44; iter++ {
		size := 2 + rng.Intn(60)
		if iter >= 40 {
			size = 4100 + rng.Intn(400)
		}
		g, err := taskgen.Member(size, rng.Intn(4), rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumTasks()
		if iter >= 40 && n <= 4096 {
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
		if iter%3 == 0 {
			release = make([]int64, n)
			for v := range release {
				release[v] = int64(rng.Intn(300))
			}
		}
		nprocs := 1 + rng.Intn(8)
		if iter >= 40 {
			nprocs = []int{65, 130}[iter%2]
		}
		pf, err := power.Homogeneous(nprocs, m)
		if err != nil {
			t.Fatal(err)
		}

		if err := k.ScheduleInto(&legacy, g, nprocs, prio, release); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := kp.ScheduleIntoPlatform(&plat, g, pf, nprocs, prio, release); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if plat.Makespan != legacy.Makespan {
			t.Fatalf("iter %d: makespan %d != %d", iter, plat.Makespan, legacy.Makespan)
		}
		for v := 0; v < n; v++ {
			if plat.Proc[v] != legacy.Proc[v] || plat.Start[v] != legacy.Start[v] || plat.Finish[v] != legacy.Finish[v] {
				t.Fatalf("iter %d task %d: platform (proc %d, [%d,%d)) != legacy (proc %d, [%d,%d))",
					iter, v, plat.Proc[v], plat.Start[v], plat.Finish[v],
					legacy.Proc[v], legacy.Start[v], legacy.Finish[v])
			}
		}
		for p := 0; p < nprocs; p++ {
			gp, lp := plat.TasksOn(p), legacy.TasksOn(p)
			if len(gp) != len(lp) {
				t.Fatalf("iter %d proc %d: %d tasks != %d", iter, p, len(gp), len(lp))
			}
			for i := range lp {
				if gp[i] != lp[i] {
					t.Fatalf("iter %d proc %d slot %d: %d != %d", iter, p, i, gp[i], lp[i])
				}
			}
		}
		if !slices.Equal(plat.FinishOrder(), legacy.FinishOrder()) {
			t.Fatalf("iter %d: platform finish order diverges from legacy", iter)
		}
	}
}

// TestScheduleIntoPlatformHeterogeneousLegal runs the kernel on a genuinely
// heterogeneous platform across random graphs and checks every schedule
// against the independent platform verifier: precedence, slot exclusivity
// and the scaled per-class durations.
func TestScheduleIntoPlatformHeterogeneousLegal(t *testing.T) {
	pf := testPlatform(t)
	rng := rand.New(rand.NewSource(7))
	var k sched.Scheduler
	var s sched.Schedule
	for iter := 0; iter < 30; iter++ {
		g, err := taskgen.Member(2+rng.Intn(80), rng.Intn(4), rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		prio := sched.EDFPriorities(g, 0)
		nprocs := 1 + rng.Intn(pf.NumProcs())
		if err := k.ScheduleIntoPlatform(&s, g, pf, nprocs, prio, nil); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := verify.ScheduleWithin(g, &s, verify.ScheduleOptions{Platform: pf}); err != nil {
			t.Fatalf("iter %d: verifier rejects kernel schedule: %v", iter, err)
		}
	}
}

// TestScheduleIntoPlatformPrefersFasterFinish pins the dispatch rule: with
// one LP and one HP core both idle, a task must land on the core where it
// finishes first — the HP core, whose slot is shorter on the shared
// timeline.
func TestScheduleIntoPlatformPrefersFasterFinish(t *testing.T) {
	pf := testPlatform(t)
	hpClass := pf.RefClass()
	g := singleTask(t, 1000)
	prio := sched.EDFPriorities(g, 0)
	s, err := sched.ListSchedulePlatform(g, pf, pf.NumProcs(), prio, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := pf.ClassOf(int(s.Proc[0])); got != hpClass {
		t.Errorf("task placed on class %d, want reference class %d", got, hpClass)
	}
	if s.Finish[0] != 1000 {
		t.Errorf("reference-class slot = %d cycles, want the raw weight 1000", s.Finish[0])
	}
}

func TestScheduleIntoPlatformErrors(t *testing.T) {
	pf := testPlatform(t)
	g := singleTask(t, 10)
	prio := sched.EDFPriorities(g, 0)
	var k sched.Scheduler
	var s sched.Schedule
	if err := k.ScheduleIntoPlatform(&s, g, nil, 1, prio, nil); err == nil {
		t.Error("nil platform accepted")
	}
	if err := k.ScheduleIntoPlatform(&s, g, pf, 0, prio, nil); !errors.Is(err, sched.ErrNoProcs) {
		t.Errorf("nprocs=0: err = %v, want ErrNoProcs", err)
	}
	if err := k.ScheduleIntoPlatform(&s, g, pf, pf.NumProcs()+1, prio, nil); !errors.Is(err, sched.ErrBadPlatform) {
		t.Errorf("nprocs too large: err = %v, want ErrBadPlatform", err)
	}
	if err := k.ScheduleIntoPlatform(&s, g, pf, 1, prio[:0], nil); !errors.Is(err, sched.ErrBadPriorities) {
		t.Errorf("short priorities: err = %v, want ErrBadPriorities", err)
	}
}

// TestScheduleIntoSteadyStateZeroAllocPlatform extends the allocation gate
// to the heterogeneous kernel: once the per-class idle heaps are warm,
// ScheduleIntoPlatform must not allocate — with and without release times.
// The name deliberately contains TestScheduleIntoSteadyStateZeroAlloc so the
// Makefile's alloc-gate run pattern covers it.
func TestScheduleIntoSteadyStateZeroAllocPlatform(t *testing.T) {
	pf := testPlatform(t)
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
		if err := k.ScheduleIntoPlatform(&s, g, pf, pf.NumProcs(), prio, rel); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := k.ScheduleIntoPlatform(&s, g, pf, pf.NumProcs(), prio, rel); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state ScheduleIntoPlatform allocates %v allocs/op (release=%v)", allocs, rel != nil)
		}
	}
}
