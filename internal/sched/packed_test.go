package sched_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lamps/internal/power"
	"lamps/internal/sched"
)

// TestPackUnpackRoundTrip: a packed kernel schedule unpacks into a reused
// shell byte for byte — placement, times, makespan, finish order and
// per-processor lists — on one class and on two, at processor counts that
// take each narrowed processor width (8, 16 and 32 bits).
func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	wide := make([]int, 300)
	for p := range wide {
		wide[p] = p % 2
	}
	lp := *power.Default70nm()
	lp.VddMax = 0.85
	if err := lp.Build(); err != nil {
		t.Fatal(err)
	}
	classes := []power.CoreClass{{Name: "lp", Model: &lp}, {Name: "hp", Model: power.Default70nm()}}
	two, err := power.NewPlatform(classes, []int{0, 0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	twoWide, err := power.NewPlatform(classes, wide)
	if err != nil {
		t.Fatal(err)
	}
	huge, err := power.Homogeneous(1<<16+1, power.Default70nm())
	if err != nil {
		t.Fatal(err)
	}
	var k sched.Scheduler
	var shell sched.Schedule
	for _, c := range []struct {
		pf     *power.Platform
		tasks  int
		edgeP  float64
		nprocs int
	}{
		{oneClassPlatform(t, 8), 60, 0.05, 3},
		{two, 60, 0.05, two.NumProcs()},
		{twoWide, 400, 0, 300}, // independent tasks: processors past 255 run some
		{huge, 50, 0.05, huge.NumProcs()},
	} {
		g := randomGraph(rng, c.tasks, c.edgeP)
		s, err := sched.ListSchedulePlatform(g, c.pf, c.nprocs, sched.EDFPriorities(g, 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		k.Unpack(&shell, g, c.pf, sched.Pack(s))
		if !reflect.DeepEqual(&shell, s) {
			t.Errorf("%d tasks on %d of %v: unpacked schedule differs from the kernel's", c.tasks, c.nprocs, c.pf)
		}
	}
}

func oneClassPlatform(t *testing.T, n int) *power.Platform {
	t.Helper()
	pf, err := power.Homogeneous(n, power.Default70nm())
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

// TestPackPlanUnpackRoundTrip: a packed backup plan unpacks into one reused
// scratch plan equal to the planner's output — processors, times, recovery
// makespan, policy and the BackupsOn index — under both policies, on one
// class and on two, with task numbers that take the 8- and 16-bit widths;
// and Restore returns an equal plan that shares no array with the scratch.
func TestPackPlanUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	lp := *power.Default70nm()
	lp.VddMax = 0.85
	if err := lp.Build(); err != nil {
		t.Fatal(err)
	}
	two, err := power.NewPlatform([]power.CoreClass{{Name: "lp", Model: &lp}, {Name: "hp", Model: power.Default70nm()}},
		[]int{0, 0, 0, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	var scratch sched.BackupPlan
	for _, c := range []struct {
		pf     *power.Platform
		tasks  int
		nprocs int
	}{
		{nil, 40, 3},
		{oneClassPlatform(t, 8), 300, 5},
		{two, 60, two.NumProcs()},
		{two, 400, 4},
	} {
		g := randomGraph(rng, c.tasks, 0.05)
		var s *sched.Schedule
		if c.pf == nil {
			s, err = sched.ListScheduleReleases(g, c.nprocs, sched.EDFPriorities(g, 0), nil)
		} else {
			s, err = sched.ListSchedulePlatform(g, c.pf, c.nprocs, sched.EDFPriorities(g, 0), nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []sched.FaultPolicy{sched.BackupAnywhere, sched.PrimaryHPBackupLP} {
			want, err := sched.PlanBackups(s, c.pf, policy)
			if err != nil {
				t.Fatal(err)
			}
			p := sched.PackPlan(want)
			perTask := int64(10) // start and a 16-bit task number
			if c.tasks <= 256 {
				perTask = 9
			}
			if got, want := p.Bytes(), 144+perTask*int64(c.tasks)+4*int64(c.nprocs+1); got != want {
				t.Errorf("%d tasks on %d procs: packed plan charges %d bytes, want %d", c.tasks, c.nprocs, got, want)
			}
			p.Unpack(&scratch, g, c.pf)
			name := fmt.Sprintf("%d tasks on %d procs of %v, %s", c.tasks, c.nprocs, c.pf, policy)
			if !reflect.DeepEqual(&scratch, want) {
				t.Errorf("%s: unpacked plan differs from the planner's", name)
			}
			if p.RecoveryMakespan() != want.RecoveryMakespan {
				t.Errorf("%s: packed recovery makespan %d, want %d", name, p.RecoveryMakespan(), want.RecoveryMakespan)
			}
			kept := p.Restore(g, c.pf)
			if !reflect.DeepEqual(kept, want) {
				t.Errorf("%s: restored plan differs from the planner's", name)
			}
			kept.Start[0]++
			if p.Unpack(&scratch, g, c.pf); !reflect.DeepEqual(&scratch, want) || kept.Start[0] == scratch.Start[0] {
				t.Errorf("%s: a restored plan shares arrays with the scratch, or editing it changed the packed plan", name)
			}
		}
	}
}
