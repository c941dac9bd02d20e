package sched_test

import (
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
