package sched_test

import (
	"math/rand"
	"testing"

	"lamps/internal/sched"
	"lamps/internal/taskgen"
	"lamps/internal/verify"
)

// TestListScheduleProperties exercises ListSchedule on randomly generated
// graphs from every taskgen family and asserts the structural invariants
// every list schedule must satisfy:
//
//   - verify.Schedule: every task placed once, per-processor intervals do
//     not overlap, durations equal weights, precedence holds, makespan is
//     the maximum finish time.
//   - Makespan >= MakespanLowerBound (max of CPL and ceil(W/nprocs)).
//   - Work conservation: total busy time equals the graph's total work.
//   - Work conservation per processor count: a work-conserving scheduler on
//     one processor has makespan exactly W.
//
// The test is an external-package test so it can use taskgen (which depends
// only on dag) without an import cycle.
func TestListScheduleProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for iter := 0; iter < 40; iter++ {
		size := 2 + rng.Intn(60)
		family := rng.Intn(4)
		seed := rng.Int63()
		g, err := taskgen.Member(size, family, seed)
		if err != nil {
			t.Fatalf("iter %d: generate(size=%d, family=%d, seed=%d): %v",
				iter, size, family, seed, err)
		}
		for _, nprocs := range []int{1, 2, 1 + rng.Intn(8), g.MaxWidth()} {
			s, err := sched.ListEDF(g, nprocs)
			if err != nil {
				t.Fatalf("%s on %d procs: %v", g.Name(), nprocs, err)
			}
			if err := verify.Schedule(g, s); err != nil {
				t.Fatalf("%s on %d procs: invalid schedule: %v", g.Name(), nprocs, err)
			}
			if lb := sched.MakespanLowerBound(g, nprocs); s.Makespan < lb {
				t.Errorf("%s on %d procs: makespan %d below lower bound %d",
					g.Name(), nprocs, s.Makespan, lb)
			}
			var busy int64
			for v := 0; v < g.NumTasks(); v++ {
				busy += s.Finish[v] - s.Start[v]
			}
			if busy != g.TotalWork() {
				t.Errorf("%s on %d procs: busy %d != total work %d",
					g.Name(), nprocs, busy, g.TotalWork())
			}
			if nprocs == 1 && s.Makespan != g.TotalWork() {
				t.Errorf("%s on 1 proc: makespan %d != total work %d (not work-conserving)",
					g.Name(), s.Makespan, g.TotalWork())
			}
		}
	}
}

// TestListScheduleReleasesProperties adds random release times and asserts
// the release constraint on top of the structural invariants, plus
// insensitivity of the invariants to the priority policy (random
// priorities must still yield a valid work-conserving schedule).
func TestListScheduleReleasesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 25; iter++ {
		size := 2 + rng.Intn(40)
		g, err := taskgen.Member(size, rng.Intn(4), rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumTasks()
		release := make([]int64, n)
		prio := make([]int64, n)
		for v := 0; v < n; v++ {
			release[v] = int64(rng.Intn(200))
			prio[v] = rng.Int63n(1000) - 500
		}
		nprocs := 1 + rng.Intn(6)
		s, err := sched.ListScheduleReleases(g, nprocs, prio, release)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := verify.ScheduleWithin(g, s, verify.ScheduleOptions{Release: release}); err != nil {
			t.Fatalf("iter %d: invalid schedule: %v", iter, err)
		}
		if lb := sched.MakespanLowerBound(g, nprocs); s.Makespan < lb {
			t.Errorf("iter %d: makespan %d below lower bound %d", iter, s.Makespan, lb)
		}
	}
}
