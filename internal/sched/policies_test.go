package sched_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"lamps/internal/sched"
	"lamps/internal/verify"
)

func TestPrioritiesRegistry(t *testing.T) {
	g := buildFig4a(t)
	for _, name := range sched.Policies {
		fn, err := sched.Priorities(name, 42)
		if err != nil {
			t.Errorf("Priorities(%s): %v", name, err)
			continue
		}
		prio := fn(g)
		if len(prio) != g.NumTasks() {
			t.Errorf("%s: %d priorities for %d tasks", name, len(prio), g.NumTasks())
		}
		s, err := sched.ListSchedule(g, 2, prio)
		if err != nil {
			t.Errorf("%s: ListSchedule: %v", name, err)
			continue
		}
		if err := verify.Schedule(g, s); err != nil {
			t.Errorf("%s: invalid schedule: %v", name, err)
		}
	}
	if _, err := sched.Priorities("nope", 1); !errors.Is(err, sched.ErrUnknownPolicy) {
		t.Errorf("unknown policy err = %v", err)
	}
}

func TestPolicyOrderings(t *testing.T) {
	g := buildFig4a(t)
	lpt := sched.LPTPriorities(g)
	spt := sched.SPTPriorities(g)
	for v := 0; v < g.NumTasks(); v++ {
		if lpt[v] != -g.Weight(v) || spt[v] != g.Weight(v) {
			t.Errorf("task %d: lpt=%d spt=%d weight=%d", v, lpt[v], spt[v], g.Weight(v))
		}
	}
	// Critical-child of T1 (weights: T2=6 is its heaviest successor):
	// -(blevel(T1)=10 + 6) = -16.
	cc := sched.CriticalChildPriorities(g)
	if cc[0] != -16 {
		t.Errorf("critical-child prio of T1 = %d, want -16", cc[0])
	}
	// Sinks have no successors: -(blevel).
	if cc[4] != -2 {
		t.Errorf("critical-child prio of T5 = %d, want -2", cc[4])
	}
}

func TestRandomPrioritiesSeeded(t *testing.T) {
	g := buildFig4a(t)
	a := sched.RandomPriorities(g, 7)
	b := sched.RandomPriorities(g, 7)
	c := sched.RandomPriorities(g, 8)
	same, diff := true, false
	for v := range a {
		if a[v] != b[v] {
			same = false
		}
		if a[v] != c[v] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different priorities")
	}
	if !diff {
		t.Error("different seeds produced identical priorities (suspicious)")
	}
	// A permutation: all values distinct, within [0, n).
	seen := map[int64]bool{}
	for _, p := range a {
		if p < 0 || p >= int64(g.NumTasks()) || seen[p] {
			t.Fatalf("not a permutation: %v", a)
		}
		seen[p] = true
	}
}

// TestEDFNeverMuchWorseOnMakespan: any list policy produces a makespan
// within the classic Graham 2-1/m factor of the lower bound; check all
// policies stay within it.
func TestPropertyGrahamBound(t *testing.T) {
	f := func(seed int64, rawN, rawProcs, rawPol uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN%40) + 2
		nprocs := int(rawProcs%6) + 1
		g := randomGraph(rng, n, 0.15)
		name := sched.Policies[int(rawPol)%len(sched.Policies)]
		fn, err := sched.Priorities(name, seed)
		if err != nil {
			return false
		}
		s, err := sched.ListSchedule(g, nprocs, fn(g))
		if err != nil {
			return false
		}
		if err := verify.Schedule(g, s); err != nil {
			t.Logf("%s: %v", name, err)
			return false
		}
		lb := sched.MakespanLowerBound(g, nprocs)
		graham := float64(lb) * (2 - 1/float64(nprocs))
		if float64(s.Makespan) > graham+1e-9 {
			t.Logf("%s: makespan %d exceeds Graham bound %.1f (lb %d, m %d)",
				name, s.Makespan, graham, lb, nprocs)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
