package frames

import (
	"errors"
	"testing"

	"lamps/internal/power"
)

func mustAdd(t *testing.T, s *Set, task Task) {
	t.Helper()
	if err := s.Add(task); err != nil {
		t.Fatalf("Add(%+v): %v", task, err)
	}
}

func TestAddValidation(t *testing.T) {
	s := NewSet()
	cases := []Task{
		{Name: "zero wcet", WCET: 0, Period: 10},
		{Name: "zero period", WCET: 1, Period: 0},
		{Name: "negative deadline", WCET: 1, Period: 10, Deadline: -1},
		{Name: "wcet over deadline", WCET: 8, Period: 10, Deadline: 5},
	}
	for _, tc := range cases {
		if err := s.Add(tc); !errors.Is(err, ErrBadTask) {
			t.Errorf("%s: err = %v, want ErrBadTask", tc.Name, err)
		}
	}
	if s.Len() != 0 {
		t.Errorf("invalid tasks were added")
	}
	// Implicit deadline = period.
	mustAdd(t, s, Task{Name: "ok", WCET: 5, Period: 10})
	if s.tasks[0].Deadline != 10 {
		t.Errorf("implicit deadline = %d, want 10", s.tasks[0].Deadline)
	}
}

func TestHyperperiodAndUtilization(t *testing.T) {
	s := NewSet()
	mustAdd(t, s, Task{Name: "a", WCET: 2, Period: 4})
	mustAdd(t, s, Task{Name: "b", WCET: 3, Period: 6})
	h, err := s.Hyperperiod()
	if err != nil {
		t.Fatal(err)
	}
	if h != 12 {
		t.Errorf("hyperperiod = %d, want 12", h)
	}
	if u := s.Utilization(); u != 1.0 {
		t.Errorf("utilization = %g, want 1.0", u)
	}
	if _, err := NewSet().Hyperperiod(); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty set err = %v", err)
	}
}

func TestFrameDAGStructure(t *testing.T) {
	s := NewSet()
	mustAdd(t, s, Task{Name: "a", WCET: 2, Period: 4})
	mustAdd(t, s, Task{Name: "b", WCET: 3, Period: 6})
	g, rel, dl, err := s.FrameDAG()
	if err != nil {
		t.Fatal(err)
	}
	// Hyperperiod 12: 3 jobs of a, 2 jobs of b.
	if g.NumTasks() != 5 {
		t.Fatalf("NumTasks = %d, want 5", g.NumTasks())
	}
	if g.NumEdges() != 3 { // a chain: 2 edges, b chain: 1 edge
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
	wantRel := []int64{0, 4, 8, 0, 6}
	wantDl := []int64{4, 8, 12, 6, 12}
	for v := range wantRel {
		if rel[v] != wantRel[v] {
			t.Errorf("release[%d] = %d, want %d", v, rel[v], wantRel[v])
		}
		if dl[v] != wantDl[v] {
			t.Errorf("deadline[%d] = %d, want %d", v, dl[v], wantDl[v])
		}
	}
	if g.Label(1) != "a#1" || g.Label(4) != "b#1" {
		t.Errorf("labels wrong: %q %q", g.Label(1), g.Label(4))
	}
}

func TestScheduleSimplePeriodicSet(t *testing.T) {
	m := power.Default70nm()
	// Two tasks at 30% utilization each with millisecond-scale periods
	// (coarse enough for shutdown to matter).
	s := NewSet()
	mustAdd(t, s, Task{Name: "ctrl", WCET: 930_000, Period: 3_100_000})
	mustAdd(t, s, Task{Name: "io", WCET: 1_860_000, Period: 6_200_000})
	plan, err := s.Schedule(m, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumProcs < 1 {
		t.Errorf("NumProcs = %d", plan.NumProcs)
	}
	if plan.EnergyJ <= 0 {
		t.Errorf("EnergyJ = %g", plan.EnergyJ)
	}
	// The chosen level's utilization must fit the chosen processor count.
	if u := s.Utilization() * m.FMax() / plan.Level.Freq; u > float64(plan.NumProcs)+1e-4 {
		t.Errorf("chosen level overloads %d processors: scaled utilization %g", plan.NumProcs, u)
	}
	// The unrestricted plan can only improve on a forced single processor —
	// and for this set it genuinely does: two processors near the critical
	// frequency beat one processor forced to run at 0.6 f_max (the paper's
	// core multiprocessor insight, reproduced in the periodic model).
	one, err := s.Schedule(m, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.EnergyJ > one.EnergyJ*(1+1e-9) {
		t.Errorf("unrestricted plan %g J worse than 1-proc plan %g J", plan.EnergyJ, one.EnergyJ)
	}
	// PS cannot lose against no-PS.
	noPS, err := s.Schedule(m, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.EnergyJ > noPS.EnergyJ*(1+1e-9) {
		t.Errorf("PS plan %g J worse than no-PS %g J", plan.EnergyJ, noPS.EnergyJ)
	}
}

func TestScheduleRespectsReleasesAndDeadlines(t *testing.T) {
	m := power.Default70nm()
	s := NewSet()
	mustAdd(t, s, Task{Name: "a", WCET: 1_000_000, Period: 4_000_000})
	mustAdd(t, s, Task{Name: "b", WCET: 2_000_000, Period: 8_000_000, Deadline: 5_000_000})
	plan, err := s.Schedule(m, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Level.Index == 0 {
		t.Fatalf("plan runs at f_max, where level cycles and f_max cycles coincide; the case does not test the conversion")
	}
	checkWallClock(t, s, m, plan)
}

// checkWallClock checks plan's windows in wall-clock seconds, apart from
// the search's own window conversion: every job starts no earlier than its
// release and finishes by its absolute deadline and by the end of the
// frame. The schedule is in cycles at the plan's level and the windows in
// cycles at f_max; every figure is below 2^53, so exact as a float64, and
// correctly rounded division is monotone, so the float comparisons hold
// exactly when the real-valued ones do.
func checkWallClock(t *testing.T, s *Set, m *power.Model, plan *Plan) {
	t.Helper()
	_, rel, dl, err := s.FrameDAG()
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Hyperperiod()
	if err != nil {
		t.Fatal(err)
	}
	sc, f, fmax := plan.Schedule, plan.Level.Freq, m.FMax()
	for v := range rel {
		start, finish := float64(sc.Start[v])/f, float64(sc.Finish[v])/f
		if start < float64(rel[v])/fmax {
			t.Fatalf("job %d starts at %gs before its release %gs", v, start, float64(rel[v])/fmax)
		}
		if finish > float64(dl[v])/fmax {
			t.Fatalf("job %d finishes at %gs after its deadline %gs", v, finish, float64(dl[v])/fmax)
		}
		if finish > float64(h)/fmax {
			t.Fatalf("job %d finishes at %gs after the frame ends at %gs", v, finish, float64(h)/fmax)
		}
	}
}

func TestScheduleInfeasible(t *testing.T) {
	m := power.Default70nm()
	s := NewSet()
	// A task that cannot fit even at fmax: WCET = deadline, but two of them
	// on one processor with MaxProcs 1 and overlapping windows.
	mustAdd(t, s, Task{Name: "x", WCET: 10, Period: 10})
	mustAdd(t, s, Task{Name: "y", WCET: 10, Period: 10})
	if _, err := s.Schedule(m, false, 1); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
	// Two processors make it trivially feasible at fmax.
	plan, err := s.Schedule(m, false, 2)
	if err != nil {
		t.Fatalf("2-proc schedule: %v", err)
	}
	if plan.NumProcs != 2 || plan.Level.Index != 0 {
		t.Errorf("plan = %d procs at %v, want 2 procs at fmax", plan.NumProcs, plan.Level)
	}
	if _, err := NewSet().Schedule(m, false, 0); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty set err = %v", err)
	}
}

func TestHyperperiodOverflow(t *testing.T) {
	s := NewSet()
	// Large co-prime periods blow the hyperperiod past the guard.
	primes := []int64{1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117, 1000121}
	for _, p := range primes {
		mustAdd(t, s, Task{Name: "p", WCET: 1, Period: p})
	}
	if _, err := s.Hyperperiod(); !errors.Is(err, ErrTooLarge) {
		t.Errorf("hyperperiod overflow: err = %v, want ErrTooLarge", err)
	}
}

// TestFrameJobLimit: periods 10007, 10009 and 10037 have a hyperperiod of
// 1,005,306,552,331 cycles, below 2^53, yet it holds 301,060,655 jobs.
// Both frame entry points must refuse the set from its periods alone,
// without building any of the frame DAG.
func TestFrameJobLimit(t *testing.T) {
	s := NewSet()
	for _, p := range []int64{10007, 10009, 10037} {
		mustAdd(t, s, Task{Name: "p", WCET: 1, Period: p})
	}
	if h, err := s.Hyperperiod(); err != nil || h != 1_005_306_552_331 {
		t.Fatalf("Hyperperiod = %d, %v; want 1005306552331", h, err)
	}
	m := power.Default70nm()
	allocs := testing.AllocsPerRun(1, func() {
		if _, _, _, err := s.FrameDAG(); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("FrameDAG: err = %v, want ErrTooLarge", err)
		}
		if _, err := s.Schedule(m, true, 0); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("Schedule: err = %v, want ErrTooLarge", err)
		}
	})
	if allocs > 20 {
		t.Errorf("refusing the set took %.0f allocations; the frame DAG was started", allocs)
	}
}
