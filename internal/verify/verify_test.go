package verify

import (
	"errors"
	"strings"
	"testing"

	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/taskgen"
)

// schedule builds an LS-EDF schedule for testing, failing the test on error.
func schedule(t *testing.T, g *dag.Graph, nprocs int) *sched.Schedule {
	t.Helper()
	s, err := sched.ListSchedule(g, nprocs, sched.EDFPriorities(g, 0))
	if err != nil {
		t.Fatalf("ListSchedule(%q, %d): %v", g.Name(), nprocs, err)
	}
	return s
}

// oneClass returns the paper's identical-processor machine as a one-class
// platform of n Default70nm processors.
func oneClass(t testing.TB, n int) *power.Platform {
	t.Helper()
	pf, err := power.Homogeneous(n, power.Default70nm())
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

// member returns one suite graph, failing the test on error.
func member(t *testing.T, size, i int, seed int64) *dag.Graph {
	t.Helper()
	g, err := taskgen.Member(size, i, seed)
	if err != nil {
		t.Fatalf("taskgen.Member(%d, %d, %d): %v", size, i, seed, err)
	}
	return g
}

// TestScheduleAcceptsListSchedules: every schedule the real scheduler
// produces must pass the independent checks, across graph families, sizes
// and processor counts, with and without release times.
func TestScheduleAcceptsListSchedules(t *testing.T) {
	for i := 0; i < 24; i++ {
		g := member(t, 6+3*i, i, int64(100+i))
		for _, nprocs := range []int{1, 2, 3, g.MaxWidth()} {
			s := schedule(t, g, nprocs)
			if err := Schedule(g, s); err != nil {
				t.Fatalf("graph %d, %d procs: valid schedule rejected: %v", i, nprocs, err)
			}
			if err := ScheduleWithin(g, s, ScheduleOptions{DeadlineCycles: s.Makespan}); err != nil {
				t.Fatalf("graph %d, %d procs: deadline == makespan rejected: %v", i, nprocs, err)
			}
			rel := make([]int64, g.NumTasks())
			rs, err := sched.ListScheduleReleases(g, nprocs, sched.EDFPriorities(g, 0), rel)
			if err != nil {
				t.Fatalf("ListScheduleReleases: %v", err)
			}
			if err := ScheduleWithin(g, rs, ScheduleOptions{Release: rel}); err != nil {
				t.Fatalf("graph %d, %d procs: release schedule rejected: %v", i, nprocs, err)
			}
		}
	}
}

// TestViolationMatchesSentinel: every violation must match ErrViolation
// under errors.Is and carry a repro dump naming the offender.
func TestViolationMatchesSentinel(t *testing.T) {
	g := member(t, 12, 0, 5)
	s := schedule(t, g, 2)
	c := cloneSchedule(s)
	c.Makespan++
	err := Schedule(g, c)
	if err == nil {
		t.Fatal("corrupted makespan accepted")
	}
	if !errors.Is(err, ErrViolation) {
		t.Fatalf("violation does not match ErrViolation: %v", err)
	}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("error is not a *Violation: %v", err)
	}
	if v.Check != CheckMakespan {
		t.Fatalf("check = %q, want %q", v.Check, CheckMakespan)
	}
	if !strings.Contains(err.Error(), "makespan") || !strings.Contains(err.Error(), "schedule:") {
		t.Fatalf("error lacks detail or repro dump:\n%v", err)
	}
}

// TestScheduleRejectsShapeErrors covers the structural guards: mismatched
// array lengths, a broken processor count and malformed dispatch lists
// (here: a zero-value schedule whose lists cannot even be indexed).
func TestScheduleRejectsShapeErrors(t *testing.T) {
	g := member(t, 10, 1, 6)
	s := schedule(t, g, 2)

	short := cloneSchedule(s)
	short.Start = short.Start[:len(short.Start)-1]
	if err := Schedule(g, short); err == nil {
		t.Fatal("short Start array accepted")
	}

	noProcs := cloneSchedule(s)
	noProcs.NumProcs = 0
	if err := Schedule(g, noProcs); err == nil {
		t.Fatal("NumProcs = 0 accepted")
	}

	if err := Schedule(g, &sched.Schedule{
		Graph:    g,
		NumProcs: 1,
		Proc:     make([]int32, g.NumTasks()),
		Start:    make([]int64, g.NumTasks()),
		Finish:   make([]int64, g.NumTasks()),
	}); err == nil {
		t.Fatal("zero-value placement with no dispatch lists accepted")
	}

	if err := Schedule(nil, nil); !errors.Is(err, ErrViolation) {
		t.Fatalf("nil inputs: %v", err)
	}
}

// TestScheduleWithinTaskDeadlines: per-task deadlines accept a task
// finishing exactly at its deadline and tasks marked sched.NoDeadline,
// reject a finish one cycle late as a deadline violation, and reject a
// slice of the wrong length as a shape violation.
func TestScheduleWithinTaskDeadlines(t *testing.T) {
	g := member(t, 12, 2, 7)
	s := schedule(t, g, 2)
	dl := make([]int64, g.NumTasks())
	for v := range dl {
		dl[v] = sched.NoDeadline
	}
	dl[0] = s.Finish[0]
	if err := ScheduleWithin(g, s, ScheduleOptions{Deadlines: dl}); err != nil {
		t.Fatalf("deadline == finish rejected: %v", err)
	}
	dl[0]--
	var v *Violation
	if err := ScheduleWithin(g, s, ScheduleOptions{Deadlines: dl}); !errors.As(err, &v) || v.Check != CheckDeadline {
		t.Fatalf("finish one cycle past its deadline: err = %v, want a %q violation", err, CheckDeadline)
	}
	if err := ScheduleWithin(g, s, ScheduleOptions{Deadlines: dl[1:]}); !errors.As(err, &v) || v.Check != CheckShape {
		t.Fatalf("short deadline slice: err = %v, want a %q violation", err, CheckShape)
	}
}

// TestEnergyRejectsMissedDeadline: a deadline below the makespan must be
// rejected by the walk exactly as by the kernel, matching energy.ErrDeadline;
// with a backup plan, so must a deadline that covers the primary makespan
// but not the recovery makespan.
func TestEnergyRejectsMissedDeadline(t *testing.T) {
	g := member(t, 14, 2, 9)
	s := schedule(t, g, 2)
	pf := oneClass(t, 2)
	pt := pf.MaxPoint()
	_, err := Energy(s, pf, nil, pt, float64(s.Makespan)/pt.TimelineFreq*0.5, energy.Options{})
	if !errors.Is(err, energy.ErrDeadline) {
		t.Fatalf("missed deadline: %v", err)
	}
	plan, err := sched.PlanBackups(s, nil, sched.BackupAnywhere)
	if err != nil {
		t.Fatal(err)
	}
	between := float64(s.Makespan+plan.RecoveryMakespan) / 2 / pt.TimelineFreq
	if _, err := Energy(s, pf, nil, pt, between, energy.Options{}); err != nil {
		t.Fatalf("deadline past the primary makespan rejected without a plan: %v", err)
	}
	if _, err := Energy(s, pf, plan, pt, between, energy.Options{}); !errors.Is(err, energy.ErrDeadline) {
		t.Fatalf("deadline before the recovery makespan %d (primary %d): %v", plan.RecoveryMakespan, s.Makespan, err)
	}
}

// TestResults exercises the cross-heuristic invariants on hand-crafted
// outcomes: a consistent set passes, and each class of breakage is caught.
func TestResults(t *testing.T) {
	good := []Outcome{
		{ApproachLimitMF, true, 1.0},
		{ApproachLimitSF, true, 1.2},
		{ApproachLAMPSPS, true, 1.3},
		{ApproachLAMPS, true, 1.4},
		{ApproachSSPS, true, 1.5},
		{ApproachSS, true, 2.0},
	}
	if err := Results(good); err != nil {
		t.Fatalf("consistent outcomes rejected: %v", err)
	}
	// Ulp-level ties must pass: the comparisons carry RelTol.
	tied := []Outcome{
		{ApproachSS, true, 1.0 + 1e-13},
		{ApproachSSPS, true, 1.0},
		{ApproachLAMPS, true, 1.0 + 1e-13},
		{ApproachLAMPSPS, true, 1.0},
	}
	if err := Results(tied); err != nil {
		t.Fatalf("ulp-level ties rejected: %v", err)
	}
	// Missing approaches skip their checks.
	if err := Results([]Outcome{{ApproachSS, true, 1}}); err != nil {
		t.Fatalf("lone outcome rejected: %v", err)
	}

	bad := []struct {
		name string
		outs []Outcome
	}{
		{"limit above heuristic", []Outcome{{ApproachLimitSF, true, 3}, {ApproachLAMPSPS, true, 1}}},
		{"MF above SF", []Outcome{{ApproachLimitMF, true, 2}, {ApproachLimitSF, true, 1}}},
		{"+PS worse than base", []Outcome{{ApproachSS, true, 1}, {ApproachSSPS, true, 1.5}}},
		{"LAMPS worse than S&S", []Outcome{{ApproachSS, true, 1}, {ApproachLAMPS, true, 1.5}}},
		{"LAMPS feasible, S&S not", []Outcome{{ApproachLAMPS, true, 1}, {ApproachSS, false, 0}}},
		{"base feasible, +PS not", []Outcome{{ApproachSS, true, 1}, {ApproachSSPS, false, 0}}},
	}
	for _, tc := range bad {
		err := Results(tc.outs)
		if !errors.Is(err, ErrViolation) {
			t.Fatalf("%s: not flagged (err = %v)", tc.name, err)
		}
	}
}

// parallelGraph is a fork-join graph with enough width that every mutation
// class of the self-test is applicable on two processors.
func parallelGraph(t *testing.T) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("selftest-forkjoin")
	src := b.AddTask(40)
	mids := make([]int, 5)
	for i := range mids {
		mids[i] = b.AddTask(int64(60 + 10*i))
		b.AddEdge(src, mids[i])
	}
	sink := b.AddTask(50)
	for _, m := range mids {
		b.AddEdge(m, sink)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkSelfTestDetects requires every one of classes corruption classes to
// apply to s and be detected, PS on and off, each detection a Violation.
func checkSelfTestDetects(t *testing.T, name string, g *dag.Graph, s *sched.Schedule,
	pf *power.Platform, pt power.OperatingPoint, classes int) {
	t.Helper()
	deadline := float64(s.Makespan) / pt.TimelineFreq * 2
	for _, opts := range []energy.Options{{}, {PS: true}} {
		results, err := SelfTest(g, s, pf, pt, deadline, opts)
		if err != nil {
			t.Fatalf("%s PS=%v: %v", name, opts.PS, err)
		}
		if len(results) != classes {
			t.Fatalf("%s: %d mutation classes, want %d", name, len(results), classes)
		}
		for _, r := range results {
			if r.Skipped {
				t.Errorf("%s PS=%v: class %q not applicable", name, opts.PS, r.Class)
				continue
			}
			if !r.Detected {
				t.Errorf("%s PS=%v: corruption %q went undetected", name, opts.PS, r.Class)
				continue
			}
			if !errors.Is(r.Err, ErrViolation) {
				t.Errorf("%s PS=%v: class %q detected with a non-Violation error: %v", name, opts.PS, r.Class, r.Err)
			}
		}
	}
}

// TestSelfTestDetectsEveryClass: on a fork-join graph on two identical
// processors, where every class is applicable, every class must be detected.
func TestSelfTestDetectsEveryClass(t *testing.T) {
	g := parallelGraph(t)
	one := oneClass(t, 2)
	checkSelfTestDetects(t, "one-class fork-join", g, schedule(t, g, 2), one,
		one.Points()[power.Default70nm().CriticalLevel().Index], 10)
}

// TestSelfTestPlatformDetectsEveryClass: on a platform-kernel schedule on
// the LP/HP machine every class must apply and be detected, including the
// heterogeneity-specific class-swap, whose skip would leave the
// scaled-duration check untested.
func TestSelfTestPlatformDetectsEveryClass(t *testing.T) {
	pf := heteroPlatform(t)
	g := member(t, 40, 0, 5)
	s, err := sched.ListSchedulePlatform(g, pf, pf.NumProcs(), sched.EDFPriorities(g, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkSelfTestDetects(t, "lp/hp", g, s, pf, pf.MaxPoint(), 11)
}

// TestSelfTestRejectsBadBaseline: handing the self-test an already corrupt
// schedule must fail fast instead of reporting mutation results.
func TestSelfTestRejectsBadBaseline(t *testing.T) {
	g := parallelGraph(t)
	s := schedule(t, g, 2)
	c := cloneSchedule(s)
	c.Start[0]++
	pf := oneClass(t, 2)
	pt := pf.MaxPoint()
	if _, err := SelfTest(g, c, pf, pt, float64(s.Makespan)/pt.TimelineFreq*2, energy.Options{}); !errors.Is(err, ErrViolation) {
		t.Fatalf("corrupt baseline: %v", err)
	}
}
