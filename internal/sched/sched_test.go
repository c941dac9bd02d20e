package sched_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lamps/internal/dag"
	"lamps/internal/sched"
	"lamps/internal/verify"
)

// buildFig4a constructs the paper's running example (Fig. 4a): weights
// T1=2, T2=6, T3=4, T4=4, T5=2, edges T1->{T2,T3,T4}, {T2,T3}->T5.
func buildFig4a(t testing.TB) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("fig4a")
	t1 := b.AddLabeledTask(2, "T1")
	t2 := b.AddLabeledTask(6, "T2")
	t3 := b.AddLabeledTask(4, "T3")
	t4 := b.AddLabeledTask(4, "T4")
	t5 := b.AddLabeledTask(2, "T5")
	b.AddEdge(t1, t2)
	b.AddEdge(t1, t3)
	b.AddEdge(t1, t4)
	b.AddEdge(t2, t5)
	b.AddEdge(t3, t5)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// TestFig4bSchedule reproduces the EDF schedule of Fig. 4b: on three
// processors the makespan equals the critical path length (10 cycles).
func TestFig4bSchedule(t *testing.T) {
	g := buildFig4a(t)
	s, err := sched.ListEDF(g, 3)
	if err != nil {
		t.Fatalf("sched.ListEDF: %v", err)
	}
	if err := verify.Schedule(g, s); err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 10 {
		t.Errorf("makespan = %d, want 10 (the CPL)", s.Makespan)
	}
	// T1 runs first and alone; T2, T3, T4 run concurrently after it.
	if s.Start[0] != 0 || s.Finish[0] != 2 {
		t.Errorf("T1 interval = [%d,%d), want [0,2)", s.Start[0], s.Finish[0])
	}
	for _, v := range []int{1, 2, 3} {
		if s.Start[v] != 2 {
			t.Errorf("T%d starts at %d, want 2", v+1, s.Start[v])
		}
	}
	// T5 starts when both T2 and T3 are done.
	if s.Start[4] != 8 || s.Finish[4] != 10 {
		t.Errorf("T5 interval = [%d,%d), want [8,10)", s.Start[4], s.Finish[4])
	}
}

// TestFig7aTwoProcessors reproduces the LAMPS observation of Fig. 7a: the
// same graph scheduled on only two processors still achieves the CPL
// makespan of 10 cycles.
func TestFig7aTwoProcessors(t *testing.T) {
	g := buildFig4a(t)
	s, err := sched.ListEDF(g, 2)
	if err != nil {
		t.Fatalf("sched.ListEDF: %v", err)
	}
	if err := verify.Schedule(g, s); err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 10 {
		t.Errorf("makespan on 2 procs = %d, want 10", s.Makespan)
	}
	if s.ProcsUsed() != 2 {
		t.Errorf("ProcsUsed = %d, want 2", s.ProcsUsed())
	}
}

func TestSingleProcessorNoIdle(t *testing.T) {
	g := buildFig4a(t)
	s, err := sched.ListEDF(g, 1)
	if err != nil {
		t.Fatalf("sched.ListEDF: %v", err)
	}
	if s.Makespan != g.TotalWork() {
		t.Errorf("1-proc makespan = %d, want total work %d", s.Makespan, g.TotalWork())
	}
	var cursor int64
	for _, v := range s.TasksOn(0) {
		if s.Start[v] != cursor {
			t.Errorf("1-proc schedule idles over [%d, %d) before task %d", cursor, s.Start[v], v)
		}
		cursor = s.Finish[v]
	}
}

func TestUnusedProcessorsContributeNoGaps(t *testing.T) {
	b := dag.NewBuilder("tiny")
	b.AddTask(5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListEDF(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.ProcsUsed() != 1 {
		t.Fatalf("ProcsUsed = %d, want 1", s.ProcsUsed())
	}
	for p := 1; p < s.NumProcs; p++ {
		if tasks := s.TasksOn(p); len(tasks) != 0 {
			t.Errorf("unused processor %d lists tasks %v", p, tasks)
		}
	}
}

func TestErrNoProcs(t *testing.T) {
	g := buildFig4a(t)
	if _, err := sched.ListEDF(g, 0); !errors.Is(err, sched.ErrNoProcs) {
		t.Errorf("err = %v, want sched.ErrNoProcs", err)
	}
	if _, err := sched.ListEDF(g, -2); !errors.Is(err, sched.ErrNoProcs) {
		t.Errorf("err = %v, want sched.ErrNoProcs", err)
	}
}

func TestBadPriorityLength(t *testing.T) {
	g := buildFig4a(t)
	if _, err := sched.ListSchedule(g, 2, []int64{1, 2}); !errors.Is(err, sched.ErrBadPriorities) {
		t.Errorf("err = %v, want sched.ErrBadPriorities", err)
	}
	// A wrong-length priority slice must not be conflated with a wrong-length
	// deadline slice: API layers map the two onto different error messages.
	if _, err := sched.ListSchedule(g, 2, []int64{1, 2}); errors.Is(err, sched.ErrBadDeadlines) {
		t.Errorf("err = %v unexpectedly wraps sched.ErrBadDeadlines", err)
	}
	// sched.ListEDFWithDeadlines takes a *deadline* slice, so its length error stays
	// sched.ErrBadDeadlines.
	if _, err := sched.ListEDFWithDeadlines(g, 2, []int64{1}); !errors.Is(err, sched.ErrBadDeadlines) {
		t.Errorf("err = %v, want sched.ErrBadDeadlines", err)
	}
}

func TestEDFPrioritiesOrdering(t *testing.T) {
	g := buildFig4a(t)
	prio := sched.EDFPriorities(g, 15)
	// d(v) = D - (blevel - w): T1: 15-8=7, T2: 15-2=13, T3: 15-2=13,
	// T4: 15-0=15, T5: 15-0=15.
	want := []int64{7, 13, 13, 15, 15}
	for v, w := range want {
		if prio[v] != w {
			t.Errorf("prio[%d] = %d, want %d", v, prio[v], w)
		}
	}
}

func TestDeadlinePriorities(t *testing.T) {
	// Chain a(3) -> b(2) -> c(4); only c has an explicit deadline of 20.
	b := dag.NewBuilder("chain")
	a := b.AddTask(3)
	bb := b.AddTask(2)
	c := b.AddTask(4)
	b.AddEdge(a, bb)
	b.AddEdge(bb, c)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dl := []int64{sched.NoDeadline, sched.NoDeadline, 20}
	eff, err := sched.DeadlinePriorities(g, dl)
	if err != nil {
		t.Fatal(err)
	}
	// c must finish by 20, so b by 20-4=16, so a by 16-2=14.
	want := []int64{14, 16, 20}
	for v := range want {
		if eff[v] != want[v] {
			t.Errorf("eff[%d] = %d, want %d", v, eff[v], want[v])
		}
	}
	// A task with both an explicit deadline and a tighter derived one keeps
	// the minimum.
	dl2 := []int64{10, sched.NoDeadline, 20}
	eff2, err := sched.DeadlinePriorities(g, dl2)
	if err != nil {
		t.Fatal(err)
	}
	if eff2[0] != 10 {
		t.Errorf("explicit tighter deadline not kept: %d", eff2[0])
	}
}

func TestDeadlinePrioritiesNoDeadlineAnywhere(t *testing.T) {
	g := buildFig4a(t)
	dl := []int64{sched.NoDeadline, sched.NoDeadline, sched.NoDeadline, sched.NoDeadline, sched.NoDeadline}
	eff, err := sched.DeadlinePriorities(g, dl)
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range eff {
		if d != sched.NoDeadline {
			t.Errorf("eff[%d] = %d, want sched.NoDeadline", v, d)
		}
	}
}

func TestFIFOPriorities(t *testing.T) {
	g := buildFig4a(t)
	p := sched.FIFOPriorities(g)
	for v := range p {
		if p[v] != int64(v) {
			t.Errorf("FIFO prio[%d] = %d", v, p[v])
		}
	}
	s, err := sched.ListSchedule(g, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Schedule(g, s); err != nil {
		t.Errorf("FIFO schedule invalid: %v", err)
	}
}

func TestScheduleString(t *testing.T) {
	g := buildFig4a(t)
	s, err := sched.ListEDF(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := s.String()
	for _, want := range []string{"P0:", "P1:", "T1[0,2)", "makespan 10"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestMakespanLowerBound(t *testing.T) {
	g := buildFig4a(t)
	// CPL=10, W=18.
	tests := []struct {
		nprocs int
		want   int64
	}{
		{1, 18},
		{2, 10}, // ceil(18/2)=9 < CPL
		{3, 10},
		{100, 10},
	}
	for _, tc := range tests {
		if got := sched.MakespanLowerBound(g, tc.nprocs); got != tc.want {
			t.Errorf("sched.MakespanLowerBound(%d) = %d, want %d", tc.nprocs, got, tc.want)
		}
	}
}

// randomGraph builds a seeded random DAG for property tests.
func randomGraph(rng *rand.Rand, n int, p float64) *dag.Graph {
	b := dag.NewBuilder("prop")
	for i := 0; i < n; i++ {
		b.AddTask(int64(rng.Intn(100) + 1))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(i, j)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestPropertyScheduleValidity(t *testing.T) {
	f := func(seed int64, rawN, rawP, rawProcs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN%50) + 1
		p := float64(rawP%40) / 100
		nprocs := int(rawProcs%8) + 1
		g := randomGraph(rng, n, p)
		s, err := sched.ListEDF(g, nprocs)
		if err != nil {
			return false
		}
		if err := verify.Schedule(g, s); err != nil {
			t.Logf("invalid schedule: %v", err)
			return false
		}
		lb := sched.MakespanLowerBound(g, nprocs)
		if s.Makespan < lb || s.Makespan > g.TotalWork() {
			t.Logf("makespan %d outside [%d, %d]", s.Makespan, lb, g.TotalWork())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPropertyWorkConserving checks that no processor is idle at a time when
// a task was ready and unscheduled (the defining property of event-driven
// list scheduling): equivalently, whenever a gap ends with a task start, the
// started task must have a predecessor finishing exactly at the gap's end.
func TestPropertyWorkConserving(t *testing.T) {
	f := func(seed int64, rawN, rawProcs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN%40) + 2
		nprocs := int(rawProcs%4) + 2
		g := randomGraph(rng, n, 0.2)
		s, err := sched.ListEDF(g, nprocs)
		if err != nil {
			return false
		}
		for p := 0; p < nprocs; p++ {
			var cursor int64
			for _, starter := range s.TasksOn(p) {
				start := s.Start[starter]
				idle := start > cursor
				cursor = s.Finish[starter]
				if !idle {
					continue
				}
				ok := false
				for _, pred := range g.Preds(int(starter)) {
					if s.Finish[pred] == start {
						ok = true
					}
				}
				if !ok {
					t.Logf("task %d started at %d after an idle gap with no just-finished predecessor", starter, start)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMoreProcsNeverWorseMuch verifies the makespan with N procs is
// never worse than with 1 proc and at least the lower bound; strict
// monotonicity does not hold for list scheduling (anomalies), so only the
// safe bounds are asserted.
func TestPropertyMoreProcsBounds(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN%30) + 2
		g := randomGraph(rng, n, 0.15)
		m1, err := sched.ListEDF(g, 1)
		if err != nil {
			return false
		}
		for _, procs := range []int{2, 3, 5, 9} {
			mp, err := sched.ListEDF(g, procs)
			if err != nil {
				return false
			}
			if mp.Makespan > m1.Makespan {
				t.Logf("makespan with %d procs (%d) worse than 1 proc (%d)", procs, mp.Makespan, m1.Makespan)
				return false
			}
			if mp.Makespan < g.CriticalPathLength() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomGraph(rng, 60, 0.1)
	a, err := sched.ListEDF(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sched.ListEDF(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumTasks(); v++ {
		if a.Proc[v] != b.Proc[v] || a.Start[v] != b.Start[v] {
			t.Fatalf("schedule not deterministic at task %d", v)
		}
	}
}

func BenchmarkListEDF1000x8(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 1000, 0.004)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ListEDF(g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReleasesDelayStart(t *testing.T) {
	b := dag.NewBuilder("rel")
	a := b.AddTask(5)
	c := b.AddTask(5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_ = a
	rel := []int64{0, 100}
	s, err := sched.ListScheduleReleases(g, 2, sched.FIFOPriorities(g), rel)
	if err != nil {
		t.Fatal(err)
	}
	if s.Start[0] != 0 {
		t.Errorf("task 0 starts at %d, want 0", s.Start[0])
	}
	if s.Start[c] != 100 {
		t.Errorf("released task starts at %d, want 100", s.Start[c])
	}
	if s.Makespan != 105 {
		t.Errorf("makespan = %d, want 105", s.Makespan)
	}
	if err := verify.Schedule(g, s); err != nil {
		t.Error(err)
	}
}

func TestReleasesOnSuccessors(t *testing.T) {
	// a(5) -> b(5); b additionally released at 20: must start at 20, not 5.
	bb := dag.NewBuilder("rel2")
	a := bb.AddTask(5)
	c := bb.AddTask(5)
	bb.AddEdge(a, c)
	g, err := bb.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListScheduleReleases(g, 1, sched.EDFPriorities(g, 0), []int64{0, 20})
	if err != nil {
		t.Fatal(err)
	}
	if s.Start[c] != 20 || s.Makespan != 25 {
		t.Errorf("start=%d makespan=%d, want 20 and 25", s.Start[c], s.Makespan)
	}
}

func TestReleasesBadLength(t *testing.T) {
	g := buildFig4a(t)
	_, err := sched.ListScheduleReleases(g, 2, sched.EDFPriorities(g, 0), []int64{1, 2})
	if !errors.Is(err, sched.ErrBadReleases) {
		t.Errorf("err = %v, want sched.ErrBadReleases", err)
	}
	if errors.Is(err, sched.ErrBadDeadlines) || errors.Is(err, sched.ErrBadPriorities) {
		t.Errorf("err = %v wraps an unrelated sentinel", err)
	}
}

func TestPropertyReleasesRespected(t *testing.T) {
	f := func(seed int64, rawN, rawProcs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN%30) + 1
		g := randomGraph(rng, n, 0.15)
		rel := make([]int64, n)
		for v := range rel {
			rel[v] = int64(rng.Intn(500))
		}
		s, err := sched.ListScheduleReleases(g, int(rawProcs%4)+1, sched.EDFPriorities(g, 0), rel)
		if err != nil {
			return false
		}
		if err := verify.Schedule(g, s); err != nil {
			t.Log(err)
			return false
		}
		for v := 0; v < n; v++ {
			if s.Start[v] < rel[v] {
				t.Logf("task %d starts at %d before release %d", v, s.Start[v], rel[v])
				return false
			}
		}
		// Nil releases must match all-zero releases exactly.
		zero, err := sched.ListScheduleReleases(g, int(rawProcs%4)+1, sched.EDFPriorities(g, 0), make([]int64, n))
		if err != nil {
			return false
		}
		plain, err := sched.ListEDF(g, int(rawProcs%4)+1)
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if zero.Start[v] != plain.Start[v] || zero.Proc[v] != plain.Proc[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	g := buildFig4a(t)
	s, err := sched.ListEDF(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := sched.ReadJSON(&buf)
	if err != nil {
		t.Fatalf("sched.ReadJSON: %v", err)
	}
	if back.Makespan != s.Makespan || back.NumProcs != s.NumProcs {
		t.Errorf("round trip lost makespan/procs")
	}
	for v := 0; v < g.NumTasks(); v++ {
		if back.Proc[v] != s.Proc[v] || back.Start[v] != s.Start[v] || back.Finish[v] != s.Finish[v] {
			t.Errorf("task %d differs after round trip", v)
		}
		if back.Graph.Weight(v) != g.Weight(v) || back.Graph.Label(v) != g.Label(v) {
			t.Errorf("graph data lost for task %d", v)
		}
	}
}

// TestScheduleJSONRejectsCorrupt: malformed documents, and documents
// claiming more than MaxJSONProcs processors, fail in ReadJSON;
// a well-formed but illegal placement (the wrong makespan) is restored and
// then rejected by the verifier.
func TestScheduleJSONRejectsCorrupt(t *testing.T) {
	cases := []string{
		``,
		`{`,
		`{"unknown": 1}`,
		`{"name":"x","num_procs":1,"makespan_cycles":5,"tasks":[{"id":1,"weight_cycles":5,"proc":0,"start_cycles":0,"finish_cycles":5}]}`, // non-dense ids
		`{"name":"x","num_procs":1,"makespan_cycles":9,"tasks":[{"id":0,"weight_cycles":5,"proc":0,"start_cycles":0,"finish_cycles":5}]}`, // wrong makespan
		`{"name":"x","num_procs":1,"makespan_cycles":5,"tasks":[{"id":0,"weight_cycles":5,"proc":3,"start_cycles":0,"finish_cycles":5}]}`, // proc out of range
		// More processors than ReadJSON may allocate state for.
		`{"name":"x","num_procs":1000000000000000000,"makespan_cycles":5,"tasks":[{"id":0,"weight_cycles":5,"proc":0,"start_cycles":0,"finish_cycles":5}]}`,
		fmt.Sprintf(`{"name":"x","num_procs":%d,"makespan_cycles":5,"tasks":[{"id":0,"weight_cycles":5,"proc":0,"start_cycles":0,"finish_cycles":5}]}`, sched.MaxJSONProcs+1),
	}
	for i, in := range cases {
		s, err := sched.ReadJSON(strings.NewReader(in))
		if err == nil {
			err = verify.Schedule(s.Graph, s)
		}
		if err == nil {
			t.Errorf("case %d: corrupt schedule accepted", i)
		}
	}
}

func TestPropertyScheduleJSONRoundTrip(t *testing.T) {
	f := func(seed int64, rawN, rawProcs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, int(rawN%30)+1, 0.2)
		s, err := sched.ListEDF(g, int(rawProcs%5)+1)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			return false
		}
		back, err := sched.ReadJSON(&buf)
		if err != nil {
			t.Logf("sched.ReadJSON: %v", err)
			return false
		}
		return verify.Schedule(back.Graph, back) == nil && back.Makespan == s.Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEDFPrioritiesSaturates is the regression test for the wraparound bug:
// priorities computed from deadlines at either int64 extreme must saturate
// instead of wrapping, so the EDF dispatch order is never inverted.
func TestEDFPrioritiesSaturates(t *testing.T) {
	g := buildFig4a(t)

	// sched.NoDeadline (MaxInt64) is the everyday extreme: the order must match
	// the deadline-0 order exactly (priorities are shift-invariant in the
	// exact range), and no priority may have wrapped negative.
	base := sched.EDFPriorities(g, 0)
	nd := sched.EDFPriorities(g, sched.NoDeadline)
	for v := range nd {
		if nd[v] < 0 {
			t.Errorf("prio[%d] = %d wrapped negative for sched.NoDeadline", v, nd[v])
		}
		for u := range nd {
			if (base[v] < base[u]) != (nd[v] < nd[u]) {
				t.Errorf("sched.NoDeadline inverts order of tasks %d and %d", v, u)
			}
		}
	}

	// At the bottom extreme, deadline - slack would wrap positive (turning
	// the most urgent task into the least urgent); saturation clamps to
	// MinInt64 instead.
	lo := sched.EDFPriorities(g, math.MinInt64)
	for v, p := range lo {
		if p > 0 {
			t.Errorf("prio[%d] = %d wrapped positive for MinInt64 deadline", v, p)
		}
	}
}
