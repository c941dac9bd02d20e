package energy

import (
	"errors"
	"testing"

	"lamps/internal/dag"
	"lamps/internal/power"
	"lamps/internal/sched"
)

// Edge-case tables for Evaluate/GapProfile: the degenerate schedules that
// the random property tests hit only by luck — empty graphs, a single task,
// zero slack, one processor — with expected breakdowns hand-computed from
// the model's own formulas and compared bit-for-bit (==, not approx).

func singleTaskGraph(t *testing.T, w int64) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("single")
	b.AddTask(w)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func chainGraph(t *testing.T, weights ...int64) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("chain")
	for _, w := range weights {
		b.AddTask(w)
	}
	for i := 0; i+1 < len(weights); i++ {
		b.AddEdge(i, i+1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func forkJoinGraph(t *testing.T) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("forkjoin")
	b.AddTask(1_000_000)
	for _, w := range []int64{4_000_000, 2_500_000, 6_100_000} {
		b.AddTask(w)
	}
	b.AddTask(900_000)
	for mid := 1; mid <= 3; mid++ {
		b.AddEdge(0, mid)
		b.AddEdge(mid, 4)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEdgeEmptyGraphUnrepresentable: an empty schedule cannot exist — the
// dag builder refuses to build a graph with no tasks, so Evaluate never
// sees one. This pins the invariant the kernels rely on.
func TestEdgeEmptyGraphUnrepresentable(t *testing.T) {
	_, err := dag.NewBuilder("empty").Build()
	if !errors.Is(err, dag.ErrEmpty) {
		t.Fatalf("empty builder: err = %v, want dag.ErrEmpty", err)
	}
}

// TestEdgeSingleTask: one task, with and without spare processors. The
// breakdown must match the model formulas exactly, and processors that run
// nothing must contribute nothing — the 4-processor machine's breakdown is
// bit-identical to the 1-processor one.
func TestEdgeSingleTask(t *testing.T) {
	m := power.Default70nm()
	const w = int64(3_100_000)
	g := singleTaskGraph(t, w)

	for _, lvl := range m.Levels() {
		for _, slack := range []float64{1, 2.5, 40} {
			for _, ps := range []bool{false, true} {
				deadline := float64(w) / lvl.Freq * slack

				var got [2]Breakdown
				for i, nprocs := range []int{1, 4} {
					s, err := sched.ListEDF(g, nprocs)
					if err != nil {
						t.Fatal(err)
					}
					got[i], err = Evaluate(s, m, lvl, deadline, Options{PS: ps})
					if err != nil {
						t.Fatalf("lvl %d slack %g ps=%v procs=%d: %v", lvl.Index, slack, ps, nprocs, err)
					}
				}
				if got[0] != got[1] {
					t.Fatalf("lvl %d slack %g ps=%v: unemployed processors changed the breakdown:\n1p: %v\n4p: %v",
						lvl.Index, slack, ps, got[0], got[1])
				}

				// Hand computation with the kernel's exact conversions: a
				// single trailing gap of horizon-w cycles on one employed
				// processor, slept through iff PS is on and the gap exceeds
				// the break-even time.
				var want Breakdown
				want.ActiveTime = float64(w) / lvl.Freq
				want.Active = want.ActiveTime * m.LevelPower(lvl)
				horizon := int64(deadline * lvl.Freq)
				if horizon < w {
					horizon = w
				}
				gap := horizon - w
				if ps && float64(gap)/lvl.Freq > m.BreakevenTime(lvl) {
					want.SleepTime = float64(gap) / lvl.Freq
					want.Sleep = want.SleepTime * m.PSleep
					want.Shutdowns = 1
					want.Overhead = m.EOverhead
				} else {
					want.IdleTime = float64(gap) / lvl.Freq
					want.Idle = want.IdleTime * m.IdlePower(lvl)
				}
				if got[0] != want {
					t.Fatalf("lvl %d slack %g ps=%v:\ngot  %+v\nwant %+v", lvl.Index, slack, ps, got[0], want)
				}
			}
		}
	}
}

// TestEdgeZeroSlack: deadline exactly equal to the stretched makespan of a
// gap-free chain. There is no idle time, no sleep, no shutdown — the total
// is purely active energy, identically with and without PS.
func TestEdgeZeroSlack(t *testing.T) {
	m := power.Default70nm()
	g := chainGraph(t, 2_000_000, 5_000_000, 1_300_000)
	for _, nprocs := range []int{1, 2} {
		s, err := sched.ListEDF(g, nprocs)
		if err != nil {
			t.Fatal(err)
		}
		for _, lvl := range m.Levels() {
			deadline := float64(s.Makespan) / lvl.Freq
			var breakdowns []Breakdown
			for _, opts := range []Options{{}, {PS: true}} {
				b, err := Evaluate(s, m, lvl, deadline, opts)
				if err != nil {
					t.Fatalf("procs=%d lvl %d opts=%+v: %v", nprocs, lvl.Index, opts, err)
				}
				breakdowns = append(breakdowns, b)
			}
			want := Breakdown{
				ActiveTime: float64(s.Makespan) / lvl.Freq,
			}
			want.Active = want.ActiveTime * m.LevelPower(lvl)
			for i, b := range breakdowns {
				if b != want {
					t.Fatalf("procs=%d lvl %d variant %d: zero-slack chain has non-active energy:\ngot  %+v\nwant %+v",
						nprocs, lvl.Index, i, b, want)
				}
			}
		}
	}
}

// TestEdgeOneProcDegenerate: on one processor a list schedule is
// back-to-back, so the only gap is the trailing one. Exact expected
// breakdown across all levels, PS on.
func TestEdgeOneProcDegenerate(t *testing.T) {
	m := power.Default70nm()
	g := forkJoinGraph(t)
	s, err := sched.ListEDF(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != g.TotalWork() {
		t.Fatalf("1-proc schedule has internal gaps: makespan %d, total work %d", s.Makespan, g.TotalWork())
	}
	for _, lvl := range m.Levels() {
		deadline := float64(s.Makespan) / lvl.Freq * 3
		got, err := Evaluate(s, m, lvl, deadline, Options{PS: true})
		if err != nil {
			t.Fatalf("lvl %d: %v", lvl.Index, err)
		}
		var want Breakdown
		want.ActiveTime = float64(s.Makespan) / lvl.Freq
		want.Active = want.ActiveTime * m.LevelPower(lvl)
		horizon := int64(deadline * lvl.Freq)
		if horizon < s.Makespan {
			horizon = s.Makespan
		}
		gap := horizon - s.Makespan
		if ps := float64(gap)/lvl.Freq > m.BreakevenTime(lvl); ps {
			want.SleepTime = float64(gap) / lvl.Freq
			want.Sleep = want.SleepTime * m.PSleep
			want.Shutdowns = 1
			want.Overhead = m.EOverhead
		} else {
			want.IdleTime = float64(gap) / lvl.Freq
			want.Idle = want.IdleTime * m.IdlePower(lvl)
		}
		if got != want {
			t.Fatalf("lvl %d:\ngot  %+v\nwant %+v", lvl.Index, got, want)
		}
	}
}

// TestEdgeDeadlineBelowMakespan: both the one-shot Evaluate and a reused
// GapProfile reject a deadline the schedule cannot meet, with ErrDeadline.
func TestEdgeDeadlineBelowMakespan(t *testing.T) {
	m := power.Default70nm()
	s, err := sched.ListEDF(forkJoinGraph(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	lvl := m.MaxLevel()
	deadline := float64(s.Makespan) / lvl.Freq * 0.999
	if _, err := Evaluate(s, m, lvl, deadline, Options{}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Evaluate below makespan: err = %v, want ErrDeadline", err)
	}
	p := NewGapProfile(s)
	if _, err := p.Evaluate(m, lvl, deadline, Options{PS: true}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("GapProfile below makespan: err = %v, want ErrDeadline", err)
	}
	// A non-positive deadline is just a harder miss, not a panic.
	if _, err := Evaluate(s, m, lvl, 0, Options{}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Evaluate at deadline 0: err = %v, want ErrDeadline", err)
	}
}

// TestEdgeGapProfileReuse: one GapProfile Reset across different schedules
// must keep producing breakdowns bit-identical to fresh one-shot Evaluate
// calls, for every level and accounting variant.
func TestEdgeGapProfileReuse(t *testing.T) {
	m := power.Default70nm()
	var schedules []*sched.Schedule
	for _, nprocs := range []int{1, 2, 3} {
		s, err := sched.ListEDF(forkJoinGraph(t), nprocs)
		if err != nil {
			t.Fatal(err)
		}
		schedules = append(schedules, s)
	}
	c, err := sched.ListEDF(chainGraph(t, 700_000, 900_000), 2)
	if err != nil {
		t.Fatal(err)
	}
	schedules = append(schedules, c)

	var p GapProfile
	for si, s := range schedules {
		p.Reset(s)
		for _, lvl := range m.Levels() {
			for _, opts := range []Options{{}, {PS: true}} {
				deadline := float64(s.Makespan) / lvl.Freq * 1.8
				want, err1 := Evaluate(s, m, lvl, deadline, opts)
				got, err2 := p.Evaluate(m, lvl, deadline, opts)
				if err1 != nil || err2 != nil {
					t.Fatalf("schedule %d lvl %d: errors %v / %v", si, lvl.Index, err1, err2)
				}
				if got != want {
					t.Fatalf("schedule %d lvl %d opts=%+v: reused profile diverged:\ngot  %+v\nwant %+v",
						si, lvl.Index, opts, got, want)
				}
			}
		}
	}
}
