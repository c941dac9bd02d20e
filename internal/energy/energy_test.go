package energy

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lamps/internal/dag"
	"lamps/internal/power"
	"lamps/internal/sched"
)

func approx(got, want, rel float64) bool {
	if want == 0 {
		return math.Abs(got) < rel
	}
	return math.Abs(got-want)/math.Abs(want) < rel
}

func buildFig4a(t testing.TB) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("fig4a")
	weights := []int64{2, 6, 4, 4, 2}
	for _, w := range weights {
		b.AddTask(w)
	}
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(1, 4)
	b.AddEdge(2, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// coarse scales the Fig. 4a example so that durations are in a physically
// meaningful range (weight 1 = 3.1e6 cycles = 1 ms at fmax).
func coarseFig4a(t testing.TB) *dag.Graph {
	g := buildFig4a(t)
	s, err := g.ScaleWeights(3100000)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestActiveEnergyMatchesHandComputation(t *testing.T) {
	m := power.Default70nm()
	g := coarseFig4a(t)
	s, err := sched.ListEDF(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	lvl := m.MaxLevel()
	deadline := float64(s.Makespan) / lvl.Freq // exactly the makespan
	b, err := Evaluate(s, m, lvl, deadline, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantActive := float64(g.TotalWork()) / lvl.Freq * m.LevelPower(lvl)
	if !approx(b.Active, wantActive, 1e-12) {
		t.Errorf("Active = %g, want %g", b.Active, wantActive)
	}
	// With horizon = makespan, idle time is the interior+trailing gaps
	// inside the makespan window: 3 procs x makespan - work cycles.
	wantIdleSec := (3*float64(s.Makespan) - float64(g.TotalWork())) / lvl.Freq
	if !approx(b.IdleTime, wantIdleSec, 1e-9) {
		t.Errorf("IdleTime = %g, want %g", b.IdleTime, wantIdleSec)
	}
	if !approx(b.Idle, wantIdleSec*m.IdlePower(lvl), 1e-9) {
		t.Errorf("Idle energy inconsistent")
	}
	if b.Sleep != 0 || b.Overhead != 0 || b.Shutdowns != 0 {
		t.Errorf("PS disabled but sleep/overhead nonzero: %+v", b)
	}
	if !approx(b.Total(), b.Active+b.Idle, 1e-12) {
		t.Errorf("Total mismatch")
	}
}

func TestDeadlineViolation(t *testing.T) {
	m := power.Default70nm()
	g := coarseFig4a(t)
	s, err := sched.ListEDF(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	lvl := m.MinLevel()
	deadline := float64(s.Makespan) / m.FMax() // only feasible at fmax
	if _, err := Evaluate(s, m, lvl, deadline, Options{}); !errors.Is(err, ErrDeadline) {
		t.Errorf("err = %v, want ErrDeadline", err)
	}
}

func TestExactFitDeadlineIsFeasible(t *testing.T) {
	m := power.Default70nm()
	g := coarseFig4a(t)
	s, err := sched.ListEDF(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, lvl := range m.Levels() {
		deadline := float64(s.Makespan) / lvl.Freq
		if _, err := Evaluate(s, m, lvl, deadline, Options{}); err != nil {
			t.Errorf("exact-fit deadline infeasible at %v: %v", lvl, err)
		}
	}
}

func TestPSSleepsThroughLongGap(t *testing.T) {
	m := power.Default70nm()
	// Single task of 3.1e6 cycles, deadline 10 s: an enormous trailing gap.
	b := dag.NewBuilder("one")
	b.AddTask(3100000)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListEDF(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	lvl := m.MaxLevel()
	const deadline = 10.0
	noPS, err := Evaluate(s, m, lvl, deadline, Options{})
	if err != nil {
		t.Fatal(err)
	}
	withPS, err := Evaluate(s, m, lvl, deadline, Options{PS: true})
	if err != nil {
		t.Fatal(err)
	}
	if withPS.Shutdowns != 1 {
		t.Errorf("Shutdowns = %d, want 1", withPS.Shutdowns)
	}
	if withPS.Total() >= noPS.Total() {
		t.Errorf("PS did not help on a huge gap: %g >= %g", withPS.Total(), noPS.Total())
	}
	// Sleeping ~10s at 50µW + 483µJ overhead ~= 0.983 mJ for the gap.
	gapSec := deadline - float64(s.Makespan)/lvl.Freq
	want := gapSec*m.PSleep + m.EOverhead
	if !approx(withPS.Sleep+withPS.Overhead, want, 1e-9) {
		t.Errorf("sleep+overhead = %g, want %g", withPS.Sleep+withPS.Overhead, want)
	}
}

func TestPSKeepsShortGapIdle(t *testing.T) {
	m := power.Default70nm()
	// Two parallel tasks, one slightly shorter: a short interior gap far
	// below break-even plus trailing gaps. Deadline barely above makespan so
	// all gaps are short.
	b := dag.NewBuilder("two")
	src := b.AddTask(1000)
	a := b.AddTask(100000)
	c := b.AddTask(90000)
	b.AddEdge(src, a)
	b.AddEdge(src, c)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListEDF(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	lvl := m.MaxLevel()
	deadline := float64(s.Makespan) / lvl.Freq * 1.001
	withPS, err := Evaluate(s, m, lvl, deadline, Options{PS: true})
	if err != nil {
		t.Fatal(err)
	}
	if withPS.Shutdowns != 0 {
		t.Errorf("Shutdowns = %d, want 0 for gaps below break-even", withPS.Shutdowns)
	}
	noPS, err := Evaluate(s, m, lvl, deadline, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if withPS.Total() != noPS.Total() {
		t.Errorf("PS changed energy despite no shutdowns")
	}
}

func TestMinFeasibleLevel(t *testing.T) {
	m := power.Default70nm()
	g := coarseFig4a(t)
	s, err := sched.ListEDF(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Deadline exactly the fmax makespan: only level 0 feasible.
	d0 := float64(s.Makespan) / m.FMax()
	lvl, err := MinFeasibleLevel(s, m, d0)
	if err != nil {
		t.Fatal(err)
	}
	if lvl.Index != 0 {
		t.Errorf("level = %v, want index 0", lvl)
	}
	// Deadline 8x: a deep stretch must be chosen, and it must be feasible.
	lvl8, err := MinFeasibleLevel(s, m, 8*d0)
	if err != nil {
		t.Fatal(err)
	}
	if lvl8.Index == 0 {
		t.Errorf("8x deadline still at max level")
	}
	if float64(s.Makespan)/lvl8.Freq > 8*d0*(1+1e-12) {
		t.Errorf("chosen level misses the deadline")
	}
	// The next slower level (if any) must miss the deadline.
	if lvl8.Index+1 < len(m.Levels()) {
		slower := m.Level(lvl8.Index + 1)
		if float64(s.Makespan)/slower.Freq <= 8*d0 {
			t.Errorf("not the minimum feasible level: %v also fits", slower)
		}
	}
	// Infeasible deadline.
	if _, err := MinFeasibleLevel(s, m, d0/2); !errors.Is(err, ErrDeadline) {
		t.Errorf("err = %v, want ErrDeadline", err)
	}
	if _, err := MinFeasibleLevel(s, m, 0); !errors.Is(err, ErrDeadline) {
		t.Errorf("zero deadline err = %v, want ErrDeadline", err)
	}
}

// TestFeasibleLevels: the +PS grid on a one-class platform runs from the
// fastest level down to the minimum feasible one, and every level on it
// meets the deadline.
func TestFeasibleLevels(t *testing.T) {
	m := power.Default70nm()
	g := coarseFig4a(t)
	s, err := sched.ListEDF(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := power.Homogeneous(s.NumProcs, m)
	if err != nil {
		t.Fatal(err)
	}
	d := 4 * float64(s.Makespan) / m.FMax()
	pts := FeasiblePointsCycles(s.Makespan, pf, d)
	if len(pts) == 0 || pts[0].Index != 0 {
		t.Fatalf("FeasiblePointsCycles = %v", pts)
	}
	last := pts[len(pts)-1].Levels[0]
	if float64(s.Makespan)/last.Freq > d*(1+1e-12) {
		t.Errorf("slowest feasible level misses deadline")
	}
	minLvl, err := MinFeasibleLevel(s, m, d)
	if err != nil {
		t.Fatal(err)
	}
	if last != minLvl {
		t.Errorf("FeasiblePointsCycles last = %v, MinFeasibleLevel = %v", last, minLvl)
	}
}

func randomSchedule(rng *rand.Rand, n, nprocs int) *sched.Schedule {
	b := dag.NewBuilder("prop")
	for i := 0; i < n; i++ {
		b.AddTask(int64(rng.Intn(4000000) + 10000))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.15 {
				b.AddEdge(i, j)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	s, err := sched.ListEDF(g, nprocs)
	if err != nil {
		panic(err)
	}
	return s
}

// TestPropertyPSNeverHurts: at a fixed schedule, level and deadline,
// enabling PS can only reduce (or keep) the total energy, because each gap
// independently picks the cheaper of idle and sleep.
func TestPropertyPSNeverHurts(t *testing.T) {
	m := power.Default70nm()
	f := func(seed int64, rawN, rawProcs, rawLvl uint8, slackPct uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchedule(rng, int(rawN%20)+1, int(rawProcs%6)+1)
		lvl := m.Level(int(rawLvl) % len(m.Levels()))
		deadline := float64(s.Makespan) / lvl.Freq * (1 + float64(slackPct%200)/100)
		noPS, err1 := Evaluate(s, m, lvl, deadline, Options{})
		withPS, err2 := Evaluate(s, m, lvl, deadline, Options{PS: true})
		if err1 != nil || err2 != nil {
			return false
		}
		return withPS.Total() <= noPS.Total()*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBreakdownConsistency: all terms non-negative; time accounting
// matches the machine-seconds available; total equals the sum of parts.
func TestPropertyBreakdownConsistency(t *testing.T) {
	m := power.Default70nm()
	f := func(seed int64, rawN, rawProcs uint8, ps bool) bool {
		rng := rand.New(rand.NewSource(seed))
		nprocs := int(rawProcs%5) + 1
		s := randomSchedule(rng, int(rawN%25)+1, nprocs)
		lvl := m.CriticalLevel()
		deadline := float64(s.Makespan)/lvl.Freq*1.5 + 0.001
		b, err := Evaluate(s, m, lvl, deadline, Options{PS: ps})
		if err != nil {
			return false
		}
		if b.Active < 0 || b.Idle < 0 || b.Sleep < 0 || b.Overhead < 0 {
			return false
		}
		if !ps && (b.Sleep != 0 || b.Overhead != 0 || b.Shutdowns != 0) {
			return false
		}
		if math.Abs(b.Total()-(b.Active+b.Idle+b.Sleep+b.Overhead)) > 1e-15 {
			return false
		}
		// Active + idle + sleep time across employed processors equals
		// procsUsed * horizon (up to horizon rounding of one cycle per gap).
		used := 0
		for p := 0; p < nprocs; p++ {
			if len(s.TasksOn(p)) > 0 {
				used++
			}
		}
		horizon := math.Trunc(deadline*lvl.Freq) / lvl.Freq
		got := b.ActiveTime + b.IdleTime + b.SleepTime
		want := float64(used) * horizon
		return math.Abs(got-want) < float64(used+1)/lvl.Freq*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyEnergyMonotoneInDeadline: with PS disabled, a longer deadline
// at the same level only adds idle energy.
func TestPropertyEnergyMonotoneInDeadline(t *testing.T) {
	m := power.Default70nm()
	f := func(seed int64, rawN uint8, extra uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchedule(rng, int(rawN%15)+1, 3)
		lvl := m.Level(2)
		d1 := float64(s.Makespan) / lvl.Freq
		d2 := d1 * (1 + float64(extra)/50)
		b1, err1 := Evaluate(s, m, lvl, d1, Options{})
		b2, err2 := Evaluate(s, m, lvl, d2, Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		return b2.Total() >= b1.Total()-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestBreakdownString(t *testing.T) {
	b := Breakdown{Active: 1, Idle: 2, Sleep: 3, Overhead: 4, Shutdowns: 5}
	s := b.String()
	if s == "" {
		t.Error("empty String")
	}
	if b.Total() != 10 {
		t.Errorf("Total = %g, want 10", b.Total())
	}
}
