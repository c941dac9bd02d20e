package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lamps/internal/dag"
	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/verify"
)

// coarseWeight is the paper's coarse-grain scaling: weight 1 = 3.1e6 cycles
// (1 ms at maximum frequency).
const coarseWeight = 3100000

// fineWeight is the fine-grain scaling: weight 1 = 3.1e4 cycles (10 µs).
const fineWeight = 31000

func buildFig4a(t testing.TB, scale int64) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("fig4a")
	for _, w := range []int64{2, 6, 4, 4, 2} {
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
	s, err := g.ScaleWeights(scale)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randomGraph(rng *rand.Rand, n int, p float64, scale int64) *dag.Graph {
	b := dag.NewBuilder("rnd")
	for i := 0; i < n; i++ {
		b.AddTask(int64(rng.Intn(300)+1) * scale)
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

func TestSSBasics(t *testing.T) {
	g := buildFig4a(t, coarseWeight)
	m := power.Default70nm()
	cfg := DeadlineFactor(g, m, 1.5)
	r, err := ScheduleAndStretch(g, cfg)
	if err != nil {
		t.Fatalf("S&S: %v", err)
	}
	if r.Approach != ApproachSS {
		t.Errorf("Approach = %q", r.Approach)
	}
	// The Fig. 4 example saturates at 3 processors (T2, T3, T4 in parallel).
	if r.NumProcs != 3 {
		t.Errorf("S&S NumProcs = %d, want 3", r.NumProcs)
	}
	if err := verify.Schedule(g, r.Schedule); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
	// Deadline 1.5x CPL: the schedule has makespan = CPL, so a stretch
	// factor up to 1.5 is available. The chosen level must be the slowest
	// feasible one.
	if r.MakespanSec() > cfg.Deadline*(1+1e-12) {
		t.Errorf("S&S misses deadline: %g > %g", r.MakespanSec(), cfg.Deadline)
	}
	if r.Level.Index+1 < len(m.Levels()) {
		slower := m.Level(r.Level.Index + 1)
		if float64(r.Schedule.Makespan)/slower.Freq <= cfg.Deadline {
			t.Errorf("S&S did not use the slowest feasible level")
		}
	}
	if r.TotalEnergy() <= 0 {
		t.Errorf("non-positive energy")
	}
	if r.String() == "" {
		t.Errorf("empty String()")
	}
}

func TestLAMPSPicksFewerProcessorsOnLooseDeadline(t *testing.T) {
	g := buildFig4a(t, coarseWeight)
	m := power.Default70nm()
	cfg := DeadlineFactor(g, m, 8)
	ss, err := ScheduleAndStretch(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	la, err := LAMPS(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if la.NumProcs > ss.NumProcs {
		t.Errorf("LAMPS uses %d procs, S&S %d", la.NumProcs, ss.NumProcs)
	}
	if la.TotalEnergy() > ss.TotalEnergy()*(1+1e-9) {
		t.Errorf("LAMPS energy %g > S&S %g", la.TotalEnergy(), ss.TotalEnergy())
	}
	// With a deadline 8x the CPL the work (18 units) fits comfortably on one
	// processor (needs 18/80 of an 8-CPL window per unit? work/CPL = 1.8, so
	// 1 processor at full speed finishes in 1.8 CPL < 8 CPL).
	if la.NumProcs != 1 {
		t.Errorf("LAMPS NumProcs = %d, want 1 on a loose deadline", la.NumProcs)
	}
}

func TestFig7aLAMPSTwoProcessors(t *testing.T) {
	// With a deadline of 1.25x CPL and coarse weights, one processor cannot
	// finish (work 18 > 12.5) but two can (makespan 10 <= 12.5); LAMPS
	// should prefer 2 processors over 3 since both reach the same makespan.
	g := buildFig4a(t, coarseWeight)
	m := power.Default70nm()
	cfg := DeadlineFactor(g, m, 1.25)
	r, err := LAMPS(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumProcs != 2 {
		t.Errorf("LAMPS NumProcs = %d, want 2 (Fig. 7a)", r.NumProcs)
	}
}

func TestPSVariantsNeverWorse(t *testing.T) {
	m := power.Default70nm()
	for _, scale := range []int64{coarseWeight, fineWeight} {
		for _, factor := range []float64{1.5, 2, 4, 8} {
			g := buildFig4a(t, scale)
			cfg := DeadlineFactor(g, m, factor)
			ss, err := ScheduleAndStretch(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ssps, err := ScheduleAndStretchPS(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			la, err := LAMPS(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			laps, err := LAMPSPS(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ssps.TotalEnergy() > ss.TotalEnergy()*(1+1e-9) {
				t.Errorf("scale %d factor %g: S&S+PS worse than S&S", scale, factor)
			}
			if laps.TotalEnergy() > la.TotalEnergy()*(1+1e-9) {
				t.Errorf("scale %d factor %g: LAMPS+PS worse than LAMPS", scale, factor)
			}
			if la.TotalEnergy() > ss.TotalEnergy()*(1+1e-9) {
				t.Errorf("scale %d factor %g: LAMPS worse than S&S", scale, factor)
			}
		}
	}
}

func TestLimitsOrdering(t *testing.T) {
	m := power.Default70nm()
	g := buildFig4a(t, coarseWeight)
	for _, factor := range []float64{1.5, 2, 4, 8} {
		cfg := DeadlineFactor(g, m, factor)
		sf, err := LimitSF(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mf, err := LimitMF(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if mf.TotalEnergy() > sf.TotalEnergy()*(1+1e-12) {
			t.Errorf("factor %g: LIMIT-MF %g > LIMIT-SF %g", factor, mf.TotalEnergy(), sf.TotalEnergy())
		}
		laps, err := LAMPSPS(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if laps.TotalEnergy() < sf.TotalEnergy()*(1-1e-9) {
			t.Errorf("factor %g: heuristic beats the SF lower bound: %g < %g",
				factor, laps.TotalEnergy(), sf.TotalEnergy())
		}
	}
}

// TestLimitsCoincideOnLooseDeadline checks the paper's observation that for
// loose deadlines (4x or 8x the CPL) LIMIT-MF consumes the same energy as
// LIMIT-SF, because LIMIT-SF can descend all the way to the critical
// frequency.
func TestLimitsCoincideOnLooseDeadline(t *testing.T) {
	m := power.Default70nm()
	g := buildFig4a(t, coarseWeight)
	for _, factor := range []float64{4, 8} {
		cfg := DeadlineFactor(g, m, factor)
		sf, _ := LimitSF(g, cfg)
		mf, _ := LimitMF(g, cfg)
		if sf.TotalEnergy() != mf.TotalEnergy() {
			t.Errorf("factor %g: SF %g != MF %g", factor, sf.TotalEnergy(), mf.TotalEnergy())
		}
		if sf.Level.Index != m.CriticalLevel().Index {
			t.Errorf("factor %g: SF level %v, want critical", factor, sf.Level)
		}
	}
}

func TestLimitSFTightDeadlineLevel(t *testing.T) {
	m := power.Default70nm()
	g := buildFig4a(t, coarseWeight)
	cfg := DeadlineFactor(g, m, 1.5)
	sf, err := LimitSF(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// f must be at least CPL/D = fmax/1.5 = 0.667 fmax > critical 0.41.
	if sf.Level.Norm < 1/1.5-1e-9 {
		t.Errorf("SF level %v too slow for deadline", sf.Level)
	}
}

func TestInfeasibleDeadline(t *testing.T) {
	m := power.Default70nm()
	g := buildFig4a(t, coarseWeight)
	cfg := DeadlineFactor(g, m, 0.5) // below the CPL: impossible
	for _, approach := range []string{ApproachSS, ApproachLAMPS, ApproachSSPS, ApproachLAMPSPS, ApproachLimitSF} {
		_, err := Run(approach, g, cfg)
		if err == nil {
			t.Errorf("%s: no error on infeasible deadline", approach)
		}
	}
	// LIMIT-MF ignores the deadline by definition.
	if _, err := LimitMF(g, cfg); err != nil {
		t.Errorf("LIMIT-MF should ignore the deadline: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	g := buildFig4a(t, coarseWeight)
	if _, err := ScheduleAndStretch(g, Config{Deadline: -1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative deadline err = %v", err)
	}
	for _, d := range []float64{math.Inf(1), math.NaN()} {
		if _, err := ScheduleAndStretch(g, Config{Deadline: d}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("deadline %g err = %v", d, err)
		}
	}
	if _, err := LAMPS(g, Config{Deadline: 1, MaxProcs: -2}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative MaxProcs err = %v", err)
	}
	if _, err := Run("nope", g, Config{Deadline: 1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown approach err = %v", err)
	}
	if _, err := ScheduleAndStretch(nil, Config{Deadline: 1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil graph err = %v", err)
	}
}

func TestRunDispatch(t *testing.T) {
	g := buildFig4a(t, coarseWeight)
	m := power.Default70nm()
	cfg := DeadlineFactor(g, m, 2)
	for _, a := range Approaches {
		r, err := Run(a, g, cfg)
		if err != nil {
			t.Errorf("Run(%s): %v", a, err)
			continue
		}
		if r.Approach != a {
			t.Errorf("Run(%s) returned approach %s", a, r.Approach)
		}
	}
}

func TestMaxProcsCap(t *testing.T) {
	m := power.Default70nm()
	g := buildFig4a(t, coarseWeight)
	cfg := DeadlineFactor(g, m, 2)
	cfg.MaxProcs = 2
	ss, err := ScheduleAndStretch(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ss.NumProcs > 2 {
		t.Errorf("MaxProcs violated: %d", ss.NumProcs)
	}
}

func TestCustomPriorityPolicy(t *testing.T) {
	m := power.Default70nm()
	g := buildFig4a(t, coarseWeight)
	cfg := DeadlineFactor(g, m, 2)
	cfg.Priorities = sched.FIFOPriorities
	r, err := LAMPS(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Schedule(g, r.Schedule); err != nil {
		t.Errorf("FIFO-policy schedule invalid: %v", err)
	}
}

func TestNLowerBound(t *testing.T) {
	g := buildFig4a(t, 1) // work = 18
	tests := []struct {
		deadline float64
		want     int
	}{
		{18, 1},
		{17.9, 2},
		{9, 2},
		{8.9, 3},
		{1, 18},
		{1000, 1},
	}
	for _, tc := range tests {
		if got := nLowerBound(g, tc.deadline); got != tc.want {
			t.Errorf("nLowerBound(D=%g) = %d, want %d", tc.deadline, got, tc.want)
		}
	}
}

func TestEnergySaving(t *testing.T) {
	if got := EnergySaving(100, 60, 50); got != 0.8 {
		t.Errorf("EnergySaving = %g, want 0.8", got)
	}
	if got := EnergySaving(100, 100, 100); got != 1 {
		t.Errorf("EnergySaving with zero headroom = %g, want 1", got)
	}
}

func TestStatsPopulated(t *testing.T) {
	m := power.Default70nm()
	g := randomGraph(rand.New(rand.NewSource(3)), 40, 0.1, coarseWeight)
	cfg := DeadlineFactor(g, m, 2)
	r, err := LAMPSPS(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.SchedulesBuilt == 0 || r.Stats.LevelsEvaluated == 0 {
		t.Errorf("stats not populated: %+v", r.Stats)
	}
}

// TestPropertyDominanceChain verifies, on random graphs across grain sizes
// and deadline factors, the full ordering the paper relies on:
//
//	LIMIT-MF <= LIMIT-SF <= LAMPS+PS <= min(LAMPS, S&S+PS) and
//	LAMPS <= S&S, S&S+PS <= S&S, with all heuristics meeting the deadline.
func TestPropertyDominanceChain(t *testing.T) {
	m := power.Default70nm()
	f := func(seed int64, rawN, rawP, rawF uint8, fine bool) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := int64(coarseWeight)
		if fine {
			scale = fineWeight
		}
		n := int(rawN%30) + 2
		g := randomGraph(rng, n, float64(rawP%30)/100, scale)
		factor := []float64{1.5, 2, 4, 8}[rawF%4]
		cfg := DeadlineFactor(g, m, factor)

		res := make(map[string]*Result)
		for _, a := range Approaches {
			r, err := Run(a, g, cfg)
			if err != nil {
				t.Logf("%s: %v", a, err)
				return false
			}
			res[a] = r
			if r.Schedule != nil {
				if err := verify.Schedule(g, r.Schedule); err != nil {
					t.Logf("%s: invalid schedule: %v", a, err)
					return false
				}
				if r.MakespanSec() > cfg.Deadline*(1+1e-9) {
					t.Logf("%s misses deadline", a)
					return false
				}
			}
		}
		e := func(a string) float64 { return res[a].TotalEnergy() }
		const tol = 1 + 1e-9
		checks := []struct {
			lo, hi string
		}{
			{ApproachLimitMF, ApproachLimitSF},
			{ApproachLimitSF, ApproachLAMPSPS},
			{ApproachLAMPSPS, ApproachLAMPS},
			{ApproachLAMPSPS, ApproachSSPS},
			{ApproachLAMPS, ApproachSS},
			{ApproachSSPS, ApproachSS},
		}
		for _, c := range checks {
			if e(c.lo) > e(c.hi)*tol {
				t.Logf("%s (%g) > %s (%g) [n=%d factor=%g fine=%v]",
					c.lo, e(c.lo), c.hi, e(c.hi), n, factor, fine)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLAMPSBeatsAnyFixedN: LAMPS's processor count is at least as
// good as scheduling on the S&S processor count with a plain stretch, since
// that configuration is inside LAMPS's search space whenever it is reached
// before makespan saturation.
func TestPropertyLooseDeadlineBigWin(t *testing.T) {
	// For very loose deadlines and wide graphs, LAMPS must save a
	// substantial amount versus S&S (the paper reports 45% on average at
	// 8x); we assert a conservative 10% on clearly-parallel graphs.
	m := power.Default70nm()
	rng := rand.New(rand.NewSource(99))
	g := randomGraph(rng, 60, 0.02, coarseWeight)
	if g.Parallelism() < 4 {
		t.Skip("graph not parallel enough for this check")
	}
	cfg := DeadlineFactor(g, m, 8)
	ss, err := ScheduleAndStretch(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	la, err := LAMPS(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if la.TotalEnergy() > 0.9*ss.TotalEnergy() {
		t.Errorf("LAMPS saves only %.1f%% vs S&S on loose deadline",
			100*(1-la.TotalEnergy()/ss.TotalEnergy()))
	}
}

func BenchmarkLAMPSPS200Nodes(b *testing.B) {
	m := power.Default70nm()
	g := randomGraph(rand.New(rand.NewSource(5)), 200, 0.02, coarseWeight)
	cfg := DeadlineFactor(g, m, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LAMPSPS(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
