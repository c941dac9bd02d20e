package energy

import (
	"math/rand"
	"testing"

	"lamps/internal/power"
	"lamps/internal/sched"
)

// evaluatePerGapWalk is the pre-profile reference: a linear walk over every
// gap of the schedule, classifying each one independently against the
// break-even time, with the idle/sleep totals kept as exact integer cycle
// counts and converted with the same final float expressions the profile
// uses. GapProfile.Evaluate must reproduce it bit for bit.
func evaluatePerGapWalk(s *sched.Schedule, m *power.Model, lvl power.Level, deadlineSec float64, opts Options) (Breakdown, error) {
	var b Breakdown
	makespanSec := float64(s.Makespan) / lvl.Freq
	if makespanSec > deadlineSec*(1+1e-12) {
		return b, ErrDeadline
	}
	b.ActiveTime = float64(s.Graph.TotalWork()) / lvl.Freq
	b.Active = b.ActiveTime * m.LevelPower(lvl)
	horizon := int64(deadlineSec * lvl.Freq)
	if horizon < s.Makespan {
		horizon = s.Makespan
	}
	breakeven := m.BreakevenTime(lvl)
	var idleCycles, sleepCycles int64
	shutdowns := 0
	for _, g := range gapLengths(s, horizon) {
		if opts.PS && float64(g)/lvl.Freq > breakeven {
			sleepCycles += g
			shutdowns++
		} else {
			idleCycles += g
		}
	}
	b.IdleTime = float64(idleCycles) / lvl.Freq
	b.Idle = b.IdleTime * m.IdlePower(lvl)
	b.SleepTime = float64(sleepCycles) / lvl.Freq
	b.Sleep = b.SleepTime * m.PSleep
	b.Shutdowns = shutdowns
	b.Overhead = float64(shutdowns) * m.EOverhead
	return b, nil
}

// gapLengths returns the length of every idle interval of every employed
// processor of s up to horizon, in processor order: before its first task,
// between consecutive tasks and after its last task. Processors that run no
// task are off and have no gaps; zero-length intervals are omitted.
func gapLengths(s *sched.Schedule, horizon int64) []int64 {
	var gaps []int64
	for p := 0; p < s.NumProcs; p++ {
		tasks := s.TasksOn(p)
		if len(tasks) == 0 {
			continue
		}
		var cursor int64
		for _, v := range tasks {
			if s.Start[v] > cursor {
				gaps = append(gaps, s.Start[v]-cursor)
			}
			cursor = s.Finish[v]
		}
		if horizon > cursor {
			gaps = append(gaps, horizon-cursor)
		}
	}
	return gaps
}

func requireIdenticalBreakdowns(t *testing.T, ctx string, got, want Breakdown) {
	t.Helper()
	// Bit-identical, not approximately equal: the two paths must perform the
	// same float operations on the same exact integer totals.
	if got != want {
		t.Fatalf("%s:\n  profile   %+v\n  reference %+v", ctx, got, want)
	}
}

// TestGapProfileParity is the energy half of the kernel's differential
// parity test: on random schedules, at every operating point, with PS on and
// off, and across deadlines from exact-fit to 8x slack, the
// O(log G) GapProfile evaluation must be bit-identical — every Breakdown
// field, shutdown counts included — to the linear per-gap reference walk and
// to the package-level Evaluate. The same profile is Reset across schedules
// to cover buffer reuse.
func TestGapProfileParity(t *testing.T) {
	m := power.Default70nm()
	rng := rand.New(rand.NewSource(42))
	var p GapProfile
	for iter := 0; iter < 50; iter++ {
		s := randomSchedule(rng, 1+rng.Intn(30), 1+rng.Intn(6))
		p.Reset(s)
		for _, lvl := range m.Levels() {
			base := float64(s.Makespan) / lvl.Freq
			for _, slack := range []float64{1, 1.0001, 1.5, 2, 8} {
				deadline := base * slack
				for _, opts := range []Options{{}, {PS: true}} {
					got, errGot := p.Evaluate(m, lvl, deadline, opts)
					want, errWant := evaluatePerGapWalk(s, m, lvl, deadline, opts)
					if (errGot == nil) != (errWant == nil) {
						t.Fatalf("iter %d lvl %d slack %g opts %+v: err %v vs reference %v",
							iter, lvl.Index, slack, opts, errGot, errWant)
					}
					if errGot != nil {
						continue
					}
					requireIdenticalBreakdowns(t, "profile vs per-gap walk", got, want)

					legacy, err := Evaluate(s, m, lvl, deadline, opts)
					if err != nil {
						t.Fatalf("iter %d: Evaluate: %v", iter, err)
					}
					requireIdenticalBreakdowns(t, "package Evaluate vs per-gap walk", legacy, want)
				}
			}
		}
	}
}

// TestGapProfileResetReuse: a profile Reset onto a new schedule must be
// indistinguishable from a freshly built one.
func TestGapProfileResetReuse(t *testing.T) {
	m := power.Default70nm()
	rng := rand.New(rand.NewSource(7))
	reused := new(GapProfile)
	for iter := 0; iter < 20; iter++ {
		s := randomSchedule(rng, 1+rng.Intn(40), 1+rng.Intn(5))
		reused.Reset(s)
		fresh := NewGapProfile(s)
		lvl := m.Level(rng.Intn(len(m.Levels())))
		deadline := float64(s.Makespan) / lvl.Freq * (1 + rng.Float64()*4)
		for _, opts := range []Options{{}, {PS: true}} {
			a, err1 := reused.Evaluate(m, lvl, deadline, opts)
			b, err2 := fresh.Evaluate(m, lvl, deadline, opts)
			if err1 != nil || err2 != nil {
				t.Fatalf("iter %d: %v / %v", iter, err1, err2)
			}
			requireIdenticalBreakdowns(t, "reused vs fresh profile", a, b)
		}
	}
}

// TestGapProfileEvaluateZeroAlloc is the energy half of the CI allocation
// gate: Evaluate on a built profile must not allocate, and Reset onto a
// same-shape schedule must not allocate once the buffers are warm.
func TestGapProfileEvaluateZeroAlloc(t *testing.T) {
	m := power.Default70nm()
	rng := rand.New(rand.NewSource(3))
	s := randomSchedule(rng, 40, 4)
	p := NewGapProfile(s)
	lvl := m.CriticalLevel()
	deadline := float64(s.Makespan) / lvl.Freq * 2
	for _, opts := range []Options{{}, {PS: true}} {
		opts := opts
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := p.Evaluate(m, lvl, deadline, opts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("GapProfile.Evaluate allocates %v allocs/op (PS=%v)", allocs, opts.PS)
		}
	}
	allocs := testing.AllocsPerRun(100, func() { p.Reset(s) })
	if allocs != 0 {
		t.Fatalf("warm GapProfile.Reset allocates %v allocs/op", allocs)
	}
}

// BenchmarkEvaluatePerGapWalk is the "before" shape of a +PS level sweep:
// one linear gap walk per operating point.
func BenchmarkEvaluatePerGapWalk(b *testing.B) {
	m := power.Default70nm()
	rng := rand.New(rand.NewSource(11))
	s := randomSchedule(rng, 200, 8)
	deadlines := make([]float64, len(m.Levels()))
	for i, lvl := range m.Levels() {
		deadlines[i] = float64(s.Makespan) / lvl.Freq * 2
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, lvl := range m.Levels() {
			if _, err := evaluatePerGapWalk(s, m, lvl, deadlines[j], Options{PS: true}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGapProfileSweep is the "after" shape: profile once, then one
// O(log G) evaluation per operating point.
func BenchmarkGapProfileSweep(b *testing.B) {
	m := power.Default70nm()
	rng := rand.New(rand.NewSource(11))
	s := randomSchedule(rng, 200, 8)
	deadlines := make([]float64, len(m.Levels()))
	for i, lvl := range m.Levels() {
		deadlines[i] = float64(s.Makespan) / lvl.Freq * 2
	}
	var p GapProfile
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset(s)
		for j, lvl := range m.Levels() {
			if _, err := p.Evaluate(m, lvl, deadlines[j], Options{PS: true}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
