package power

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func approx(got, want, rel float64) bool {
	if want == 0 {
		return math.Abs(got) < rel
	}
	return math.Abs(got-want)/math.Abs(want) < rel
}

// TestPaperAnchorFMax checks that the Table 1 constants yield the paper's
// quoted maximum frequency of 3.1 GHz at 1.0 V.
func TestPaperAnchorFMax(t *testing.T) {
	m := Default70nm()
	if !approx(m.FMax(), 3.1e9, 0.01) {
		t.Errorf("FMax = %g, want ≈3.1 GHz", m.FMax())
	}
}

// TestPaperAnchorCriticalLevel checks the discrete critical operating point:
// the paper reports Vdd = 0.7 V at a normalised frequency of 0.41.
func TestPaperAnchorCriticalLevel(t *testing.T) {
	m := Default70nm()
	c := m.CriticalLevel()
	if !approx(c.Vdd, 0.70, 1e-6) {
		t.Errorf("critical Vdd = %g, want 0.70", c.Vdd)
	}
	if !approx(c.Norm, 0.41, 0.02) {
		t.Errorf("critical normalised frequency = %g, want ≈0.41", c.Norm)
	}
}

// TestPaperAnchorContinuousCritical checks the continuous critical frequency
// of ≈0.38·fmax reported in Section 3.3.
func TestPaperAnchorContinuousCritical(t *testing.T) {
	m := Default70nm()
	norm := m.CriticalFrequencyContinuous() / m.FMax()
	if norm < 0.35 || norm > 0.40 {
		t.Errorf("continuous critical frequency = %.3f·fmax, want ≈0.38", norm)
	}
}

// TestPaperAnchorPowerAtMax checks the power breakdown at full speed against
// Fig. 2a: P_AC ≈ 1.33 W, P_DC ≈ 0.71 W, total ≈ 2.15 W.
func TestPaperAnchorPowerAtMax(t *testing.T) {
	m := Default70nm()
	l := m.MaxLevel()
	if pac := m.PowerAC(l.Vdd, l.Freq); !approx(pac, 1.33, 0.02) {
		t.Errorf("PowerAC = %g, want ≈1.33 W", pac)
	}
	if pdc := m.PowerDC(l.Vdd); !approx(pdc, 0.715, 0.02) {
		t.Errorf("PowerDC = %g, want ≈0.71 W", pdc)
	}
	if p := m.LevelPower(l); !approx(p, 2.15, 0.02) {
		t.Errorf("Power = %g, want ≈2.15 W", p)
	}
}

// TestPaperAnchorBreakeven checks Fig. 3: at half the maximum frequency an
// idle period of ≈1.7 million cycles is required for shutdown to pay off.
func TestPaperAnchorBreakeven(t *testing.T) {
	m := Default70nm()
	// Find Vdd yielding 0.5 normalised frequency via the analytic inverse.
	vdd, err := m.VddForFrequency(0.5 * m.FMax())
	if err != nil {
		t.Fatal(err)
	}
	l := Level{Vdd: vdd, Freq: m.Frequency(vdd), Norm: 0.5}
	cycles := m.BreakevenCycles(l)
	if !approx(cycles, 1.7e6, 0.05) {
		t.Errorf("breakeven at f=0.5 = %g cycles, want ≈1.7e6", cycles)
	}
}

func TestLadderShape(t *testing.T) {
	m := Default70nm()
	ls := m.Levels()
	if len(ls) != 13 { // 1.00, 0.95, ..., 0.40
		t.Fatalf("ladder has %d levels, want 13", len(ls))
	}
	for i, l := range ls {
		if l.Index != i {
			t.Errorf("level %d has Index %d", i, l.Index)
		}
		if i > 0 {
			if l.Vdd >= ls[i-1].Vdd {
				t.Errorf("Vdd not strictly decreasing at %d", i)
			}
			if l.Freq >= ls[i-1].Freq {
				t.Errorf("Freq not strictly decreasing at %d", i)
			}
		}
		if l.Freq <= 0 {
			t.Errorf("level %d has non-positive frequency", i)
		}
		if !approx(l.Norm, l.Freq/m.FMax(), 1e-12) {
			t.Errorf("level %d Norm inconsistent", i)
		}
	}
	if m.MaxLevel().Index != 0 || m.MinLevel().Index != len(ls)-1 {
		t.Errorf("MaxLevel/MinLevel indices wrong")
	}
}

func TestEnergyPerCycleConvexAroundCritical(t *testing.T) {
	m := Default70nm()
	c := m.CriticalLevel()
	for _, l := range m.Levels() {
		if m.EnergyPerCycle(l) < m.EnergyPerCycle(c)-1e-18 {
			t.Errorf("%v has lower energy/cycle than critical level", l)
		}
	}
	// Energy per cycle decreases monotonically from the top of the ladder
	// down to the critical level and increases below it.
	ls := m.Levels()
	for i := 1; i <= c.Index; i++ {
		if m.EnergyPerCycle(ls[i]) > m.EnergyPerCycle(ls[i-1]) {
			t.Errorf("energy/cycle not decreasing above critical at %d", i)
		}
	}
	for i := c.Index + 1; i < len(ls); i++ {
		if m.EnergyPerCycle(ls[i]) < m.EnergyPerCycle(ls[i-1]) {
			t.Errorf("energy/cycle not increasing below critical at %d", i)
		}
	}
}

func TestLevelForFrequency(t *testing.T) {
	m := Default70nm()
	tests := []struct {
		f       float64
		wantVdd float64
		wantErr bool
	}{
		{m.FMax(), 1.00, false},
		{m.FMax() * 0.999, 1.00, false},
		{m.Level(1).Freq, 0.95, false},
		{m.Level(1).Freq * 1.001, 1.00, false},
		{1.0, m.MinLevel().Vdd, false}, // absurdly low: slowest level
		{m.FMax() * 1.1, 0, true},
	}
	for _, tc := range tests {
		l, err := m.LevelForFrequency(tc.f)
		if tc.wantErr {
			if !errors.Is(err, ErrInfeasible) {
				t.Errorf("LevelForFrequency(%g) err = %v, want ErrInfeasible", tc.f, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("LevelForFrequency(%g): %v", tc.f, err)
			continue
		}
		if !approx(l.Vdd, tc.wantVdd, 1e-9) {
			t.Errorf("LevelForFrequency(%g) Vdd = %g, want %g", tc.f, l.Vdd, tc.wantVdd)
		}
		if l.Freq < tc.f*(1-1e-12) {
			t.Errorf("LevelForFrequency(%g) returned too-slow level %v", tc.f, l)
		}
	}
}

func TestVddFrequencyRoundTrip(t *testing.T) {
	m := Default70nm()
	f := func(raw uint16) bool {
		vdd := 0.40 + float64(raw%6000)/10000 // 0.40 .. 1.00
		fr := m.Frequency(vdd)
		if fr <= 0 {
			return true // below threshold, inverse undefined
		}
		back, err := m.VddForFrequency(fr)
		return err == nil && approx(back, vdd, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFrequencyMonotonicInVdd(t *testing.T) {
	m := Default70nm()
	f := func(a, b uint16) bool {
		v1 := 0.40 + float64(a%6000)/10000
		v2 := 0.40 + float64(b%6000)/10000
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		return m.Frequency(v1) <= m.Frequency(v2)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBreakevenMonotonicity(t *testing.T) {
	// Lower frequency => lower idle power => longer break-even time.
	m := Default70nm()
	ls := m.Levels()
	for i := 1; i < len(ls); i++ {
		if m.BreakevenTime(ls[i]) < m.BreakevenTime(ls[i-1]) {
			t.Errorf("break-even time not increasing from level %d to %d", i-1, i)
		}
	}
	for _, l := range ls {
		if m.BreakevenTime(l) <= 0 {
			t.Errorf("%v: non-positive break-even time", l)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	mods := []func(*Model){
		func(m *Model) { m.VddStep = 0 },
		func(m *Model) { m.VddStep = -0.05 },
		func(m *Model) { m.VddMin = 1.2 },
		func(m *Model) { m.Alpha = 0 },
		func(m *Model) { m.Ceff = -1 },
		func(m *Model) { m.POn = -0.1 },
		func(m *Model) { m.EOverhead = -1 },
		func(m *Model) { m.VddMax = 0.1 }, // below threshold: empty ladder
	}
	for i, mod := range mods {
		m := Default70nm()
		mod(m)
		if err := m.Build(); !errors.Is(err, ErrBadParams) {
			t.Errorf("case %d: Build err = %v, want ErrBadParams", i, err)
		}
	}
}

// TestBuildBoundsLadderLength: a step that would build more than
// MaxLevels rungs is rejected — including one below half an ulp of
// VddMax, which never lowers vdd at all — while the finest ladder within
// the cap still builds.
func TestBuildBoundsLadderLength(t *testing.T) {
	for _, step := range []float64{1e-17, 1e-6} {
		m := Default70nm()
		m.VddStep = step
		done := make(chan error, 1)
		go func() { done <- m.Build() }()
		select {
		case err := <-done:
			if !errors.Is(err, ErrBadParams) {
				t.Errorf("step %g: Build err = %v, want ErrBadParams", step, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("step %g: Build did not return", step)
		}
	}
	m := Default70nm()
	m.VddStep = (m.VddMax - m.VddMin) / (MaxLevels - 1)
	if err := m.Build(); err != nil {
		t.Fatalf("a %d-level ladder: %v", MaxLevels, err)
	}
	if n := len(m.Levels()); n > MaxLevels || n < MaxLevels-1 {
		t.Errorf("ladder has %d levels, want about %d", n, MaxLevels)
	}
}

func TestCustomTechnologyRebuild(t *testing.T) {
	m := Default70nm()
	m.POn = 0.05
	m.VddMin = 0.5
	if err := m.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if m.MinLevel().Vdd < 0.5-1e-9 {
		t.Errorf("MinLevel Vdd = %g, want ≥ 0.5", m.MinLevel().Vdd)
	}
	if got := m.IdlePower(m.MaxLevel()); !approx(got, m.PowerDC(1.0)+0.05, 1e-12) {
		t.Errorf("IdlePower did not pick up new POn")
	}
}

func TestIdlePowerExcludesDynamic(t *testing.T) {
	m := Default70nm()
	for _, l := range m.Levels() {
		if m.IdlePower(l) >= m.LevelPower(l) {
			t.Errorf("%v: idle power %g >= active power %g", l, m.IdlePower(l), m.LevelPower(l))
		}
		if m.IdlePower(l) <= m.PSleep {
			t.Errorf("%v: idle power not above sleep power", l)
		}
	}
}

func TestLevelString(t *testing.T) {
	m := Default70nm()
	s := m.MaxLevel().String()
	if s == "" {
		t.Error("empty Level.String()")
	}
}

func BenchmarkEnergyPerCycle(b *testing.B) {
	m := Default70nm()
	ls := m.Levels()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.EnergyPerCycle(ls[i%len(ls)])
	}
	_ = sink
}
