// Package power implements the processor power and energy model of
// de Langen & Juurlink (Section 3.2), which follows Jejurikar et al. (DAC'04)
// and Martin et al. (ICCAD'02) and was verified against SPICE by the latter.
//
// The total power consumption of a processor is
//
//	P = P_AC + P_DC + P_on
//
// where P_AC = a·C_eff·Vdd²·f is the dynamic (switching) power,
// P_DC = L_g·(Vdd·I_subn + |Vbs|·I_j) is the static (leakage) power, and
// P_on is the intrinsic power needed to keep the processor on. The
// sub-threshold leakage current per gate is
//
//	I_subn = K3 · e^(K4·Vdd) · e^(K5·Vbs)
//
// and the operating frequency relates to the supply and threshold voltages by
//
//	f = (Vdd − V_th)^α / (L_d · K6),  V_th = V_th1 − K1·Vdd − K2·Vbs.
//
// With the 70 nm constants of Table 1 the model yields a maximum frequency of
// ≈3.1 GHz at Vdd = 1.0 V and a critical (energy-optimal) frequency of
// ≈0.38·f_max, reached on the discrete 0.05 V ladder at Vdd = 0.70 V
// (0.41·f_max), exactly as reported in the paper.
package power

import (
	"errors"
	"fmt"
	"math"
)

// Model holds the technology constants and platform parameters of the power
// model. Construct one with Default70nm and tweak fields before calling
// Build; a built model is immutable and safe for concurrent use.
type Model struct {
	// Technology constants (Table 1 of the paper, 70 nm).
	K1, K2, K3, K4, K5, K6, K7 float64
	Vdd0                       float64 // nominal supply voltage [V]
	Vbs                        float64 // body-source bias voltage [V]
	Alpha                      float64 // velocity saturation exponent
	Vth1                       float64 // zero-bias threshold voltage [V]
	Ij                         float64 // reverse-bias junction current per gate [A]
	Ceff                       float64 // effective switched capacitance [F]
	Ld                         float64 // logic depth
	Lg                         float64 // number of gates (leakage scaling)

	// Platform parameters.
	Activity  float64 // switching activity factor a (default 1)
	POn       float64 // intrinsic on-power [W] (paper: 0.1 W)
	PSleep    float64 // deep-sleep power [W] (paper: 50 µW)
	EOverhead float64 // shutdown+wakeup energy overhead [J] (paper: 483 µJ)

	// Discrete voltage ladder: levels VddMax, VddMax−VddStep, … ≥ VddMin.
	VddMax, VddMin, VddStep float64

	built  bool
	fMax   float64
	levels []Level
	crit   int // index into levels of the discrete critical level
}

// Level is one discrete operating point of the voltage/frequency ladder.
type Level struct {
	Index int     // position in Model.Levels(), 0 = highest voltage
	Vdd   float64 // supply voltage [V]
	Freq  float64 // operating frequency [Hz]
	Norm  float64 // Freq / FMax
}

func (l Level) String() string {
	return fmt.Sprintf("level %d (Vdd=%.2fV, f=%.3gHz, %.2f·fmax)", l.Index, l.Vdd, l.Freq, l.Norm)
}

// MaxLevels caps the length of a model's voltage ladder. The paper's
// ladders have a dozen levels; every +PS sweep evaluates each one, so Build
// rejects a finer step with ErrBadParams rather than build an unbounded
// ladder.
const MaxLevels = 1024

// Errors returned by model construction and queries.
var (
	ErrNotBuilt   = errors.New("power: model not built; call Build first")
	ErrBadParams  = errors.New("power: invalid model parameters")
	ErrInfeasible = errors.New("power: no level satisfies the requested frequency")
)

// Default70nm returns the 70 nm model with the constants of Table 1 and the
// platform parameters used throughout the paper's evaluation. The returned
// model is already built.
func Default70nm() *Model {
	m := &Model{
		K1:   0.063,
		K2:   0.153,
		K3:   5.38e-7,
		K4:   1.83,
		K5:   4.19,
		K6:   5.26e-12,
		K7:   -0.144,
		Vdd0: 1.0,
		Vbs:  -0.7,

		Alpha: 1.5,
		Vth1:  0.244,
		Ij:    4.8e-10,
		Ceff:  0.43e-9,
		Ld:    37.0,
		Lg:    4.0e6,

		Activity:  1.0,
		POn:       0.1,
		PSleep:    50e-6,
		EOverhead: 483e-6,

		VddMax:  1.0,
		VddMin:  0.40,
		VddStep: 0.05,
	}
	if err := m.Build(); err != nil {
		panic("power: default model invalid: " + err.Error())
	}
	return m
}

// Build validates the parameters and precomputes the discrete voltage ladder
// and the critical level. It must be called after modifying any field and
// before using the model.
func (m *Model) Build() error {
	switch {
	case m.VddStep <= 0 || m.VddMax <= 0 || m.VddMin <= 0:
		return fmt.Errorf("%w: voltage ladder %g..%g step %g", ErrBadParams, m.VddMin, m.VddMax, m.VddStep)
	case m.VddMin > m.VddMax:
		return fmt.Errorf("%w: VddMin %g > VddMax %g", ErrBadParams, m.VddMin, m.VddMax)
	case m.Alpha <= 0 || m.Ld <= 0 || m.K6 <= 0 || m.Ceff <= 0 || m.Lg <= 0:
		return fmt.Errorf("%w: non-positive technology constant", ErrBadParams)
	case m.Activity < 0 || m.POn < 0 || m.PSleep < 0 || m.EOverhead < 0:
		return fmt.Errorf("%w: negative platform parameter", ErrBadParams)
	}
	m.fMax = m.Frequency(m.VddMax)
	if m.fMax <= 0 {
		return fmt.Errorf("%w: frequency at VddMax %g is not positive", ErrBadParams, m.VddMax)
	}
	m.levels = m.levels[:0]
	for vdd := m.VddMax; vdd >= m.VddMin-1e-9; vdd -= m.VddStep {
		f := m.Frequency(vdd)
		if f <= 0 {
			break // below threshold: the ladder ends here
		}
		if len(m.levels) == MaxLevels {
			// Also ends a step too small to lower vdd at all (below half
			// an ulp of VddMax), which would otherwise never terminate.
			return fmt.Errorf("%w: voltage ladder %g..%g step %g has more than %d levels",
				ErrBadParams, m.VddMin, m.VddMax, m.VddStep, MaxLevels)
		}
		m.levels = append(m.levels, Level{
			Index: len(m.levels),
			Vdd:   vdd,
			Freq:  f,
			Norm:  f / m.fMax,
		})
	}
	if len(m.levels) == 0 {
		return fmt.Errorf("%w: empty voltage ladder", ErrBadParams)
	}
	m.crit = 0
	best := math.Inf(1)
	for i, l := range m.levels {
		if e := m.EnergyPerCycle(l); e < best {
			best, m.crit = e, i
		}
	}
	m.built = true
	return nil
}

// Vth returns the threshold voltage at the given supply voltage, with the
// model's fixed body bias: V_th = V_th1 − K1·Vdd − K2·Vbs.
func (m *Model) Vth(vdd float64) float64 {
	return m.Vth1 - m.K1*vdd - m.K2*m.Vbs
}

// Frequency returns the maximum operating frequency at the given supply
// voltage: f = (Vdd − V_th)^α / (L_d·K6). It returns 0 when Vdd does not
// exceed the threshold voltage.
func (m *Model) Frequency(vdd float64) float64 {
	d := vdd - m.Vth(vdd)
	if d <= 0 {
		return 0
	}
	return math.Pow(d, m.Alpha) / (m.Ld * m.K6)
}

// VddForFrequency inverts Frequency analytically:
// Vdd = (f·L_d·K6)^(1/α) + V_th1 − K2·Vbs, all divided by (1 + K1)… more
// precisely Vdd·(1+K1) = (f·Ld·K6)^(1/α) + Vth1 − K2·Vbs.
func (m *Model) VddForFrequency(f float64) (float64, error) {
	if f <= 0 {
		return 0, fmt.Errorf("%w: frequency %g", ErrBadParams, f)
	}
	d := math.Pow(f*m.Ld*m.K6, 1/m.Alpha)
	return (d + m.Vth1 - m.K2*m.Vbs) / (1 + m.K1), nil
}

// FMax returns the maximum operating frequency (at VddMax).
func (m *Model) FMax() float64 { return m.fMax }

// Levels returns the discrete operating points, ordered from the highest
// voltage (index 0) to the lowest. The slice is owned by the model and must
// not be modified.
func (m *Model) Levels() []Level { return m.levels }

// Level returns the operating point with the given index.
func (m *Model) Level(i int) Level { return m.levels[i] }

// MaxLevel returns the highest-frequency operating point.
func (m *Model) MaxLevel() Level { return m.levels[0] }

// MinLevel returns the lowest-frequency operating point on the ladder.
func (m *Model) MinLevel() Level { return m.levels[len(m.levels)-1] }

// CriticalLevel returns the discrete operating point minimising energy per
// cycle. Scaling the voltage below this point increases total energy when
// idle periods can be served by sleep; the 70 nm default reaches it at
// Vdd = 0.70 V (0.41 normalised frequency).
func (m *Model) CriticalLevel() Level { return m.levels[m.crit] }

// CriticalFrequencyContinuous returns the energy-optimal frequency when the
// voltage may vary continuously, found by golden-section search on energy
// per cycle over Vdd. The 70 nm default yields ≈0.38·f_max.
func (m *Model) CriticalFrequencyContinuous() float64 {
	const phi = 0.6180339887498949
	lo, hi := m.VddMin, m.VddMax
	energyAt := func(vdd float64) float64 {
		f := m.Frequency(vdd)
		if f <= 0 {
			return math.Inf(1)
		}
		return m.Power(vdd, f) / f
	}
	a, b := hi-phi*(hi-lo), lo+phi*(hi-lo)
	fa, fb := energyAt(a), energyAt(b)
	for i := 0; i < 200 && hi-lo > 1e-9; i++ {
		if fa < fb {
			hi, b, fb = b, a, fa
			a = hi - phi*(hi-lo)
			fa = energyAt(a)
		} else {
			lo, a, fa = a, b, fb
			b = lo + phi*(hi-lo)
			fb = energyAt(b)
		}
	}
	return m.Frequency((lo + hi) / 2)
}

// PowerAC returns the dynamic power a·C_eff·Vdd²·f in watts.
func (m *Model) PowerAC(vdd, f float64) float64 {
	return m.Activity * m.Ceff * vdd * vdd * f
}

// PowerDC returns the static (leakage) power
// L_g·(Vdd·I_subn + |Vbs|·I_j) in watts.
func (m *Model) PowerDC(vdd float64) float64 {
	isubn := m.K3 * math.Exp(m.K4*vdd) * math.Exp(m.K5*m.Vbs)
	return m.Lg * (vdd*isubn + math.Abs(m.Vbs)*m.Ij)
}

// Power returns the total power P_AC + P_DC + P_on of an active processor
// running at the given supply voltage and frequency.
func (m *Model) Power(vdd, f float64) float64 {
	return m.PowerAC(vdd, f) + m.PowerDC(vdd) + m.POn
}

// LevelPower returns the total active power at a discrete operating point.
func (m *Model) LevelPower(l Level) float64 { return m.Power(l.Vdd, l.Freq) }

// IdlePower returns the power of a processor that is on but not executing:
// the clock is gated so P_AC vanishes, leaving P_DC + P_on.
func (m *Model) IdlePower(l Level) float64 { return m.PowerDC(l.Vdd) + m.POn }

// EnergyPerCycle returns the energy per clock cycle at a discrete operating
// point, P(l)/f(l), in joules.
func (m *Model) EnergyPerCycle(l Level) float64 {
	return m.LevelPower(l) / l.Freq
}

// LevelForFrequency returns the slowest discrete operating point whose
// frequency is at least f, i.e. the most aggressive feasible DVS setting for
// a computation that must sustain frequency f. It returns ErrInfeasible when
// even the maximum level is too slow.
func (m *Model) LevelForFrequency(f float64) (Level, error) {
	if f > m.fMax*(1+1e-12) {
		return Level{}, fmt.Errorf("%w: need %g Hz, max %g Hz", ErrInfeasible, f, m.fMax)
	}
	// Levels are sorted by descending frequency; take the last feasible one.
	best := m.levels[0]
	for _, l := range m.levels[1:] {
		if l.Freq >= f {
			best = l
		} else {
			break
		}
	}
	return best, nil
}

// BreakevenTime returns the minimum idle duration (seconds) for which
// shutting a processor down saves energy at operating point l: sleeping
// costs EOverhead + t·PSleep versus t·IdlePower(l) for staying idle.
func (m *Model) BreakevenTime(l Level) float64 {
	d := m.IdlePower(l) - m.PSleep
	if d <= 0 {
		return math.Inf(1)
	}
	return m.EOverhead / d
}

// BreakevenCycles returns the minimum beneficial idle period expressed in
// cycles at operating point l (Fig. 3 of the paper: ≈1.7 million cycles at
// half the maximum frequency).
func (m *Model) BreakevenCycles(l Level) float64 {
	return m.BreakevenTime(l) * l.Freq
}
