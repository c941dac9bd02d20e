// Package energy computes the total energy consumption of a static
// multiprocessor schedule executed at one discrete operating point, with or
// without the option to shut idle processors down (de Langen & Juurlink,
// Sections 3.2–3.4 and 4.3).
//
// The accounting model follows the paper exactly:
//
//   - An executing processor consumes the full power P = P_AC + P_DC + P_on.
//   - An idle (on, clock-gated) processor consumes P_DC + P_on.
//   - A sleeping processor consumes P_sleep (50 µW); every shutdown+wakeup
//     costs E_oh (483 µJ). Waking up in time is assumed possible by waking
//     the processor shortly before the end of the idle period, so shutdown
//     never delays the schedule.
//   - Processors that execute no task at all are off and consume nothing;
//     choosing how many processors to employ is the heuristics' job.
//
// With PS enabled, an idle gap of duration t is served by sleep exactly when
// E_oh + t·P_sleep < t·P_idle, i.e. when t exceeds the break-even time of
// Fig. 3; otherwise the processor stays idle.
package energy

import (
	"errors"
	"fmt"

	"lamps/internal/power"
	"lamps/internal/sched"
)

// ErrDeadline is returned when the schedule does not fit the deadline at the
// requested operating point.
var ErrDeadline = errors.New("energy: schedule misses the deadline at this level")

// Options selects the accounting variant.
type Options struct {
	// PS enables processor shutdown: idle gaps longer than the break-even
	// time are served by deep sleep at the cost of the shutdown overhead.
	PS bool
}

// Breakdown itemises where the energy of a schedule goes, in joules.
type Breakdown struct {
	Active   float64 // executing tasks at full power
	Idle     float64 // on but idle (P_DC + P_on)
	Sleep    float64 // in deep sleep (P_sleep)
	Overhead float64 // shutdown + wakeup transitions (E_oh each)

	Shutdowns  int     // number of shutdown+wakeup transitions
	IdleTime   float64 // seconds spent idle (on)
	SleepTime  float64 // seconds spent sleeping
	ActiveTime float64 // processor-seconds spent executing
}

// Total returns the total energy in joules.
func (b Breakdown) Total() float64 {
	return b.Active + b.Idle + b.Sleep + b.Overhead
}

func (b Breakdown) String() string {
	return fmt.Sprintf("total %.6g J (active %.6g, idle %.6g, sleep %.6g, overhead %.6g, %d shutdowns)",
		b.Total(), b.Active, b.Idle, b.Sleep, b.Overhead, b.Shutdowns)
}

// Evaluate computes the energy of executing schedule s at operating point
// lvl with the machine available from time 0 until deadlineSec. Schedule
// times are cycles at maximum frequency, so every interval of c cycles lasts
// c/lvl.Freq seconds. Evaluate returns ErrDeadline if the stretched makespan
// exceeds the deadline (with a one-ULP tolerance for the exact-fit case).
//
// Each idle gap is classified exactly as in the per-gap walk of Fig. 3 —
// sleep when PS is on and the gap outlasts the break-even time, idle
// otherwise — but the idle and sleep totals are summed as exact integer
// cycle counts and converted to seconds and joules once, so the result does
// not depend on gap enumeration order and is bit-identical to the O(log G)
// GapProfile path the search engine uses. Callers evaluating one schedule at
// many operating points should build a GapProfile once instead of calling
// Evaluate per level.
func Evaluate(s *sched.Schedule, m *power.Model, lvl power.Level, deadlineSec float64, opts Options) (Breakdown, error) {
	var p GapProfile
	p.Reset(s)
	return p.Evaluate(m, lvl, deadlineSec, opts)
}

// MinFeasibleLevel returns the slowest operating point at which the
// schedule's makespan still fits the deadline, i.e. the most aggressive DVS
// stretch. This is the "stretch" step of Schedule-and-Stretch.
func MinFeasibleLevel(s *sched.Schedule, m *power.Model, deadlineSec float64) (power.Level, error) {
	return MinFeasibleLevelCycles(s.Makespan, m, deadlineSec)
}

// MinFeasibleLevelCycles is MinFeasibleLevel for an explicit cycle count —
// the fault-tolerant engine passes the recovery makespan here, so the
// chosen stretch leaves room for recovery, not just for the primary
// schedule.
func MinFeasibleLevelCycles(makespan int64, m *power.Model, deadlineSec float64) (power.Level, error) {
	if deadlineSec <= 0 {
		return power.Level{}, fmt.Errorf("%w: non-positive deadline", ErrDeadline)
	}
	need := float64(makespan) / deadlineSec
	lvl, err := m.LevelForFrequency(need)
	if err != nil {
		return power.Level{}, fmt.Errorf("%w: need %.4g Hz for makespan %d cycles in %.4gs",
			ErrDeadline, need, makespan, deadlineSec)
	}
	return lvl, nil
}
