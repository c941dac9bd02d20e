package energy

import (
	"fmt"

	"lamps/internal/power"
)

// MinFeasiblePointCycles returns the slowest platform operating point at
// which a timeline makespan of the given cycle count still fits the
// deadline — the platform analogue of MinFeasibleLevelCycles. The engine
// passes a schedule's makespan, or on the fault-tolerant path its recovery
// makespan.
func MinFeasiblePointCycles(makespan int64, pf *power.Platform, deadlineSec float64) (power.OperatingPoint, error) {
	if deadlineSec <= 0 {
		return power.OperatingPoint{}, fmt.Errorf("%w: non-positive deadline", ErrDeadline)
	}
	pts := FeasiblePointsCycles(makespan, pf, deadlineSec)
	if len(pts) == 0 {
		// One class's timeline cycles are plain cycles, and its message
		// reads exactly as MinFeasibleLevelCycles'.
		unit := "timeline cycles"
		if pf.NumClasses() == 1 {
			unit = "cycles"
		}
		return power.OperatingPoint{}, fmt.Errorf("%w: need %.4g Hz for makespan %d %s in %.4gs",
			ErrDeadline, float64(makespan)/deadlineSec, makespan, unit, deadlineSec)
	}
	return pts[len(pts)-1], nil
}

// FeasiblePointsCycles returns every platform operating point at which a
// timeline makespan of the given cycle count meets the deadline, fastest
// first — the grid the +PS sweep iterates. It is empty when no point does,
// and allocates nothing, so a search can test many makespans and leave the
// error message to MinFeasiblePointCycles for the one miss it reports.
func FeasiblePointsCycles(makespan int64, pf *power.Platform, deadlineSec float64) []power.OperatingPoint {
	if deadlineSec <= 0 {
		return nil
	}
	return pf.PointsFor(float64(makespan) / deadlineSec)
}
