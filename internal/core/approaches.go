package core

import (
	"context"
	"errors"
	"fmt"

	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/sched"
)

// The package-level heuristic functions are thin wrappers over Engine: they
// run a serial engine with no observer under context.Background(). Callers
// that need cancellation use RunCtx; progress hooks and parallel search
// need an Engine.

// ScheduleAndStretch implements the S&S baseline (Section 4.1): schedule
// with LS-EDF on as many processors as reduce the makespan, then scale the
// common frequency down so the schedule finishes as close as possible to
// the deadline. Idle processors stay on.
func ScheduleAndStretch(g *dag.Graph, cfg Config) (*Result, error) {
	return Run(ApproachSS, g, cfg)
}

// ScheduleAndStretchPS implements S&S+PS (Section 4.3): like S&S, but the
// operating frequency is swept from the maximum down to the minimum
// feasible level, and at each level the slack — inside the schedule as well
// as at its end — is used to shut processors down whenever an idle period
// exceeds the break-even time. The cheapest balance wins.
func ScheduleAndStretchPS(g *dag.Graph, cfg Config) (*Result, error) {
	return Run(ApproachSSPS, g, cfg)
}

// LAMPS implements Leakage-Aware MultiProcessor Scheduling (Section 4.2):
// determine the balance between the number of employed processors and the
// depth of voltage scaling that minimises total energy; the remaining
// processors are turned off.
func LAMPS(g *dag.Graph, cfg Config) (*Result, error) {
	return Run(ApproachLAMPS, g, cfg)
}

// LAMPSPS implements LAMPS+PS (Section 4.3): LAMPS extended with the option
// to shut employed processors down temporarily, choosing for every
// processor count the frequency that best balances DVS against shutdown.
func LAMPSPS(g *dag.Graph, cfg Config) (*Result, error) {
	return Run(ApproachLAMPSPS, g, cfg)
}

// lampsCommon runs the shared LAMPS structure with an explicit approach
// label and sweep choice; the voltage-island extension (and its tests) use
// it to obtain the uniform-frequency baseline under either sweep mode.
func lampsCommon(approach string, g *dag.Graph, cfg Config, ps bool) (*Result, error) {
	return (&Engine{Config: cfg}).lamps(context.Background(), approach, g, ps)
}

// wrapInfeasible maps a deadline violation at the maximum level — meaning
// the deadline is unreachable for this schedule — onto the package's
// ErrInfeasible sentinel. A backup-placement failure (the machine has no
// second processor to host recovery slots) is the fault-tolerant analogue
// and maps the same way.
func wrapInfeasible(err error) error {
	if errors.Is(err, energy.ErrDeadline) || errors.Is(err, sched.ErrBackupInfeasible) {
		return fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	return err
}
