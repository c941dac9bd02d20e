package core

import (
	"context"
	"fmt"

	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/power"
	"lamps/internal/sched"
)

// Approach names, as used in the paper's figures and tables.
const (
	ApproachSS      = "S&S"
	ApproachLAMPS   = "LAMPS"
	ApproachSSPS    = "S&S+PS"
	ApproachLAMPSPS = "LAMPS+PS"
	ApproachLimitSF = "LIMIT-SF"
	ApproachLimitMF = "LIMIT-MF"
)

// Approaches lists the heuristics and bounds in the paper's presentation
// order.
var Approaches = []string{
	ApproachSS, ApproachLAMPS, ApproachSSPS, ApproachLAMPSPS,
	ApproachLimitSF, ApproachLimitMF,
}

// Stats reports the search effort of a heuristic, mirroring the paper's
// complexity discussion T_LAMPS = log2(N_upb − N_lwb)·T_ls + M·T_ls.
type Stats struct {
	SchedulesBuilt  int // list-scheduling invocations
	LevelsEvaluated int // (schedule, level) energy evaluations
}

// Add accumulates another snapshot into s. Long-running callers (the
// serving layer's metrics, sweep harnesses) use it to aggregate search
// effort across many heuristic invocations.
func (s *Stats) Add(o Stats) {
	s.SchedulesBuilt += o.SchedulesBuilt
	s.LevelsEvaluated += o.LevelsEvaluated
}

// Result is the outcome of one heuristic or bound on one task graph.
type Result struct {
	Approach string
	Graph    *dag.Graph

	// NumProcs is the number of processors employed (turned on). For the
	// LIMIT-* bounds, which assume idle processors consume nothing, it is 0.
	NumProcs int

	// Level is the common operating point of all employed processors. On a
	// heterogeneous platform it is the reference class's ladder level of
	// Point, kept for homogeneous consumers.
	Level power.Level

	// Platform is the heterogeneous machine the result was computed for, or
	// nil on an identical-processor machine (a Model config or a one-class
	// Platform), whose operating point is Level alone.
	Platform *power.Platform

	// Point is the winning platform operating point: one per-class ladder
	// level vector plus the shared timeline frequency. Point.Levels is nil
	// when Platform is.
	Point power.OperatingPoint

	// Schedule is the task placement (nil for the LIMIT-* bounds). On a
	// heterogeneous platform its times are reference-class timeline cycles.
	Schedule *sched.Schedule

	// Backups is the statically reserved recovery layer when the config
	// requested fault tolerance (Config.Faults with K > 0): one backup slot
	// per task on the schedule's slack, nil otherwise. Its reserved cycles
	// are already charged as idle time in Energy.
	Backups *sched.BackupPlan

	// Energy is the full energy breakdown.
	Energy energy.Breakdown

	Stats Stats
}

// TotalEnergy returns the total energy in joules.
func (r *Result) TotalEnergy() float64 { return r.Energy.Total() }

// MakespanSec returns the stretched schedule length in seconds, or 0 for
// the LIMIT-* bounds. On a heterogeneous platform the schedule's timeline
// cycles convert at the operating point's timeline frequency.
func (r *Result) MakespanSec() float64 {
	if r.Schedule == nil {
		return 0
	}
	if r.Platform != nil {
		return float64(r.Schedule.Makespan) / r.Point.TimelineFreq
	}
	return float64(r.Schedule.Makespan) / r.Level.Freq
}

// RecoveryMakespanSec returns the worst-case schedule length in seconds
// when recovery is exercised — the latest backup finish at the winning
// operating point — or 0 when the result carries no backup plan.
func (r *Result) RecoveryMakespanSec() float64 {
	if r.Backups == nil {
		return 0
	}
	if r.Platform != nil {
		return float64(r.Backups.RecoveryMakespan) / r.Point.TimelineFreq
	}
	return float64(r.Backups.RecoveryMakespan) / r.Level.Freq
}

func (r *Result) String() string {
	if r.Schedule == nil {
		return fmt.Sprintf("%s: %.6g J at %v", r.Approach, r.TotalEnergy(), r.Level)
	}
	return fmt.Sprintf("%s: %.6g J on %d processor(s) at %v (makespan %.4gs, %d shutdowns)",
		r.Approach, r.TotalEnergy(), r.NumProcs, r.Level, r.MakespanSec(), r.Energy.Shutdowns)
}

// Run dispatches an approach by name. It powers the CLI and the experiment
// harness.
func Run(approach string, g *dag.Graph, cfg Config) (*Result, error) {
	return RunCtx(context.Background(), approach, g, cfg)
}

// RunCtx is Run with cooperative cancellation: it returns ctx.Err() (wrapped
// in at most one layer recognised by errors.Is) as soon as the current
// search step — at most one list-scheduling call — completes after ctx is
// done.
func RunCtx(ctx context.Context, approach string, g *dag.Graph, cfg Config) (*Result, error) {
	return (&Engine{Config: cfg}).Run(ctx, approach, g)
}
