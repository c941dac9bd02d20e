package core

import (
	"fmt"

	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/power"
)

// LimitSF computes the paper's single-frequency lower bound (Section 4.4).
// Idle processors are assumed to consume no energy, the processor count is
// unbounded, and the common frequency is scaled down to the critical
// (energy-optimal) frequency if the deadline allows, or otherwise as little
// above it as the deadline requires: with unlimited processors the best
// achievable makespan is the critical path, so any feasible frequency
// satisfies f ≥ CPL/D. No schedule whose processors all run at one constant
// frequency can consume less energy, independently of the scheduling
// algorithm.
//
// On a platform of several classes every work cycle is charged at the
// cheapest class's energy per cycle at the chosen grid point — no placement
// can execute a cycle for less — at the price of being looser than the
// one-class bound when classes differ.
func LimitSF(g *dag.Graph, cfg Config) (*Result, error) {
	pf, err := cfg.limitMachine(g)
	if err != nil {
		return nil, err
	}
	top, err := pf.PointForFrequency(float64(g.CriticalPathLength()) / cfg.Deadline)
	if err != nil {
		return nil, fmt.Errorf("%w: CPL %d cycles does not fit %.4gs at f_max",
			ErrInfeasible, g.CriticalPathLength(), cfg.Deadline)
	}
	// Points 0..top.Index are feasible. On one ladder energy per cycle falls
	// monotonically from f_max down to the critical level, so the slower of
	// that level and top is optimal; across classes the interleaved ladders
	// break the monotonicity, so every feasible point is scanned.
	points := pf.Points()[:top.Index+1]
	if pf.IsHomogeneous() {
		i := min(top.Index, pf.ClassModel(0).CriticalLevel().Index)
		points = points[i : i+1]
	}
	best, bestE := points[0], minEnergyPerCycle(pf, points[0])
	for _, pt := range points[1:] {
		if e := minEnergyPerCycle(pf, pt); e < bestE {
			best, bestE = pt, e
		}
	}
	return limitResult(ApproachLimitSF, g, &cfg, best.Levels[pf.RefClass()], best, bestE,
		best.TimelineFreq, len(points)), nil
}

// LimitMF computes the paper's multiple-frequency lower bound (Section
// 4.4): every task runs at the critical frequency and idle processors
// consume nothing, so the energy is W times the minimum energy per cycle —
// on a platform, the cheapest class's at its critical level. This is an
// absolute lower bound even when processors may run at different
// frequencies and those frequencies may change over time; note that the
// implied schedule may miss the deadline (the bound ignores it).
func LimitMF(g *dag.Graph, cfg Config) (*Result, error) {
	pf, err := cfg.limitMachine(g)
	if err != nil {
		return nil, err
	}
	lvl := pf.ClassModel(0).CriticalLevel()
	bestE := pf.ClassModel(0).EnergyPerCycle(lvl)
	for c := 1; c < pf.NumClasses(); c++ {
		m := pf.ClassModel(c)
		if e := m.EnergyPerCycle(m.CriticalLevel()); e < bestE {
			lvl, bestE = m.CriticalLevel(), e
		}
	}
	return limitResult(ApproachLimitMF, g, &cfg, lvl, power.OperatingPoint{}, bestE, lvl.Freq, 1), nil
}

// limitMachine validates cfg and returns the machine a LIMIT bound is
// computed on: the configured platform, or a one-class platform of the
// model. The bounds read only its ladder, so any processor count serves,
// and a pooled arena's cached platform of the same model is reused: a warm
// bound builds no platform.
func (c *Config) limitMachine(g *dag.Graph) (*power.Platform, error) {
	if err := c.validate(g); err != nil {
		return nil, err
	}
	if c.Platform != nil {
		return c.Platform, nil
	}
	a := arenaPool.Get().(*arena)
	defer arenaPool.Put(a)
	return a.homogeneous(c.model(), 1)
}

// limitResult reports a closed-form bound: the graph's W work cycles at
// epc joules each, executed at freq. Only a heterogeneous result carries
// the platform and its grid point.
func limitResult(approach string, g *dag.Graph, cfg *Config, lvl power.Level, pt power.OperatingPoint, epc, freq float64, levels int) *Result {
	w := float64(g.TotalWork())
	res := &Result{
		Approach: approach,
		Graph:    g,
		Level:    lvl,
		Energy:   energy.Breakdown{Active: w * epc, ActiveTime: w / freq},
		Stats:    Stats{LevelsEvaluated: levels},
	}
	if cfg.heterogeneous() {
		res.Platform, res.Point = cfg.Platform, pt
	}
	return res
}

// minEnergyPerCycle returns the cheapest class's energy per cycle at pt.
func minEnergyPerCycle(pf *power.Platform, pt power.OperatingPoint) float64 {
	best := pf.ClassModel(0).EnergyPerCycle(pt.Levels[0])
	for c := 1; c < pf.NumClasses(); c++ {
		if e := pf.ClassModel(c).EnergyPerCycle(pt.Levels[c]); e < best {
			best = e
		}
	}
	return best
}

// EnergySaving returns the fraction of the possible energy reduction that a
// heuristic attains, using S&S as the baseline and LIMIT-SF as the maximum,
// as in the paper's Section 5.2 ("LAMPS+PS attains more than 94% of the
// possible energy reduction"). It returns 1 when baseline and limit
// coincide.
func EnergySaving(baseline, achieved, limit float64) float64 {
	den := baseline - limit
	if den <= 0 {
		return 1
	}
	return (baseline - achieved) / den
}
