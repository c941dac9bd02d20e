// Package frames translates periodic real-time task sets into frame-based
// task DAGs, the transformation of Liberato et al. (ECRTS'99) that the
// paper invokes in Section 3.1 to connect its DAG model with the periodic
// model of Jejurikar et al. One hyperperiod of the set becomes a frame:
// every job of every periodic task is a node, consecutive jobs of the same
// task are chained, each job carries its release time (job index times the
// period) and its absolute deadline.
//
// On top of the translation, Schedule runs a LAMPS-style search for the
// processor count and common operating point that minimise the energy of
// one hyperperiod while every job meets its deadline — extending the
// paper's leakage-aware scheduling to the periodic task model its
// single-processor related work uses. It owns no scheduler and no energy
// accounting: the frame DAG goes through the same list-scheduling kernel
// and the same gap-profile pricing as every DAG the engine schedules, so
// its plans answer to the same independent verifier.
package frames

import (
	"errors"
	"fmt"
	"math"
	"math/big"

	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/power"
	"lamps/internal/sched"
)

// Errors returned by the package.
var (
	ErrBadTask    = errors.New("frames: invalid task")
	ErrEmpty      = errors.New("frames: empty task set")
	ErrInfeasible = errors.New("frames: no feasible configuration")
	ErrTooLarge   = errors.New("frames: frame too large")
)

// Limits on the frame a task set unrolls into. Below maxHyperperiod
// (2^53, dag.MaxCycles) every release and deadline is exact as a float64;
// maxJobs bounds the frame DAG, and is checked from the periods before any
// of it is built.
const (
	maxHyperperiod = int64(1) << 53
	maxJobs        = 1 << 16
)

// Task is a periodic real-time task. All times are in cycles at the maximum
// frequency; the period doubles as wall-clock quantity (cycles at f_max are
// a fixed unit of time).
type Task struct {
	Name     string
	WCET     int64 // worst-case execution time per job
	Period   int64
	Deadline int64 // relative deadline; 0 means the period (implicit)
}

// Set is a periodic task set.
type Set struct {
	tasks []Task
}

// NewSet returns an empty task set.
func NewSet() *Set { return &Set{} }

// Add appends a task after validating it.
func (s *Set) Add(t Task) error {
	if t.WCET <= 0 || t.Period <= 0 {
		return fmt.Errorf("%w: %q WCET %d period %d", ErrBadTask, t.Name, t.WCET, t.Period)
	}
	if t.Deadline < 0 {
		return fmt.Errorf("%w: %q negative deadline", ErrBadTask, t.Name)
	}
	if t.Deadline == 0 {
		t.Deadline = t.Period
	}
	if t.WCET > t.Deadline {
		return fmt.Errorf("%w: %q WCET %d exceeds deadline %d", ErrBadTask, t.Name, t.WCET, t.Deadline)
	}
	s.tasks = append(s.tasks, t)
	return nil
}

// Len returns the number of periodic tasks.
func (s *Set) Len() int { return len(s.tasks) }

// Utilization returns the total processor utilization sum(WCET/Period) at
// maximum frequency; it lower-bounds the required processor count.
func (s *Set) Utilization() float64 {
	var u float64
	for _, t := range s.tasks {
		u += float64(t.WCET) / float64(t.Period)
	}
	return u
}

// Hyperperiod returns the least common multiple of all periods, or
// ErrTooLarge when it exceeds 2^53 cycles.
func (s *Set) Hyperperiod() (int64, error) {
	if len(s.tasks) == 0 {
		return 0, ErrEmpty
	}
	l := int64(1)
	for _, t := range s.tasks {
		q := l / gcd(l, t.Period)
		if q > maxHyperperiod/t.Period {
			return 0, fmt.Errorf("%w: hyperperiod above 2^53 cycles (periods too co-prime)", ErrTooLarge)
		}
		l = q * t.Period
	}
	return l, nil
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// FrameDAG unrolls one hyperperiod into a DAG plus per-job release times
// and absolute deadlines (both in cycles at f_max). Jobs of one task are
// chained to enforce job order; there are no cross-task edges (the periodic
// model has independent tasks). A frame of more than 65,536 jobs is
// ErrTooLarge, refused before any of it is built.
func (s *Set) FrameDAG() (g *dag.Graph, releases, deadlines []int64, err error) {
	h, err := s.Hyperperiod()
	if err != nil {
		return nil, nil, nil, err
	}
	jobs := int64(0)
	for _, t := range s.tasks {
		if jobs += h / t.Period; jobs > maxJobs {
			return nil, nil, nil, fmt.Errorf("%w: more than %d jobs in a hyperperiod of %d cycles",
				ErrTooLarge, maxJobs, h)
		}
	}
	b := dag.NewBuilder("frame")
	for _, t := range s.tasks {
		prev := -1
		for k := int64(0); k < h/t.Period; k++ {
			v := b.AddLabeledTask(t.WCET, fmt.Sprintf("%s#%d", t.Name, k))
			releases = append(releases, k*t.Period)
			deadlines = append(deadlines, k*t.Period+t.Deadline)
			if prev >= 0 {
				b.AddEdge(prev, v)
			}
			prev = v
		}
	}
	g, err = b.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	return g, releases, deadlines, nil
}

// Plan is a feasible leakage-aware configuration for one hyperperiod.
type Plan struct {
	NumProcs int
	Level    power.Level
	// Schedule is in cycles executed at Level's frequency, like every
	// engine result's schedule: a job over [Start, Finish) runs from
	// Start/Level.Freq to Finish/Level.Freq seconds into the hyperperiod.
	Schedule *sched.Schedule
	EnergyJ  float64 // joules per hyperperiod, Breakdown.Total()
	energy.Breakdown
}

// Schedule searches processor counts and discrete operating points for the
// energy-minimal configuration in which every job of every periodic task
// meets its absolute deadline within the hyperperiod. PS enables processor
// shutdown during gaps. MaxProcs (0 = automatic) caps the processor count.
//
// At each operating point of frequency f the frame DAG is scheduled as it
// is, in cycles at f. Job weights are cycles and need no conversion;
// releases and deadlines are wall-clock instants, so they are converted
// instead: a release r becomes ceil(r·f/f_max) cycles and a deadline d
// floor(d·f/f_max), in exact arithmetic, so a job's window can only narrow
// in wall-clock time. The frame repeats every hyperperiod, so no job may
// finish past its end: a later deadline is cut to it. Each (count, point)
// that meets every deadline is priced over the hyperperiod by the energy
// package's gap profile, as the engine prices its candidates.
func (s *Set) Schedule(m *power.Model, ps bool, maxProcs int) (*Plan, error) {
	g, releases, deadlines, err := s.FrameDAG()
	if err != nil {
		return nil, err
	}
	h, _ := s.Hyperperiod() // FrameDAG has checked it
	nmax := g.MaxWidth()
	if maxProcs > 0 && maxProcs < nmax {
		nmax = maxProcs
	}
	nmin := max(1, int(math.Ceil(s.Utilization())))
	pf, err := power.Homogeneous(nmax, m)
	if err != nil {
		return nil, err
	}
	fmax := pf.RefFMax()
	horizonSec := float64(h) / fmax
	rel := make([]int64, len(releases))
	dl := make([]int64, len(deadlines))
	var (
		conv windowScale
		k    sched.Scheduler
		sc   sched.Schedule
		prof energy.GapProfile
		best *Plan
	)
	for _, pt := range pf.Points() {
		conv.reset(pt.TimelineFreq, fmax)
		for v := range rel {
			rel[v] = conv.at(releases[v], true)
			dl[v] = conv.at(min(deadlines[v], h), false)
		}
		prio, err := sched.DeadlinePriorities(g, dl)
		if err != nil {
			return nil, err
		}
		for n := nmin; n <= nmax; n++ {
			if err := k.ScheduleInto(&sc, g, n, prio, rel); err != nil {
				return nil, err
			}
			if !meetsAll(&sc, dl) {
				continue
			}
			prof.ResetPlatform(&sc, pf)
			b, err := prof.EvaluatePoint(pf, pt, horizonSec, energy.Options{PS: ps})
			if err != nil {
				return nil, err
			}
			if best == nil || b.Total() < best.EnergyJ {
				best = &Plan{NumProcs: n, Level: pt.Levels[0], Schedule: sc.CloneCompact(),
					EnergyJ: b.Total(), Breakdown: b}
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: utilization %.2f, max %d processors",
			ErrInfeasible, s.Utilization(), nmax)
	}
	return best, nil
}

// windowScale converts instants in cycles at f_max into cycles at f by the
// exact ratio f/f_max, with reusable big-integer scratch.
type windowScale struct{ num, den, q, r big.Int }

func (w *windowScale) reset(f, fmax float64) {
	ratio := new(big.Rat).SetFloat64(f)
	ratio.Quo(ratio, new(big.Rat).SetFloat64(fmax))
	w.num.Set(ratio.Num())
	w.den.Set(ratio.Denom())
}

// at returns t·f/f_max for t >= 0, rounded up when up is set and down
// otherwise.
func (w *windowScale) at(t int64, up bool) int64 {
	w.q.SetInt64(t)
	w.q.Mul(&w.q, &w.num)
	w.q.QuoRem(&w.q, &w.den, &w.r)
	if up && w.r.Sign() != 0 {
		return w.q.Int64() + 1
	}
	return w.q.Int64()
}

func meetsAll(sc *sched.Schedule, deadlines []int64) bool {
	for v, d := range deadlines {
		if sc.Finish[v] > d {
			return false
		}
	}
	return true
}
