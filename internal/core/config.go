// Package core implements the leakage-aware multiprocessor scheduling
// heuristics of de Langen & Juurlink (Section 4):
//
//   - Schedule & Stretch (S&S): schedule on as many processors as reduce the
//     makespan, then use all slack before the deadline for DVS.
//   - LAMPS: additionally search for the number of processors that minimises
//     the total energy, turning the remaining processors off.
//   - S&S+PS and LAMPS+PS: additionally balance DVS against temporarily
//     shutting idle processors down during gaps and trailing slack.
//   - LIMIT-SF and LIMIT-MF: absolute lower bounds for, respectively, a
//     single constant frequency and per-processor time-varying frequencies.
//
// All heuristics schedule with list scheduling + earliest deadline first and
// keep one frequency for all processors for the whole schedule, exactly as
// in the paper.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"lamps/internal/dag"
	"lamps/internal/power"
	"lamps/internal/sched"
)

// Errors returned by the heuristics.
var (
	// ErrInfeasible is returned when the task graph cannot meet the deadline
	// even with unlimited processors at maximum frequency.
	ErrInfeasible = errors.New("core: deadline infeasible even at maximum frequency")
	// ErrBadConfig is returned for invalid configurations.
	ErrBadConfig = errors.New("core: invalid configuration")
)

// Config carries the platform and problem parameters shared by all
// heuristics.
type Config struct {
	// Model is the processor power model. Nil selects power.Default70nm().
	// Mutually exclusive with Platform.
	Model *power.Model

	// Platform optionally describes a heterogeneous machine: an ordered
	// vector of processors drawn from named core classes, each with its own
	// power model and frequency ladder. Every run evaluates on a platform:
	// with Platform nil the engine runs on a one-class platform of Model, so
	// the paper's identical-processor machine is the one-class case, and a
	// homogeneous Platform of n copies of model m yields results
	// byte-identical to Model: m with MaxProcs: n. Setting both Model and
	// Platform is rejected by validate.
	Platform *power.Platform

	// Deadline is the global deadline in seconds. The paper evaluates
	// deadlines of 1.5, 2, 4 and 8 times the critical path length at maximum
	// frequency; DeadlineFactor is a convenience for that.
	Deadline float64

	// MaxProcs optionally caps the number of processors considered
	// (0 = bounded only by the graph's parallelism).
	MaxProcs int

	// Priorities optionally overrides the list-scheduling priority policy
	// (lower value = dispatched first among ready tasks). Nil selects EDF,
	// the policy used throughout the paper. Exposed for the ablation
	// experiments suggested in the paper's Section 6.
	Priorities func(*dag.Graph) []int64

	// SelfCheck runs every schedule the engine builds through the
	// independent first-principles verifier (internal/verify) and re-derives
	// the winning result's energy breakdown with the verifier's linear gap
	// walk, requiring bit-for-bit agreement. Any violation surfaces as an
	// error carrying a minimal repro dump and matching verify.ErrViolation.
	// Off by default: when false the engine takes no verification branch at
	// all, so the hot paths (and their zero-allocation guarantees) are
	// untouched.
	SelfCheck bool

	// Faults, when non-nil with K > 0, requests k-fault-tolerant schedules:
	// every task gets a statically reserved backup slot on another
	// processor, the deadline must cover the recovery makespan (the latest
	// backup finish), and the reserved slots are charged as idle time in the
	// leakage-aware objective. Nil — or K == 0 — plans no backups, and a
	// run without a backup plan is priced exactly like one whose plan
	// reserves nothing, so K=0 results are byte-identical to a config
	// without Faults.
	Faults *FaultConfig
}

// FaultPolicy selects where backup slots go; re-exported from
// internal/sched for API convenience.
type FaultPolicy = sched.FaultPolicy

// The fault policies understood by FaultConfig.Policy.
const (
	// FaultBackupAnywhere places each backup on whichever other processor
	// finishes it earliest.
	FaultBackupAnywhere = sched.BackupAnywhere
	// FaultPrimaryHPBackupLP keeps backups off the platform's reference
	// (HP) class whenever possible; meaningful only on a heterogeneous
	// platform.
	FaultPrimaryHPBackupLP = sched.PrimaryHPBackupLP
)

// FaultConfig parameterises k-fault tolerance.
type FaultConfig struct {
	// K is the number of transient task faults the schedule must survive
	// while still meeting the deadline. Every task carries a backup
	// regardless of K (the static plan is K-independent — see
	// sched.PlanBackups), so K gates only whether fault tolerance is on
	// (K > 0) and how large a fault-pattern space the verification campaign
	// replays. K == 0 disables fault tolerance entirely.
	K int

	// Policy selects backup placement. Empty selects FaultBackupAnywhere.
	Policy FaultPolicy
}

// faultsOn reports whether the run takes the fault-tolerant path.
func (c *Config) faultsOn() bool {
	return c.Faults != nil && c.Faults.K > 0
}

// faultPolicy returns the effective backup placement policy.
func (c *Config) faultPolicy() sched.FaultPolicy {
	if c.Faults == nil || c.Faults.Policy == "" {
		return sched.BackupAnywhere
	}
	return c.Faults.Policy
}

// DeadlineFactor returns a Config whose deadline is factor times the
// critical path length of g at the model's maximum frequency, the parametric
// form used in the paper's evaluation.
func DeadlineFactor(g *dag.Graph, m *power.Model, factor float64) Config {
	if m == nil {
		m = power.Default70nm()
	}
	return Config{
		Model:    m,
		Deadline: factor * float64(g.CriticalPathLength()) / m.FMax(),
	}
}

// defaultModel returns the model of a config that sets neither Model nor
// Platform. One shared instance keeps the model pointer stable across
// requests, so a request arena's one-class platform survives reuse.
var defaultModel = sync.OnceValue(power.Default70nm)

// model returns the model of a homogeneous machine: the explicit Model, a
// homogeneous Platform's only class, or the default.
func (c *Config) model() *power.Model {
	if c.Model != nil {
		return c.Model
	}
	if c.Platform != nil {
		return c.Platform.ClassModel(0)
	}
	return defaultModel()
}

// heterogeneous reports whether the config describes a platform with more
// than one core class. Only such runs report their Platform and operating
// Point in the Result; every other run is the paper's identical-processor
// machine.
func (c *Config) heterogeneous() bool {
	return c.Platform != nil && !c.Platform.IsHomogeneous()
}

func (c *Config) validate(g *dag.Graph) error {
	if g == nil || g.NumTasks() == 0 {
		return fmt.Errorf("%w: empty graph", ErrBadConfig)
	}
	if c.Deadline <= 0 {
		return fmt.Errorf("%w: deadline %g", ErrBadConfig, c.Deadline)
	}
	if c.MaxProcs < 0 {
		return fmt.Errorf("%w: MaxProcs %d", ErrBadConfig, c.MaxProcs)
	}
	if c.Model != nil && c.Platform != nil {
		return fmt.Errorf("%w: both Model and Platform set", ErrBadConfig)
	}
	if c.Faults != nil {
		if c.Faults.K < 0 {
			return fmt.Errorf("%w: Faults.K %d", ErrBadConfig, c.Faults.K)
		}
		switch c.Faults.Policy {
		case "", FaultBackupAnywhere, FaultPrimaryHPBackupLP:
		default:
			return fmt.Errorf("%w: unknown fault policy %q", ErrBadConfig, c.Faults.Policy)
		}
		if c.faultsOn() {
			if c.MaxProcs == 1 {
				return fmt.Errorf("%w: fault tolerance needs at least two processors, MaxProcs is 1", ErrBadConfig)
			}
			if c.Platform != nil && c.Platform.NumProcs() < 2 {
				return fmt.Errorf("%w: fault tolerance needs at least two processors, platform has %d",
					ErrBadConfig, c.Platform.NumProcs())
			}
		}
	}
	if pf := c.Platform; pf != nil {
		// dag.Builder holds work + CPL to dag.MaxCycles raw cycles; a class
		// slot lasts up to Scale times its weight on the shared timeline,
		// so the envelope has to hold after the slowest class's stretch too.
		scale := 1.0
		for cl := 0; cl < pf.NumClasses(); cl++ {
			scale = math.Max(scale, pf.Scale(cl))
		}
		if env := g.TotalWork() + g.CriticalPathLength(); float64(env)*scale > dag.MaxCycles {
			return fmt.Errorf("%w: work + critical path of %d cycles passes %d timeline cycles at the platform's slot stretch %g",
				dag.ErrBadWeight, env, int64(dag.MaxCycles), scale)
		}
	}
	return nil
}

// maxUsefulProcs returns the largest processor count worth considering:
// the graph's maximum width (with that many processors LS-EDF dispatches
// every task at its earliest start, achieving the CPL makespan), clipped by
// MaxProcs and — when a Platform is set — by the platform's physical size.
// On a heterogeneous machine the width cap does not apply: the processor
// count selects a prefix of the platform vector, so counts beyond the
// graph's width can still shorten the schedule by bringing faster-class
// cores into play (a serial chain needs the whole prefix up to the HP core).
func (c *Config) maxUsefulProcs(g *dag.Graph) int {
	n := g.MaxWidth()
	if c.heterogeneous() {
		n = c.Platform.NumProcs()
	}
	if c.MaxProcs > 0 && c.MaxProcs < n {
		n = c.MaxProcs
	}
	if c.Platform != nil && c.Platform.NumProcs() < n {
		n = c.Platform.NumProcs()
	}
	if n < 1 {
		n = 1
	}
	if c.faultsOn() && n < 2 {
		// A backup never shares its primary's processor, so fault-tolerant
		// runs need a second one even for a serial graph. validate already
		// rejected machines that cannot provide it.
		n = 2
	}
	return n
}

// DeadlineFactorPlatform is DeadlineFactor for a heterogeneous platform: the
// deadline is factor times the critical path length at the platform's
// reference frequency — the best case, with the whole critical path on the
// fastest class.
func DeadlineFactorPlatform(g *dag.Graph, pf *power.Platform, factor float64) Config {
	return Config{
		Platform: pf,
		Deadline: factor * float64(g.CriticalPathLength()) / pf.RefFMax(),
	}
}
