// Package lamps is a library for leakage-aware multiprocessor scheduling,
// reproducing de Langen & Juurlink, "Leakage-Aware Multiprocessor
// Scheduling" (IPPS 2006 / J. Signal Processing Systems 2008).
//
// Given a real-time application modelled as a weighted task DAG and a
// multiprocessor whose cores support dynamic voltage scaling (DVS) and a
// deep-sleep state, the library finds schedules that minimise total energy —
// dynamic, leakage and intrinsic — under a deadline, by trading off three
// mechanisms:
//
//   - DVS: run all processors at a lower common voltage/frequency,
//   - processor shutdown (PS): put idle processors to sleep during gaps,
//   - processor-count selection: employ fewer processors and turn the rest
//     off entirely.
//
// Four scheduling approaches are provided: the Schedule-and-Stretch baseline
// (S&S), the leakage-aware processor-count search (LAMPS), and both extended
// with shutdown (S&S+PS, LAMPS+PS), plus two absolute lower bounds
// (LIMIT-SF, LIMIT-MF) to gauge remaining headroom.
//
// # Quick start
//
//	b := lamps.NewGraphBuilder("pipeline")
//	t1 := b.AddTask(2 * lamps.Millisecond)   // weights in cycles at f_max
//	t2 := b.AddTask(6 * lamps.Millisecond)
//	b.AddEdge(t1, t2)
//	g, _ := b.Build()
//
//	cfg := lamps.DeadlineFactor(g, nil, 2)   // deadline = 2x critical path
//	res, _ := lamps.LAMPSPS(g, cfg)
//	fmt.Println(res)                         // energy, #processors, level
//
// The power model defaults to the paper's 70 nm technology (3.1 GHz at
// 1.0 V, discrete 0.05 V steps, critical frequency 0.41·f_max); see
// Default70nm to customise it.
package lamps

import (
	"context"
	"io"

	"lamps/internal/core"
	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/frames"
	"lamps/internal/kpn"
	"lamps/internal/mpeg"
	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/sim"
	"lamps/internal/stg"
	"lamps/internal/taskgen"
	"lamps/internal/workpool"
)

// Millisecond is the number of cycles per millisecond at the default
// maximum frequency (3.1 GHz), handy for writing task weights.
const Millisecond = 3_100_000

// Task graph model (see internal/dag).
type (
	// Graph is an immutable weighted task DAG.
	Graph = dag.Graph
	// GraphBuilder assembles a Graph incrementally.
	GraphBuilder = dag.Builder
)

// NewGraphBuilder returns an empty builder for a task graph.
func NewGraphBuilder(name string) *GraphBuilder { return dag.NewBuilder(name) }

// Power model (see internal/power).
type (
	// PowerModel holds technology constants and platform parameters.
	PowerModel = power.Model
	// Level is one discrete voltage/frequency operating point.
	Level = power.Level
)

// Default70nm returns the paper's 70 nm power model (Table 1 constants,
// P_on = 0.1 W, sleep power 50 µW, shutdown overhead 483 µJ).
func Default70nm() *PowerModel { return power.Default70nm() }

// Heterogeneous platforms (see internal/power): an ordered vector of
// processors drawn from named core classes, each class with its own power
// model and frequency ladder. Passing a Platform in Config.Platform (instead
// of a Model) runs every approach on the heterogeneous machine; a platform
// whose classes are all identical produces results byte-identical to the
// equivalent homogeneous Model configuration.
type (
	// Platform is an immutable heterogeneous machine description.
	Platform = power.Platform
	// CoreClass names one processor type and its power model.
	CoreClass = power.CoreClass
	// OperatingPoint is one machine-wide DVS setting: a realising ladder
	// level per core class at a common normalised speed.
	OperatingPoint = power.OperatingPoint
)

// NewPlatform builds a platform from core classes and a processor-to-class
// assignment (procs[p] indexes classes).
func NewPlatform(classes []CoreClass, procs []int) (*Platform, error) {
	return power.NewPlatform(classes, procs)
}

// HomogeneousPlatform returns an n-processor platform with a single core
// class using model m (nil selects the 70 nm default) — the degenerate form
// every heterogeneous code path collapses to.
func HomogeneousPlatform(n int, m *PowerModel) (*Platform, error) {
	return power.Homogeneous(n, m)
}

// LoadPlatformJSON reads a platform description in the canonical JSON form
// (see Platform.WriteJSON and examples/platforms/).
func LoadPlatformJSON(r io.Reader) (*Platform, error) { return power.LoadPlatformJSON(r) }

// DeadlineFactorPlatform is DeadlineFactor against a heterogeneous platform:
// the deadline is factor times the critical path length of g at the
// platform's reference (fastest-class) frequency.
func DeadlineFactorPlatform(g *Graph, pf *Platform, factor float64) Config {
	return core.DeadlineFactorPlatform(g, pf, factor)
}

// Scheduling substrate (see internal/sched).
type (
	// Schedule is a static task placement on identical processors.
	Schedule = sched.Schedule
	// Gap is an idle interval of one processor.
	Gap = sched.Gap
)

// NoDeadline marks tasks without an explicit deadline in per-task deadline
// slices.
const NoDeadline = sched.NoDeadline

// ListEDF schedules a graph on nprocs processors with list scheduling +
// earliest deadline first, the scheduler used by all heuristics.
func ListEDF(g *Graph, nprocs int) (*Schedule, error) { return sched.ListEDF(g, nprocs) }

// ListEDFWithDeadlines is ListEDF with explicit per-task deadlines (cycles),
// e.g. for unrolled Kahn Process Networks.
func ListEDFWithDeadlines(g *Graph, nprocs int, deadlines []int64) (*Schedule, error) {
	return sched.ListEDFWithDeadlines(g, nprocs, deadlines)
}

// Energy accounting (see internal/energy).
type (
	// EnergyBreakdown itemises where a schedule's energy goes.
	EnergyBreakdown = energy.Breakdown
	// EnergyOptions selects the accounting variant.
	EnergyOptions = energy.Options
)

// EvaluateEnergy computes the energy of a schedule at one operating point.
func EvaluateEnergy(s *Schedule, m *PowerModel, lvl Level, deadlineSec float64, opts EnergyOptions) (EnergyBreakdown, error) {
	return energy.Evaluate(s, m, lvl, deadlineSec, opts)
}

// Heuristics and bounds (see internal/core).
type (
	// Config carries the platform and problem parameters.
	Config = core.Config
	// Result is the outcome of one approach on one graph.
	Result = core.Result
)

// Approach names accepted by Run.
const (
	ApproachSS      = core.ApproachSS
	ApproachLAMPS   = core.ApproachLAMPS
	ApproachSSPS    = core.ApproachSSPS
	ApproachLAMPSPS = core.ApproachLAMPSPS
	ApproachLimitSF = core.ApproachLimitSF
	ApproachLimitMF = core.ApproachLimitMF
)

// Approaches lists all approach names in the paper's presentation order.
func Approaches() []string { return append([]string(nil), core.Approaches...) }

// DeadlineFactor returns a Config whose deadline is factor times the
// critical path length of g at the model's maximum frequency (nil model
// selects the 70 nm default).
func DeadlineFactor(g *Graph, m *PowerModel, factor float64) Config {
	return core.DeadlineFactor(g, m, factor)
}

// ScheduleAndStretch runs the S&S baseline: schedule on as many processors
// as reduce the makespan, then stretch into the deadline with DVS.
func ScheduleAndStretch(g *Graph, cfg Config) (*Result, error) {
	return core.ScheduleAndStretch(g, cfg)
}

// ScheduleAndStretchPS runs S&S extended with processor shutdown.
func ScheduleAndStretchPS(g *Graph, cfg Config) (*Result, error) {
	return core.ScheduleAndStretchPS(g, cfg)
}

// LAMPS runs leakage-aware multiprocessor scheduling: the energy-optimal
// balance between processor count and voltage scaling.
func LAMPS(g *Graph, cfg Config) (*Result, error) { return core.LAMPS(g, cfg) }

// LAMPSPS runs LAMPS extended with processor shutdown, the paper's best
// approach.
func LAMPSPS(g *Graph, cfg Config) (*Result, error) { return core.LAMPSPS(g, cfg) }

// LimitSF computes the single-frequency lower bound.
func LimitSF(g *Graph, cfg Config) (*Result, error) { return core.LimitSF(g, cfg) }

// LimitMF computes the multiple-frequency absolute lower bound.
func LimitMF(g *Graph, cfg Config) (*Result, error) { return core.LimitMF(g, cfg) }

// Run dispatches an approach by name (see the Approach constants).
func Run(approach string, g *Graph, cfg Config) (*Result, error) {
	return core.Run(approach, g, cfg)
}

// RunCtx is Run with cooperative cancellation: it returns ctx.Err() as soon
// as the current leaf work item — at most one list-scheduling call or one
// energy sweep step — completes after ctx is done.
func RunCtx(ctx context.Context, approach string, g *Graph, cfg Config) (*Result, error) {
	return core.RunCtx(ctx, approach, g, cfg)
}

// Context-aware forms of the heuristics and bounds, with the same
// cancellation granularity as RunCtx.
var (
	ScheduleAndStretchCtx   = core.ScheduleAndStretchCtx
	ScheduleAndStretchPSCtx = core.ScheduleAndStretchPSCtx
	LAMPSCtx                = core.LAMPSCtx
	LAMPSPSCtx              = core.LAMPSPSCtx
	LimitSFCtx              = core.LimitSFCtx
	LimitMFCtx              = core.LimitMFCtx
)

// Engine API (see internal/core): cancellation, progress observation and
// parallel search behind one front door. The package-level functions above
// are thin wrappers over a zero-value Engine.
type (
	// Engine runs the heuristics with cooperative cancellation, an optional
	// progress Observer, and optional bounded search parallelism via a
	// WorkerPool. A parallel engine returns results — including Stats —
	// byte-identical to a serial one.
	Engine = core.Engine
	// Observer receives serialised progress callbacks from a running
	// Engine: phase transitions, schedules used, energy evaluations.
	Observer = core.Observer
	// SearchStats reports the search effort of one heuristic run.
	SearchStats = core.Stats
	// WorkerPool bounds concurrent work; share one across engines to cap
	// total parallelism (see Engine.Pool).
	WorkerPool = workpool.Pool
)

// NewWorkerPool returns a pool admitting at most workers concurrent leaf
// work items (0 or negative = GOMAXPROCS).
func NewWorkerPool(workers int) *WorkerPool { return workpool.NewPool(workers) }

// Phase names reported through Observer.OnPhase.
const (
	PhaseMinProcs   = core.PhaseMinProcs
	PhaseSaturation = core.PhaseSaturation
	PhaseBuild      = core.PhaseBuild
	PhaseEvaluate   = core.PhaseEvaluate
	PhaseReclaim    = core.PhaseReclaim
	PhaseRefine     = core.PhaseRefine
)

// EnergySaving returns the attained fraction of the possible energy
// reduction, with S&S as baseline and a LIMIT bound as maximum.
func EnergySaving(baseline, achieved, limit float64) float64 {
	return core.EnergySaving(baseline, achieved, limit)
}

// STG file format (see internal/stg).

// ParseSTG reads a task graph in Standard Task Graph Set format.
func ParseSTG(r io.Reader, name string) (*Graph, error) { return stg.Parse(r, name) }

// WriteSTG emits a task graph in Standard Task Graph Set format.
func WriteSTG(w io.Writer, g *Graph) error { return stg.Write(w, g) }

// Workload generators (see internal/taskgen and internal/mpeg).
type (
	// GraphProfile describes aggregate characteristics for synthesis.
	GraphProfile = taskgen.Profile
	// Grain selects the paper's coarse/fine weight-to-cycles scaling.
	Grain = taskgen.Grain
)

// Grain values.
const (
	Coarse = taskgen.Coarse
	Fine   = taskgen.Fine
)

// MPEG1GOP builds the dependence graph of one closed MPEG-1 group of
// pictures from a display-order pattern such as "IBBPBBPBBPBBPBB".
func MPEG1GOP(pattern string, cycles map[byte]int64) (*Graph, error) {
	return mpeg.BuildGOP(pattern, mpeg.Cycles(cycles))
}

// MPEG1Fig9 returns the paper's MPEG-1 benchmark graph (15 frames, Tennis
// sequence timings) and its real-time deadline in seconds.
func MPEG1Fig9() (*Graph, float64) { return mpeg.Fig9(), mpeg.RealTimeDeadline }

// Kahn Process Networks (see internal/kpn).
type (
	// KPN is a Kahn Process Network convertible to a task DAG.
	KPN = kpn.Network
	// KPNProcess is one process of a network.
	KPNProcess = kpn.Process
	// KPNChannel is a FIFO connection between processes.
	KPNChannel = kpn.Channel
)

// NewKPN returns an empty Kahn Process Network.
func NewKPN() *KPN { return kpn.New() }

// Execution simulation (see internal/sim).
type (
	// SimOptions configures a simulated execution of a schedule.
	SimOptions = sim.Options
	// SimTrace is the timeline and energy of a simulated execution.
	SimTrace = sim.Trace
	// SimSegment is one homogeneous interval of a processor's timeline.
	SimSegment = sim.Segment
)

// Simulate executes a static schedule on a simulated DVS+PS multiprocessor,
// optionally with early task completions (Speedup) and greedy online slack
// reclamation (Reclaim). At worst-case execution times the integrated energy
// matches EvaluateEnergy.
func Simulate(s *Schedule, m *PowerModel, opts SimOptions) (*SimTrace, error) {
	return sim.Run(s, m, opts)
}

// PerTaskResult is the outcome of the per-task DVS extension.
type PerTaskResult = core.PerTaskResult

// SlackReclaimDVS is an extension beyond the paper: per-task DVS in the
// spirit of Zhu et al.'s slack reclamation, bounded by LIMIT-MF. The paper
// predicts — and the ext-pertask experiment confirms — that it helps mainly
// for fine-grain graphs with strict deadlines.
func SlackReclaimDVS(g *Graph, cfg Config, ps bool) (*PerTaskResult, error) {
	return core.SlackReclaimDVS(g, cfg, ps)
}

// SlackReclaimDVSCtx is SlackReclaimDVS with cooperative cancellation.
func SlackReclaimDVSCtx(ctx context.Context, g *Graph, cfg Config, ps bool) (*PerTaskResult, error) {
	return core.SlackReclaimDVSCtx(ctx, g, cfg, ps)
}

// Periodic real-time task sets (see internal/frames).
type (
	// PeriodicTask is one periodic real-time task (WCET, period, deadline in
	// cycles at f_max).
	PeriodicTask = frames.Task
	// PeriodicSet is a set of periodic tasks, convertible to a frame DAG.
	PeriodicSet = frames.Set
	// PeriodicPlan is a feasible leakage-aware configuration for one
	// hyperperiod of a periodic set.
	PeriodicPlan = frames.Plan
)

// NewPeriodicSet returns an empty periodic task set. Build it with Add,
// then call Schedule for a LAMPS-style energy-minimal configuration, or
// FrameDAG for the raw frame translation (Section 3.1 of the paper, after
// Liberato et al.).
func NewPeriodicSet() *PeriodicSet { return frames.NewSet() }

// IslandsResult is the outcome of the voltage-island extension.
type IslandsResult = core.IslandsResult

// VoltageIslands is an extension beyond the paper: each processor keeps its
// own constant voltage/frequency (a voltage-island machine), searched by
// greedy descent from the LAMPS+PS solution. It probes the paper's
// future-work question of per-processor frequencies.
func VoltageIslands(g *Graph, cfg Config, ps bool) (*IslandsResult, error) {
	return core.VoltageIslands(g, cfg, ps)
}

// VoltageIslandsCtx is VoltageIslands with cooperative cancellation.
func VoltageIslandsCtx(ctx context.Context, g *Graph, cfg Config, ps bool) (*IslandsResult, error) {
	return core.VoltageIslandsCtx(ctx, g, cfg, ps)
}
