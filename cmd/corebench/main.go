// Command corebench is the repo's in-process benchmark: for each benchmark
// graph and approach it times the serial engine against the parallel one
// (same Config, a shared worker pool), verifies the two return identical
// energy and Stats — the determinism contract — and writes wall times plus
// speedups as JSON.
//
//	corebench -out BENCH_core.json -workers 8 -repeat 5
//
// Wall times are best-of -repeat, so the numbers approximate the machine's
// capability rather than its scheduling jitter. The reported speedup is
// honest for the machine it ran on: on a single-core host serial and
// parallel coincide (within noise) and the speedup hovers around 1.
//
// One more case times core.Engine.RunBatch on a mixed batch of 64 requests,
// on a 1-worker pool and on the -workers pool. The two must return
// identical results slot for slot, and on a multicore host the batch must
// run at least as fast on the -workers pool: below that the command writes
// its report and exits 2.
//
// The report also carries a kernel_benchmarks section, each row the best
// of -repeat runs: micro-benchmarks of the hot kernels (list scheduling,
// energy evaluation, backup planning) with ns/op, allocs/op and bytes/op,
// paired as before/after where "before" is the fresh-allocation shape every
// build used to pay and "after" the reusable-scratch path the engine now
// runs; then whole engine runs, the /v1/schedule front door and a 48-cell
// /v1/sweep through the in-process handler (see README for how to read the
// fields).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"testing"
	"time"

	"lamps/internal/core"
	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/graphhash"
	"lamps/internal/mpeg"
	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/server"
	"lamps/internal/taskgen"
	"lamps/internal/workpool"
)

type caseReport struct {
	Graph      string  `json:"graph"`
	Tasks      int     `json:"tasks"`
	Approach   string  `json:"approach"`
	Factor     float64 `json:"deadline_factor"`
	SerialMs   float64 `json:"serial_ms"`
	ParallelMs float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
	EnergyJ    float64 `json:"energy_j"`
	Schedules  int     `json:"schedules_built"`
	Levels     int     `json:"levels_evaluated"`
}

// kernelReport is one micro-benchmark of a hot kernel. The pairs share a
// prefix: <kernel>_before is the fresh-allocation shape (new scratch per
// call), <kernel>_after the reusable-scratch path the engine runs.
type kernelReport struct {
	Name        string  `json:"name"`
	Graph       string  `json:"graph"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type report struct {
	Workers    int `json:"workers"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// Multicore records whether parallel speedup was physically possible on
	// the host that produced this report. Comparison tooling (and the
	// RunBatch speedup gate) must skip speedup regressions when it is
	// false: a GOMAXPROCS=1 box runs serial and parallel on the same CPU and
	// any ratio it reports is scheduling noise, not a regression signal.
	Multicore      bool           `json:"multicore"`
	Repeat         int            `json:"repeat"`
	Cases          []caseReport   `json:"cases"`
	Kernel         []kernelReport `json:"kernel_benchmarks"`
	GeneratedAtUTC string         `json:"generated_at_utc"`
}

// minBatchSpeedup is the floor of the RunBatch case's speedup on a
// multicore host: a batch must never run slower on the -workers pool than
// on one worker.
const minBatchSpeedup = 1.0

func main() {
	var (
		out     = flag.String("out", "BENCH_core.json", "write the JSON report to this file (- for stdout)")
		workers = flag.Int("workers", 0, "parallel engine pool size (0 = GOMAXPROCS)")
		repeat  = flag.Int("repeat", 5, "timed runs per case and kernel row; best-of wins")
		factor  = flag.Float64("factor", 2, "deadline as a multiple of the critical path length")
	)
	flag.Parse()
	code, err := run(*out, *workers, *repeat, *factor)
	if err != nil {
		fmt.Fprintln(os.Stderr, "corebench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// graphs assembles the benchmark workloads: the paper's application graphs
// at coarse grain plus one 1000-task random member for scale.
func graphs() ([]*dag.Graph, error) {
	var out []*dag.Graph
	for _, g := range taskgen.Applications() {
		out = append(out, taskgen.Coarse.Scale(g))
	}
	r, err := taskgen.Member(1000, 0, 42)
	if err != nil {
		return nil, err
	}
	return append(out, taskgen.Coarse.Scale(r)), nil
}

// batchWorkload is the RunBatch case's batch: two taskgen members each of
// 24, 64 and 160 tasks, coarse-scaled, under LAMPS, LAMPS+PS and S&S+PS —
// 18 requests, the starting graph rotated per approach so neighbours differ
// in size — cycled into one batch of 64, so every stretch of the batch
// mixes microsecond and millisecond runs.
func batchWorkload(factor float64) ([]core.BatchRequest, error) {
	m := power.Default70nm()
	var graphs []*dag.Graph
	for _, size := range []int{24, 64, 160} {
		for i := 0; i < 2; i++ {
			g, err := taskgen.Member(size, i, int64(size)*1000+int64(i))
			if err != nil {
				return nil, fmt.Errorf("generating %d-task graph %d: %w", size, i, err)
			}
			graphs = append(graphs, taskgen.Coarse.Scale(g))
		}
	}
	var mix []core.BatchRequest
	for ai, approach := range []string{core.ApproachLAMPS, core.ApproachLAMPSPS, core.ApproachSSPS} {
		for gi := range graphs {
			g := graphs[(gi+ai)%len(graphs)]
			mix = append(mix, core.BatchRequest{Approach: approach, Graph: g, Config: core.DeadlineFactor(g, m, factor)})
		}
	}
	batch := make([]core.BatchRequest, 64)
	for i := range batch {
		batch[i] = mix[i%len(mix)]
	}
	return batch, nil
}

// batchSamples is how many serial/parallel timing pairs the RunBatch case
// takes. One best-of pair of a batch this short swings with whatever else
// the host runs; the median pair does not.
const batchSamples = 7

// batchCase times the batch through RunBatch on a 1-worker pool (serial)
// and on pool (parallel), and requires the two to return identical results
// slot for slot. It takes batchSamples pairs, each side of a pair best of
// repeat runs and the two sides timed back to back, and reports the median
// of each side and of the pairs' speedups, so the speedup gate reads a
// typical pair rather than one that a burst of host load hit.
func batchCase(batch []core.BatchRequest, factor float64, pool *workpool.Pool, repeat int) (caseReport, error) {
	ctx := context.Background()
	serial := core.Engine{Pool: workpool.NewPool(1)}
	parallel := core.Engine{Pool: pool}
	// One untimed run each warms the pooled run arenas, so a -repeat 1 run
	// does not charge the cold start to the serial side alone.
	serial.RunBatch(ctx, batch)
	parallel.RunBatch(ctx, batch)
	var sr, pr []core.BatchResult
	var sd, pd, speedup [batchSamples]float64
	for i := range batchSamples {
		s, _ := bestOf(repeat, func() error { sr = serial.RunBatch(ctx, batch); return nil })
		p, _ := bestOf(repeat, func() error { pr = parallel.RunBatch(ctx, batch); return nil })
		if err := sameBatch(batch, sr, pr); err != nil {
			return caseReport{}, err
		}
		sd[i], pd[i], speedup[i] = s.Seconds(), p.Seconds(), s.Seconds()/p.Seconds()
	}
	c := caseReport{
		Graph:      "runbatch-mix",
		Approach:   "mixed",
		Factor:     factor,
		SerialMs:   1e3 * median(sd[:]),
		ParallelMs: 1e3 * median(pd[:]),
		Speedup:    median(speedup[:]),
	}
	for i, br := range sr {
		c.Tasks += batch[i].Graph.NumTasks()
		c.EnergyJ += br.Result.TotalEnergy()
		c.Schedules += br.Result.Stats.SchedulesBuilt
		c.Levels += br.Result.Stats.LevelsEvaluated
	}
	return c, nil
}

// median returns the median of an odd number of values, reordering them.
func median(v []float64) float64 {
	slices.Sort(v)
	return v[len(v)/2]
}

// sameBatch requires every request of both runs to succeed and the two
// runs to return identical results slot for slot.
func sameBatch(batch []core.BatchRequest, serial, parallel []core.BatchResult) error {
	for i := range batch {
		s, p := serial[i], parallel[i]
		switch {
		case s.Err != nil || p.Err != nil:
			return fmt.Errorf("RunBatch slot %d (%s on %s): serial err %v, parallel err %v",
				i, batch[i].Approach, batch[i].Graph.Name(), s.Err, p.Err)
		case !reflect.DeepEqual(s.Result, p.Result):
			return fmt.Errorf("RunBatch slot %d (%s on %s): parallel result diverged from serial (%.9g J %+v vs %.9g J %+v)",
				i, batch[i].Approach, batch[i].Graph.Name(),
				p.Result.TotalEnergy(), p.Result.Stats, s.Result.TotalEnergy(), s.Result.Stats)
		}
	}
	return nil
}

// kernelBenchmarks micro-benchmarks the two hot kernels on the largest
// benchmark graph, pairing each with its pre-optimisation shape: list
// scheduling with fresh scratch per call vs one reused Scheduler, and a +PS
// level sweep with one full energy evaluation per operating point vs one
// GapProfile shared by every level. allocs/op of the *_after rows is the
// number CI gates on: the reused paths must not allocate in steady state.
// Every row keeps the lowest ns/op of repeat benchmark runs; its allocs/op
// and bytes/op come from that run, or from steadyAllocs where a row says
// so.
func kernelBenchmarks(gs []*dag.Graph, repeat int) ([]kernelReport, error) {
	g := gs[0]
	for _, c := range gs {
		if c.NumTasks() > g.NumTasks() {
			g = c
		}
	}
	const nprocs = 8
	m := power.Default70nm()
	prio := sched.EDFPriorities(g, 0)
	s, err := sched.ListScheduleReleases(g, nprocs, prio, nil)
	if err != nil {
		return nil, err
	}
	// A deadline every operating point can meet, so the sweeps below cover
	// the full level ladder.
	deadline := 1.5 * float64(s.Makespan) / m.MinLevel().Freq
	var benchErr error
	measure := func(name string, fn func(b *testing.B)) kernelReport {
		best := testing.Benchmark(fn)
		for i := 1; i < repeat; i++ {
			if r := testing.Benchmark(fn); r.NsPerOp() < best.NsPerOp() {
				best = r
			}
		}
		return kernelReport{
			Name:        name,
			Graph:       g.Name(),
			NsPerOp:     float64(best.NsPerOp()),
			AllocsPerOp: best.AllocsPerOp(),
			BytesPerOp:  best.AllocedBytesPerOp(),
		}
	}

	var k sched.Scheduler
	var reused sched.Schedule
	if err := k.ScheduleInto(&reused, g, nprocs, prio, nil); err != nil {
		return nil, err
	}
	prof := energy.NewGapProfile(s)
	// The one-class platform every homogeneous engine run takes. Its rows
	// reuse the kernel, schedule and profile of the rows they follow, so
	// each pair differs only in the entry point.
	one, err := power.Homogeneous(nprocs, m)
	if err != nil {
		return nil, err
	}
	// The same reused kernel on 96 processors, where the idle-processor
	// bitmap spans two words.
	const wideProcs = 96
	var kw sched.Scheduler
	var wide sched.Schedule
	if err := kw.ScheduleInto(&wide, g, wideProcs, prio, nil); err != nil {
		return nil, err
	}

	check := func(err error) {
		if err != nil {
			benchErr = err
		}
	}
	out := []kernelReport{
		measure("schedule_before_fresh_scratch", loop(func() {
			_, err := sched.ListScheduleReleases(g, nprocs, prio, nil)
			check(err)
		})),
		measure("schedule_after_reused_kernel", loop(func() { check(k.ScheduleInto(&reused, g, nprocs, prio, nil)) })),
		measure("schedule_platform_one_class_reused_kernel", loop(func() {
			check(k.ScheduleIntoPlatform(&reused, g, one, nprocs, prio, nil))
		})),
		measure("schedule_reused_kernel_96procs", loop(func() { check(kw.ScheduleInto(&wide, g, wideProcs, prio, nil)) })),
		measure("energy_sweep_before_per_level", loop(func() {
			for _, lvl := range m.Levels() {
				_, err := energy.Evaluate(s, m, lvl, deadline, energy.Options{PS: true})
				check(err)
			}
		})),
		measure("energy_sweep_after_gap_profile", loop(func() {
			prof.Reset(s)
			for _, lvl := range m.Levels() {
				_, err := prof.Evaluate(m, lvl, deadline, energy.Options{PS: true})
				check(err)
			}
		})),
		measure("energy_sweep_platform_one_class", loop(func() {
			prof.ResetPlatform(s, one)
			for _, pt := range one.Points() {
				_, err := prof.EvaluatePoint(one, pt, deadline, energy.Options{PS: true})
				check(err)
			}
		})),
	}

	// Heterogeneous counterparts of the two reused-scratch rows: the
	// per-class dispatch kernel and the operating-grid sweep on an
	// LP×(nprocs−1) + HP×1 machine. Their allocs/op must also be 0 — the
	// zero-allocation contract covers the platform paths.
	lpm := *power.Default70nm()
	lpm.VddMax = 0.85
	lpm.POn = 0.04
	if err := lpm.Build(); err != nil {
		return nil, err
	}
	procs := make([]int, nprocs)
	procs[nprocs-1] = 1
	pf, err := power.NewPlatform(
		[]power.CoreClass{{Name: "lp", Model: &lpm}, {Name: "hp", Model: power.Default70nm()}},
		procs,
	)
	if err != nil {
		return nil, err
	}
	var kp sched.Scheduler
	var plat sched.Schedule
	if err := kp.ScheduleIntoPlatform(&plat, g, pf, nprocs, prio, nil); err != nil {
		return nil, err
	}
	var pprof energy.GapProfile
	pprof.ResetPlatform(&plat, pf)
	grid := pf.Points()
	platDeadline := 1.5 * float64(plat.Makespan) / grid[len(grid)-1].TimelineFreq
	out = append(out,
		measure("schedule_platform_reused_kernel", loop(func() { check(kp.ScheduleIntoPlatform(&plat, g, pf, nprocs, prio, nil)) })),
		measure("energy_sweep_platform_gap_profile", loop(func() {
			pprof.ResetPlatform(&plat, pf)
			for _, pt := range grid {
				_, err := pprof.EvaluatePoint(pf, pt, platDeadline, energy.Options{PS: true})
				check(err)
			}
		})),
	)

	// Backup-planning kernel: one fault-tolerant plan over the warm
	// homogeneous schedule, paired as usual — the one-shot wrapper with
	// fresh scratch per call vs one reused BackupPlanner. The plan arrays
	// themselves are fresh per call by design (the engine detaches them into
	// the result), so the after row is not zero-alloc; the pair still pins
	// the planner's interval-scratch reuse. The platform row runs the
	// primary-HP/backup-LP policy on the LP×(nprocs−1) + HP×1 machine, which
	// exercises the class-restricted candidate set and scaled backup
	// durations.
	var bplanner sched.BackupPlanner
	if _, err := bplanner.Plan(s, nil, sched.BackupAnywhere); err != nil {
		return nil, err
	}
	if _, err := bplanner.Plan(&plat, pf, sched.PrimaryHPBackupLP); err != nil {
		return nil, err
	}
	out = append(out,
		measure("backup_plan_before_fresh_scratch", loop(func() {
			_, err := sched.PlanBackups(s, nil, sched.BackupAnywhere)
			check(err)
		})),
		measure("backup_plan_after_reused_planner", loop(func() {
			_, err := bplanner.Plan(s, nil, sched.BackupAnywhere)
			check(err)
		})),
		measure("backup_plan_platform_hp_lp_reused_planner", loop(func() {
			_, err := bplanner.Plan(&plat, pf, sched.PrimaryHPBackupLP)
			check(err)
		})),
	)

	// Gap-profile extraction alone, plain and fault-tolerant, on the same
	// schedule: the warm FT reset merges the plan's per-processor backup
	// index into each timeline, so it should stay within a small factor of
	// the plain reset and, like it, allocate nothing once warm.
	plan, err := bplanner.Plan(s, nil, sched.BackupAnywhere)
	if err != nil {
		return nil, err
	}
	var ftProf energy.GapProfile
	ftProf.ResetFT(s, plan)
	out = append(out,
		measure("gap_profile_reset", loop(func() { prof.Reset(s) })),
		measure("gap_profile_reset_ft", loop(func() { ftProf.ResetFT(s, plan) })),
	)

	// Whole-request row: one warm LAMPS+PS request end to end through
	// RunBatch — arena-backed run scratch, pooled schedule shells, compact
	// result detachment. allocs/op here is the per-request figure the core
	// alloc gate bounds (TestRunBatchSteadyStateZeroAlloc, budget 8),
	// counted by steadyAllocs so that it does not move with GC timing; it
	// is deliberately measured on the engine's serving entry point, not a
	// kernel, so a regression anywhere on the request path shows up.
	eng := core.Engine{}
	warmReq := []core.BatchRequest{{
		Approach: core.ApproachLAMPSPS,
		Graph:    g,
		Config:   core.DeadlineFactor(g, m, 2),
	}}
	if res := eng.RunBatch(context.Background(), warmReq); res[0].Err != nil {
		return nil, res[0].Err
	}
	request := func() { check(eng.RunBatch(context.Background(), warmReq)[0].Err) }
	row := measure("engine_runbatch_warm_request", loop(request))
	row.AllocsPerOp, row.BytesPerOp = steadyAllocs(200, request)
	out = append(out, row)

	memoRows, err := memoBenchmarks(g, m, measure)
	if err != nil {
		return nil, err
	}
	out = append(out, memoRows...)

	ftRows, err := faultBenchmarks(g, m, pf, measure)
	if err != nil {
		return nil, err
	}
	out = append(out, ftRows...)

	front, err := frontDoorBenchmarks(g, m, measure)
	if err != nil {
		return nil, err
	}
	out = append(out, front...)

	sweep, err := sweepBenchmarks(measure)
	if err != nil {
		return nil, err
	}
	return append(out, sweep...), benchErr
}

// memoBenchmarks measures one serial LAMPS run on the 1000-task graph
// three ways: without a schedule memo, with a shared memo that misses on
// every op, and with a warm memo that restores every schedule. The plain
// and cold rows run a content-unique copy of the graph per op (one task's
// weight moved by the op number, built with the timer stopped), so the
// cold row pays the memo's whole miss path — key digest, lookups, packing
// and inserts with LRU eviction — and the gap to the plain row is the miss
// overhead. All three rows count allocs/op with steadyAllocs, like the
// RunBatch row; the warm row's must not exceed that row's per-request
// tail.
func memoBenchmarks(g *dag.Graph, m *power.Model, measure func(string, func(*testing.B)) kernelReport) ([]kernelReport, error) {
	var benchErr error
	var variant int64
	unique := func() *dag.Graph {
		variant++
		out, err := rebuild(g, variant)
		if err != nil {
			benchErr = err
		}
		return out
	}
	runOn := func(eng *core.Engine, g *dag.Graph) {
		eng.Config = core.DeadlineFactor(g, m, 2)
		if _, err := eng.Run(context.Background(), core.ApproachLAMPS, g); err != nil {
			benchErr = err
		}
	}
	perOp := func(memo *core.ScheduleMemo) func(b *testing.B) {
		return func(b *testing.B) {
			eng := core.Engine{Memo: memo}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				gi := unique()
				b.StartTimer()
				runOn(&eng, gi)
			}
		}
	}
	warm := core.Engine{Memo: core.NewScheduleMemo()}
	runOn(&warm, g)
	warmOp := func() { runOn(&warm, g) }
	rows := []kernelReport{
		measure("engine_lamps_layered1000", perOp(nil)),
		measure("engine_lamps_layered1000_memo_cold", perOp(core.NewScheduleMemo())),
		measure("engine_lamps_layered1000_memo_warm", loop(warmOp)),
	}
	// The counted allocs of the plain and cold rows run on g itself, the
	// cold one with a fresh memo per call, so every lookup still misses
	// while the arenas see the same graph each time and the count repeats
	// exactly.
	plain := core.Engine{}
	rows[0].AllocsPerOp, rows[0].BytesPerOp = steadyAllocs(200, func() { runOn(&plain, g) })
	cold := core.Engine{}
	rows[1].AllocsPerOp, rows[1].BytesPerOp = steadyAllocs(40, func() {
		cold.Memo = core.NewScheduleMemo()
		runOn(&cold, g)
	})
	rows[2].AllocsPerOp, rows[2].BytesPerOp = steadyAllocs(200, warmOp)
	return rows, benchErr
}

// faultBenchmarks measures one serial K=1 LAMPS run on the 1000-task graph,
// on the default machine and on the LP×7 + HP×1 platform under the
// primary-HP/backup-LP policy: without a schedule memo, where every
// candidate count is list-scheduled and backup-planned, and with a warm
// memo that restores every schedule and plan, detaching only the winning
// plan. Their gap is what scheduling and planning cost a fault-tolerant
// request. The platform's eight processors make the graph work-bound, so
// its deadline is ten critical paths (at four, no count recovers in
// time). allocs/op is counted by steadyAllocs, like the memo rows.
func faultBenchmarks(g *dag.Graph, m *power.Model, pf *power.Platform, measure func(string, func(*testing.B)) kernelReport) ([]kernelReport, error) {
	var benchErr error
	var rows []kernelReport
	for _, c := range []struct {
		name   string
		cfg    core.Config
		policy core.FaultPolicy
	}{
		{"engine_lamps_ft_layered1000", core.DeadlineFactor(g, m, 2), core.FaultBackupAnywhere},
		{"engine_lamps_ft_layered1000_lp7hp1", core.DeadlineFactorPlatform(g, pf, 10), core.FaultPrimaryHPBackupLP},
	} {
		c.cfg.Faults = &core.FaultConfig{K: 1, Policy: c.policy}
		opOn := func(eng *core.Engine) func() {
			return func() {
				if _, err := eng.Run(context.Background(), core.ApproachLAMPS, g); err != nil {
					benchErr = fmt.Errorf("%s: %w", c.name, err)
				}
			}
		}
		plain := opOn(&core.Engine{Config: c.cfg})
		warm := opOn(&core.Engine{Config: c.cfg, Memo: core.NewScheduleMemo()})
		warm()
		pair := []kernelReport{
			measure(c.name, loop(plain)),
			measure(c.name+"_memo_warm", loop(warm)),
		}
		pair[0].AllocsPerOp, pair[0].BytesPerOp = steadyAllocs(20, plain)
		pair[1].AllocsPerOp, pair[1].BytesPerOp = steadyAllocs(200, warm)
		rows = append(rows, pair...)
	}
	return rows, benchErr
}

// rebuild builds g again from its weights and edges through dag.Builder,
// the way a request is built, with task 0's weight raised by bump.
func rebuild(g *dag.Graph, bump int64) (*dag.Graph, error) {
	b := dag.NewBuilder(g.Name())
	b.Grow(g.NumTasks(), g.NumEdges())
	for v := 0; v < g.NumTasks(); v++ {
		w := g.Weight(v)
		if v == 0 {
			w += bump
		}
		b.AddTask(w)
	}
	for v := 0; v < g.NumTasks(); v++ {
		for _, s := range g.Succs(v) {
			b.AddEdge(v, int(s))
		}
	}
	return b.Build()
}

// frontDoorBenchmarks measures what a /v1/schedule request costs around
// the engine, on the same 1000-task graph: building the dag from decoded
// tasks and edges, digesting the problem, and three requests through the
// in-process handler (request logging off). handler_schedule_hit repeats
// one body: the graph comes from the server's intern table and the result
// from its cache. handler_schedule_miss sends a new deadline_factor each
// op: the result cache misses while the intern table and the schedule memo
// hit, so the engine runs on restored schedules — a benchmark run's shape
// in process. handler_schedule_miss_novel renames the graph each op: the
// bytes never repeat, so the intern table misses and the graph is decoded,
// built and stored every time, while the result cache still hits (names
// stay out of the digest) — what a table miss costs. None of them should
// allocate per task or per edge. The digest and handler rows use pooled
// buffers, so their allocs/op are counted by steadyAllocs like the
// RunBatch row; the miss rows run on one worker with a serial search, so
// the count repeats run to run.
func frontDoorBenchmarks(g *dag.Graph, m *power.Model, measure func(string, func(*testing.B)) kernelReport) ([]kernelReport, error) {
	var benchErr error
	build := func() *dag.Graph {
		out, err := rebuild(g, 0)
		if err != nil {
			benchErr = err
		}
		return out
	}
	prob := graphhash.Problem{
		Graph:    g,
		Model:    m,
		Deadline: core.DeadlineFactor(g, m, 2).Deadline,
		Approach: core.ApproachLAMPS,
	}
	sum := func() { graphhash.Sum(prob) }

	body := func(name string, factor float64) ([]byte, error) {
		spec := inlineGraph(g)
		spec.Name = name
		return json.Marshal(struct {
			Approach       string    `json:"approach"`
			Graph          graphJSON `json:"graph"`
			DeadlineFactor float64   `json:"deadline_factor"`
		}{core.ApproachLAMPS, spec, factor})
	}
	// serve builds a replay of the body on h, warms it, and returns an op
	// that first writes a new count into the digits after marker (none
	// when marker is empty) and requires the cache outcome want.
	serve := func(h http.Handler, name string, factor float64, marker, want string) (func(), error) {
		b, err := body(name, factor)
		if err != nil {
			return nil, err
		}
		rp := newReplay(h, "/v1/schedule", b)
		if status, _ := rp.serve(); status != http.StatusOK {
			return nil, fmt.Errorf("warming /v1/schedule request: status %d", status)
		}
		var c counter
		if marker != "" {
			at := bytes.Index(b, []byte(marker)) + len(marker)
			c.digits = b[at : at+counterDigits]
			c.n, _ = strconv.Atoi(string(c.digits))
		}
		return func() {
			if c.digits != nil {
				c.next()
			}
			if status, cache := rp.serve(); status != http.StatusOK || cache != want {
				benchErr = fmt.Errorf("/v1/schedule request: status %d, cache %q, want 200 %s", status, cache, want)
			}
		}, nil
	}
	hit, err := serve(server.New(server.Options{Model: m, Logger: quietLog()}).Handler(),
		g.Name(), 2, "", "hit")
	if err != nil {
		return nil, err
	}
	// The miss row's results are about 70 KB each, so its result cache is
	// kept small.
	serial := server.Options{Model: m, CacheSize: 16, Workers: 1, SearchWorkers: -1, Logger: quietLog()}
	miss, err := serve(server.New(serial).Handler(), g.Name(), 2.000000001, `"deadline_factor":2.`, "miss")
	if err != nil {
		return nil, err
	}
	novel, err := serve(server.New(serial).Handler(), "novel-000000000", 2, `"name":"novel-`, "hit")
	if err != nil {
		return nil, err
	}

	rows := []kernelReport{
		measure("dag_build_layered1000", loop(func() { build() })),
		measure("graphhash_sum_layered1000", loop(sum)),
		measure("handler_schedule_hit_layered1000", loop(hit)),
		measure("handler_schedule_miss_layered1000", loop(miss)),
		measure("handler_schedule_miss_layered1000_novel", loop(novel)),
	}
	for i, fn := range []func(){sum, hit, miss, novel} {
		rows[i+1].AllocsPerOp, rows[i+1].BytesPerOp = steadyAllocs(200, fn)
	}
	return rows, benchErr
}

// counterDigits is the width of a counter's decimal field.
const counterDigits = 9

// counter writes an increasing count into a fixed-width decimal field of a
// request body, so every request sends bytes not sent before.
type counter struct {
	digits []byte
	n      int
}

func (c *counter) next() {
	c.n++
	for i, n := len(c.digits)-1, c.n; i >= 0; i, n = i-1, n/10 {
		c.digits[i] = byte('0' + n%10)
	}
}

// sweepBenchmarks sends the paper's sweep — the MPEG-4 decoder graph under
// all six approaches × eight deadline factors, 48 cells — as one /v1/sweep
// through the in-process handler, twice: on a server with the result cache
// off, where every cell is a scheduling run (its list schedules restored
// from the server's schedule memo once warm), and on a server whose cache
// already holds every cell. Both servers run one worker with a serial
// search, so the cells run one after another and steadyAllocs counts the
// same allocs/op on every run.
func sweepBenchmarks(measure func(string, func(*testing.B)) kernelReport) ([]kernelReport, error) {
	g := mpeg.Fig9()
	body, err := json.Marshal(struct {
		Approaches      []string  `json:"approaches"`
		Graph           graphJSON `json:"graph"`
		DeadlineFactors []float64 `json:"deadline_factors"`
	}{
		[]string{"ss", "lamps", "ss+ps", "lamps+ps", "limit-sf", "limit-mf"},
		inlineGraph(g),
		[]float64{1.5, 2, 2.5, 3, 4, 5, 6, 8},
	})
	if err != nil {
		return nil, err
	}
	const cells = 48
	var benchErr error
	var rows []kernelReport
	for _, c := range []struct {
		name      string
		cacheSize int
		hits      int
	}{
		{"handler_sweep_mpeg48_cache_off", -1, 0},
		{"handler_sweep_mpeg48_cache_warm", 0, cells},
	} {
		h := server.New(server.Options{CacheSize: c.cacheSize, Workers: 1, SearchWorkers: -1, Logger: quietLog()}).Handler()
		// The first sweep warms the server; the second must answer every
		// cell, from the cache where it is on.
		if err := checkSweep(h, body, cells, 0); err != nil {
			return nil, err
		}
		if err := checkSweep(h, body, cells, c.hits); err != nil {
			return nil, err
		}
		rp := newReplay(h, "/v1/sweep", body)
		sweep := func() {
			if status, _ := rp.serve(); status != http.StatusOK {
				benchErr = fmt.Errorf("%s: status %d", c.name, status)
			}
		}
		row := measure(c.name, loop(sweep))
		row.Graph = g.Name()
		row.AllocsPerOp, row.BytesPerOp = steadyAllocs(20, sweep)
		rows = append(rows, row)
	}
	return rows, benchErr
}

// checkSweep serves one sweep on h and requires its summary to report every
// cell ok, hits of them from the cache.
func checkSweep(h http.Handler, body []byte, cells, hits int) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("/v1/sweep: status %d: %s", rec.Code, rec.Body)
	}
	stream := bytes.TrimSpace(rec.Body.Bytes())
	var last struct {
		Summary *struct {
			OK        int `json:"ok"`
			CacheHits int `json:"cache_hits"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(stream[bytes.LastIndexByte(stream, '\n')+1:], &last); err != nil || last.Summary == nil {
		return fmt.Errorf("/v1/sweep: stream does not end in a summary: %v", err)
	}
	if last.Summary.OK != cells || last.Summary.CacheHits != hits {
		return fmt.Errorf("/v1/sweep: %d of %d cells ok, %d cache hits, want %d", last.Summary.OK, cells, last.Summary.CacheHits, hits)
	}
	return nil
}

// graphJSON is a graph in the API's inline form, spelled as a client
// marshaling a struct spells it.
type graphJSON struct {
	Name  string     `json:"name"`
	Tasks []taskJSON `json:"tasks"`
	Edges [][2]int   `json:"edges"`
}

type taskJSON struct {
	WeightCycles int64 `json:"weight_cycles"`
}

func inlineGraph(g *dag.Graph) graphJSON {
	spec := graphJSON{Name: g.Name(), Tasks: make([]taskJSON, g.NumTasks())}
	for v := range spec.Tasks {
		spec.Tasks[v].WeightCycles = g.Weight(v)
		for _, s := range g.Succs(v) {
			spec.Edges = append(spec.Edges, [2]int{v, int(s)})
		}
	}
	return spec
}

func quietLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
}

// replay serves one request body through an in-process handler again and
// again. The request, body reader and writer are built once, so a measured
// call pays for the handler alone.
type replay struct {
	h    http.Handler
	body []byte
	rd   *bytes.Reader
	rc   io.ReadCloser
	req  *http.Request
	w    discardWriter
}

func newReplay(h http.Handler, path string, body []byte) *replay {
	rd := bytes.NewReader(body)
	return &replay{
		h:    h,
		body: body,
		rd:   rd,
		rc:   io.NopCloser(rd),
		req:  httptest.NewRequest(http.MethodPost, path, nil),
		w:    discardWriter{h: make(http.Header)},
	}
}

// serve replays the request and returns its status and cache header.
func (r *replay) serve() (status int, cache string) {
	r.rd.Reset(r.body)
	r.req.Body = r.rc // the handler wraps the body it is given
	r.w.status = 0
	r.h.ServeHTTP(&r.w, r.req)
	return r.w.status, r.w.h.Get(server.CacheHeader)
}

// discardWriter is a ResponseWriter that keeps only the status and one
// reused header map.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }

// steadyAllocs returns the fewest allocations, and the fewest allocated
// bytes, that one call of fn made over a fixed number of rounds with the
// garbage collector paused. Every GC cycle drops the engine's pooled
// request arenas, and the next request rebuilds one, so testing.Benchmark's
// per-op counts on a pooled path drift with GC timing. With the collector
// off, the pools stay warm and the count is the steady-state figure
// TestRunBatchSteadyStateZeroAlloc bounds. Taking the fewest rather than
// the mean counts out what the Go runtime now and then allocates for
// itself on a concurrent path — a sudog when a goroutine blocked in a
// select (the server's singleflight wait) wakes on another P, a goroutine
// descriptor when the free list is momentarily empty — which a mean would
// count, so that the same binary read differently run to run. The rounds
// are few enough that the paused heap stays small.
func steadyAllocs(rounds int, fn func()) (allocs, bytes int64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn() // re-warm the pools the benchmark's last GC cycle emptied
	allocs, bytes = math.MaxInt64, math.MaxInt64
	var before, after runtime.MemStats
	for range rounds {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, int64(after.Mallocs-before.Mallocs))
		bytes = min(bytes, int64(after.TotalAlloc-before.TotalAlloc))
	}
	return allocs, bytes
}

// loop is a benchmark body that calls fn b.N times.
func loop(fn func()) func(*testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fn()
		}
	}
}

// bestOf returns the lowest wall time of n calls of fn.
func bestOf(n int, fn func() error) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

func run(out string, workers, repeat int, factor float64) (int, error) {
	gs, err := graphs()
	if err != nil {
		return 1, err
	}
	batch, err := batchWorkload(factor)
	if err != nil {
		return 1, err
	}
	pool := workpool.NewPool(workers)
	m := power.Default70nm()
	rep := report{
		Workers:        pool.Cap(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Multicore:      runtime.GOMAXPROCS(0) > 1,
		Repeat:         repeat,
		GeneratedAtUTC: time.Now().UTC().Format(time.RFC3339),
	}
	logCase := func(c caseReport) {
		fmt.Fprintf(os.Stderr, "%-15s %-9s serial %8.2fms  parallel(%d) %8.2fms  speedup %.2fx\n",
			c.Graph, c.Approach, c.SerialMs, pool.Cap(), c.ParallelMs, c.Speedup)
	}

	ctx := context.Background()
	for _, g := range gs {
		cfg := core.DeadlineFactor(g, m, factor)
		for _, approach := range []string{core.ApproachLAMPS, core.ApproachLAMPSPS} {
			serial := core.Engine{Config: cfg}
			parallel := core.Engine{Config: cfg, Pool: pool}
			var sr, pr *core.Result
			sd, err := bestOf(repeat, func() (err error) { sr, err = serial.Run(ctx, approach, g); return err })
			if err != nil {
				return 1, fmt.Errorf("%s on %s (serial): %w", approach, g.Name(), err)
			}
			pd, err := bestOf(repeat, func() (err error) { pr, err = parallel.Run(ctx, approach, g); return err })
			if err != nil {
				return 1, fmt.Errorf("%s on %s (parallel): %w", approach, g.Name(), err)
			}
			if sr.TotalEnergy() != pr.TotalEnergy() || sr.Stats != pr.Stats {
				return 1, fmt.Errorf("%s on %s: parallel result diverged from serial (%.9g J %+v vs %.9g J %+v)",
					approach, g.Name(), pr.TotalEnergy(), pr.Stats, sr.TotalEnergy(), sr.Stats)
			}
			rep.Cases = append(rep.Cases, caseReport{
				Graph:      g.Name(),
				Tasks:      g.NumTasks(),
				Approach:   approach,
				Factor:     factor,
				SerialMs:   1e3 * sd.Seconds(),
				ParallelMs: 1e3 * pd.Seconds(),
				Speedup:    sd.Seconds() / pd.Seconds(),
				EnergyJ:    sr.TotalEnergy(),
				Schedules:  sr.Stats.SchedulesBuilt,
				Levels:     sr.Stats.LevelsEvaluated,
			})
			logCase(rep.Cases[len(rep.Cases)-1])
		}
	}
	bc, err := batchCase(batch, factor, pool, repeat)
	if err != nil {
		return 1, err
	}
	rep.Cases = append(rep.Cases, bc)
	logCase(bc)

	rep.Kernel, err = kernelBenchmarks(gs, repeat)
	if err != nil {
		return 1, fmt.Errorf("kernel benchmarks: %w", err)
	}
	for _, k := range rep.Kernel {
		fmt.Fprintf(os.Stderr, "%-32s %-8s %12.0f ns/op %6d allocs/op %10d B/op\n",
			k.Name, k.Graph, k.NsPerOp, k.AllocsPerOp, k.BytesPerOp)
	}

	// The RunBatch speedup gate. Only meaningful where parallel speedup is
	// physically available: with one CPU or one worker the ratio is noise,
	// so the gate is skipped (with a notice) rather than failed.
	code := 0
	switch {
	case !rep.Multicore || rep.Workers < 2:
		fmt.Fprintf(os.Stderr, "corebench: RunBatch speedup gate skipped (GOMAXPROCS=%d, workers=%d): parallel speedup is not physically available; measured %.2fx\n",
			rep.GOMAXPROCS, rep.Workers, bc.Speedup)
	case bc.Speedup < minBatchSpeedup:
		code = 2
		fmt.Fprintf(os.Stderr, "corebench: SPEEDUP GATE FAILED: RunBatch at %d workers is %.2fx the 1-worker speed, below the %.2fx floor\n",
			rep.Workers, bc.Speedup, minBatchSpeedup)
	default:
		fmt.Fprintf(os.Stderr, "corebench: RunBatch speedup %.2fx at %d workers (gate: >= %.2fx)\n", bc.Speedup, rep.Workers, minBatchSpeedup)
	}

	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return 1, err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		return 1, err
	}
	return code, nil
}
