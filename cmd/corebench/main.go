// Command corebench measures the core scheduling engine in-process: for
// each benchmark graph and approach it times the serial engine against the
// parallel one (same Config, a shared worker pool), verifies the two return
// identical energy and Stats — the determinism contract — and writes wall
// times plus speedups as JSON.
//
//	corebench -out BENCH_core.json -workers 8 -repeat 5
//
// Wall times are best-of -repeat, so the numbers approximate the machine's
// capability rather than its scheduling jitter. The reported speedup is
// honest for the machine it ran on: on a single-core host serial and
// parallel coincide (within noise) and the speedup hovers around 1.
//
// The report also carries a kernel_benchmarks section: before/after
// micro-benchmarks of the two hot kernels (list scheduling and per-level
// energy evaluation) with ns/op, allocs/op and bytes/op, where "before" is
// the fresh-allocation shape every build used to pay and "after" is the
// reusable-scratch path the engine now runs (see README for how to read the
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
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"lamps/internal/core"
	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/graphhash"
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
	// the host that produced this report. Comparison tooling (and the CI
	// speedup gate) must skip speedup regressions when it is false: a
	// GOMAXPROCS=1 box runs serial and parallel on the same CPU and any
	// ratio it reports is scheduling noise, not a regression signal.
	Multicore      bool           `json:"multicore"`
	Repeat         int            `json:"repeat"`
	Cases          []caseReport   `json:"cases"`
	Kernel         []kernelReport `json:"kernel_benchmarks"`
	GeomeanSpeedup float64        `json:"geomean_speedup"`
	GeneratedAtUTC string         `json:"generated_at_utc"`
}

func main() {
	var (
		out     = flag.String("out", "BENCH_core.json", "write the JSON report to this file (- for stdout)")
		workers = flag.Int("workers", 0, "parallel engine pool size (0 = GOMAXPROCS)")
		repeat  = flag.Int("repeat", 5, "timed runs per case; best-of wins")
		factor  = flag.Float64("factor", 2, "deadline as a multiple of the critical path length")
		minSpd  = flag.Float64("min-speedup", 0, "exit 2 if the geomean speedup is below this on a multicore host (0 disables; always skipped when GOMAXPROCS=1)")
	)
	flag.Parse()
	code, err := run(*out, *workers, *repeat, *factor, *minSpd)
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

// kernelBenchmarks micro-benchmarks the two hot kernels on the largest
// benchmark graph, pairing each with its pre-optimisation shape: list
// scheduling with fresh scratch per call vs one reused Scheduler, and a +PS
// level sweep with one full energy evaluation per operating point vs one
// GapProfile shared by every level. allocs/op of the *_after rows is the
// number CI gates on: the reused paths must not allocate in steady state.
func kernelBenchmarks(gs []*dag.Graph) ([]kernelReport, error) {
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
		r := testing.Benchmark(fn)
		return kernelReport{
			Name:        name,
			Graph:       g.Name(),
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
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

	out := []kernelReport{
		measure("schedule_before_fresh_scratch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sched.ListScheduleReleases(g, nprocs, prio, nil); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		}),
		measure("schedule_after_reused_kernel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := k.ScheduleInto(&reused, g, nprocs, prio, nil); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		}),
		measure("schedule_platform_one_class_reused_kernel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := k.ScheduleIntoPlatform(&reused, g, one, nprocs, prio, nil); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		}),
		measure("schedule_reused_kernel_96procs", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := kw.ScheduleInto(&wide, g, wideProcs, prio, nil); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		}),
		measure("energy_sweep_before_per_level", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, lvl := range m.Levels() {
					if _, err := energy.Evaluate(s, m, lvl, deadline, energy.Options{PS: true}); err != nil {
						benchErr = err
						b.FailNow()
					}
				}
			}
		}),
		measure("energy_sweep_after_gap_profile", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prof.Reset(s)
				for _, lvl := range m.Levels() {
					if _, err := prof.Evaluate(m, lvl, deadline, energy.Options{PS: true}); err != nil {
						benchErr = err
						b.FailNow()
					}
				}
			}
		}),
		measure("energy_sweep_platform_one_class", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prof.ResetPlatform(s, one)
				for _, pt := range one.Points() {
					if _, err := prof.EvaluatePoint(one, pt, deadline, energy.Options{PS: true}); err != nil {
						benchErr = err
						b.FailNow()
					}
				}
			}
		}),
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
		measure("schedule_platform_reused_kernel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := kp.ScheduleIntoPlatform(&plat, g, pf, nprocs, prio, nil); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		}),
		measure("energy_sweep_platform_gap_profile", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pprof.ResetPlatform(&plat, pf)
				for _, pt := range grid {
					if _, err := pprof.EvaluatePoint(pf, pt, platDeadline, energy.Options{PS: true}); err != nil {
						benchErr = err
						b.FailNow()
					}
				}
			}
		}),
	)

	// Backup-planning kernel: one fault-tolerant plan over the warm
	// homogeneous schedule, paired as usual — the one-shot wrapper with
	// fresh scratch per call vs one reused BackupPlanner. The plan arrays
	// themselves are fresh per call by design (the engine detaches them into
	// the result), so the after row is not zero-alloc; the pair still pins
	// the planner's interval-scratch reuse.
	var bplanner sched.BackupPlanner
	if _, err := bplanner.Plan(s, nil, sched.BackupAnywhere); err != nil {
		return nil, err
	}
	out = append(out,
		measure("backup_plan_before_fresh_scratch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sched.PlanBackups(s, nil, sched.BackupAnywhere); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		}),
		measure("backup_plan_after_reused_planner", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bplanner.Plan(s, nil, sched.BackupAnywhere); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		}),
	)

	// Platform counterpart of the reused-planner row: the primary-HP/
	// backup-LP policy on the LP×(nprocs−1) + HP×1 machine, which exercises
	// the class-restricted candidate set and scaled backup durations.
	if _, err := bplanner.Plan(&plat, pf, sched.PrimaryHPBackupLP); err != nil {
		return nil, err
	}
	out = append(out, measure("backup_plan_platform_hp_lp_reused_planner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bplanner.Plan(&plat, pf, sched.PrimaryHPBackupLP); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	}))

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
		measure("gap_profile_reset", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prof.Reset(s)
			}
		}),
		measure("gap_profile_reset_ft", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ftProf.ResetFT(s, plan)
			}
		}),
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
	row := measure("engine_runbatch_warm_request", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res := eng.RunBatch(context.Background(), warmReq); res[0].Err != nil {
				benchErr = res[0].Err
				b.FailNow()
			}
		}
	})
	row.AllocsPerOp, row.BytesPerOp = steadyAllocs(200, func() {
		if res := eng.RunBatch(context.Background(), warmReq); res[0].Err != nil {
			benchErr = res[0].Err
		}
	})
	out = append(out, row)

	front, err := frontDoorBenchmarks(g, m, measure)
	if err != nil {
		return nil, err
	}
	return append(out, front...), benchErr
}

// frontDoorBenchmarks measures what a /v1/schedule request costs before
// the engine runs, on the same 1000-task graph: building the dag from
// decoded tasks and edges, digesting the problem, and a whole warm cache
// hit through the in-process handler (read, decode, build, digest, cache
// lookup, write; request logging off). None of them should allocate per
// task or per edge. The digest and hit rows use pooled buffers, so their
// allocs/op are counted by steadyAllocs like the RunBatch row.
func frontDoorBenchmarks(g *dag.Graph, m *power.Model, measure func(string, func(*testing.B)) kernelReport) ([]kernelReport, error) {
	var benchErr error
	build := func() *dag.Graph {
		b := dag.NewBuilder(g.Name())
		b.Grow(g.NumTasks(), g.NumEdges())
		for v := 0; v < g.NumTasks(); v++ {
			b.AddTask(g.Weight(v))
		}
		for v := 0; v < g.NumTasks(); v++ {
			for _, s := range g.Succs(v) {
				b.AddEdge(v, int(s))
			}
		}
		out, err := b.Build()
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

	body, err := scheduleBody(g, core.ApproachLAMPS, 2)
	if err != nil {
		return nil, err
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
	h := server.New(server.Options{Model: m, Logger: quiet}).Handler()
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", nil)
	reqBody := io.NopCloser(rd)
	w := &discardWriter{h: make(http.Header)}
	serve := func() (status int, cache string) {
		rd.Reset(body)
		req.Body = reqBody
		w.status = 0
		h.ServeHTTP(w, req)
		return w.status, w.h.Get(server.CacheHeader)
	}
	if status, _ := serve(); status != http.StatusOK {
		return nil, fmt.Errorf("warming /v1/schedule request: status %d", status)
	}
	hit := func() {
		if status, cache := serve(); status != http.StatusOK || cache != "hit" {
			benchErr = fmt.Errorf("warm /v1/schedule request: status %d, cache %q, want 200 hit", status, cache)
		}
	}

	rows := []kernelReport{
		measure("dag_build_layered1000", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				build()
			}
		}),
		measure("graphhash_sum_layered1000", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sum()
			}
		}),
		measure("handler_schedule_hit_layered1000", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hit()
			}
		}),
	}
	rows[1].AllocsPerOp, rows[1].BytesPerOp = steadyAllocs(200, sum)
	rows[2].AllocsPerOp, rows[2].BytesPerOp = steadyAllocs(200, hit)
	return rows, benchErr
}

// scheduleBody renders g as a /v1/schedule request body in the spelling a
// client marshaling a struct produces.
func scheduleBody(g *dag.Graph, approach string, factor float64) ([]byte, error) {
	type task struct {
		WeightCycles int64 `json:"weight_cycles"`
	}
	type graph struct {
		Name  string   `json:"name"`
		Tasks []task   `json:"tasks"`
		Edges [][2]int `json:"edges"`
	}
	spec := graph{Name: g.Name(), Tasks: make([]task, g.NumTasks())}
	for v := range spec.Tasks {
		spec.Tasks[v].WeightCycles = g.Weight(v)
		for _, s := range g.Succs(v) {
			spec.Edges = append(spec.Edges, [2]int{v, int(s)})
		}
	}
	return json.Marshal(struct {
		Approach       string  `json:"approach"`
		Graph          graph   `json:"graph"`
		DeadlineFactor float64 `json:"deadline_factor"`
	}{approach, spec, factor})
}

// discardWriter is a ResponseWriter that keeps only the status and one
// reused header map, so a measured request pays for the handler alone.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }

// steadyAllocs returns fn's allocations and allocated bytes per call over
// a fixed number of rounds with the garbage collector paused. Every GC
// cycle drops the engine's pooled request arenas, and the next request
// rebuilds one, so testing.Benchmark's per-op counts on a pooled path
// drift with GC timing. With the collector off, the pools stay warm and
// the count is the steady-state figure TestRunBatchSteadyStateZeroAlloc
// bounds. The rounds are few enough that the paused heap stays small.
func steadyAllocs(rounds int, fn func()) (allocs, bytes int64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn() // re-warm the pools the benchmark's last GC cycle emptied
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		fn()
	}
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs-before.Mallocs) / int64(rounds),
		int64(after.TotalAlloc-before.TotalAlloc) / int64(rounds)
}

// timeEngine returns the best-of-n wall time of eng.Run and the last result.
func timeEngine(eng *core.Engine, approach string, g *dag.Graph, n int) (time.Duration, *core.Result, error) {
	best := time.Duration(math.MaxInt64)
	var last *core.Result
	for i := 0; i < n; i++ {
		start := time.Now()
		r, err := eng.Run(context.Background(), approach, g)
		if err != nil {
			return 0, nil, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
		last = r
	}
	return best, last, nil
}

func run(out string, workers, repeat int, factor, minSpeedup float64) (int, error) {
	gs, err := graphs()
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

	logGeo := 0.0
	for _, g := range gs {
		cfg := core.DeadlineFactor(g, m, factor)
		for _, approach := range []string{core.ApproachLAMPS, core.ApproachLAMPSPS} {
			serial := core.Engine{Config: cfg}
			parallel := core.Engine{Config: cfg, Pool: pool}
			sd, sr, err := timeEngine(&serial, approach, g, repeat)
			if err != nil {
				return 1, fmt.Errorf("%s on %s (serial): %w", approach, g.Name(), err)
			}
			pd, pr, err := timeEngine(&parallel, approach, g, repeat)
			if err != nil {
				return 1, fmt.Errorf("%s on %s (parallel): %w", approach, g.Name(), err)
			}
			if sr.TotalEnergy() != pr.TotalEnergy() || sr.Stats != pr.Stats {
				return 1, fmt.Errorf("%s on %s: parallel result diverged from serial (%.9g J %+v vs %.9g J %+v)",
					approach, g.Name(), pr.TotalEnergy(), pr.Stats, sr.TotalEnergy(), sr.Stats)
			}
			speedup := sd.Seconds() / pd.Seconds()
			logGeo += math.Log(speedup)
			rep.Cases = append(rep.Cases, caseReport{
				Graph:      g.Name(),
				Tasks:      g.NumTasks(),
				Approach:   approach,
				Factor:     factor,
				SerialMs:   1e3 * sd.Seconds(),
				ParallelMs: 1e3 * pd.Seconds(),
				Speedup:    speedup,
				EnergyJ:    sr.TotalEnergy(),
				Schedules:  sr.Stats.SchedulesBuilt,
				Levels:     sr.Stats.LevelsEvaluated,
			})
			fmt.Fprintf(os.Stderr, "%-8s %-9s serial %8.2fms  parallel(%d) %8.2fms  speedup %.2fx\n",
				g.Name(), approach, 1e3*sd.Seconds(), pool.Cap(), 1e3*pd.Seconds(), speedup)
		}
	}
	rep.GeomeanSpeedup = math.Exp(logGeo / float64(len(rep.Cases)))

	rep.Kernel, err = kernelBenchmarks(gs)
	if err != nil {
		return 1, fmt.Errorf("kernel benchmarks: %w", err)
	}
	for _, k := range rep.Kernel {
		fmt.Fprintf(os.Stderr, "%-32s %-8s %12.0f ns/op %6d allocs/op %10d B/op\n",
			k.Name, k.Graph, k.NsPerOp, k.AllocsPerOp, k.BytesPerOp)
	}

	// The speedup regression gate. Only meaningful where parallel speedup is
	// physically available: on a single-core host the ratio is noise, so the
	// gate is skipped (with a notice) rather than failed — matching how the
	// loadgen throughput gate treats GOMAXPROCS=1.
	code := 0
	switch {
	case minSpeedup <= 0:
	case !rep.Multicore:
		fmt.Fprintf(os.Stderr, "corebench: speedup gate skipped: GOMAXPROCS=1, parallel speedup is not physically available (geomean %.2fx)\n",
			rep.GeomeanSpeedup)
	case rep.GeomeanSpeedup < minSpeedup:
		code = 2
		fmt.Fprintf(os.Stderr, "corebench: SPEEDUP GATE FAILED: geomean %.2fx below the %.2fx floor\n",
			rep.GeomeanSpeedup, minSpeedup)
	default:
		fmt.Fprintf(os.Stderr, "corebench: geomean speedup %.2fx (gate: >= %.2fx)\n", rep.GeomeanSpeedup, minSpeedup)
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
	return code, enc.Encode(&rep)
}
