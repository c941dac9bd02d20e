package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"lamps/internal/core"
	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/graphhash"
	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/server"
	"lamps/internal/store"
	"lamps/internal/workpool"
)

// span is one traced interval. Spans of one request share Req; Parent is
// the ID of the span whose call caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"` // work items counted at this boundary
}

// tracer keeps spans in memory until the run ends. Safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(req, parent int, name string) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes span id, recording count work items done inside it.
func (t *tracer) end(id int, count int64) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Count = count
}

// dur returns span id's duration in µs.
func (t *tracer) dur(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.spans[id-1].End-t.spans[id-1].Start) / 1e3
}

// byName returns the durations, in µs, of every closed span with the given
// name.
func (t *tracer) byName(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var xs []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			xs = append(xs, float64(s.End-s.Start)/1e3)
		}
	}
	return xs
}

// selfTimes returns, per span name, the median self time in µs: a span's
// duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string][]float64{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		self[s.Name] = append(self[s.Name], float64(s.End-s.Start-covered(s, children[s.ID]))/1e3)
	}
	out := map[string]float64{}
	for name, xs := range self {
		out[name] = median(xs)
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if k.End >= 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64 = 0, 0, -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// phaseObserver is the benchmark's core.Observer: it opens a span per
// engine phase under the core.run span and records the processor counts and
// levels the engine reports, for the kernel replay.
type phaseObserver struct {
	tr       *tracer
	req, run int
	cur      int // open phase span, 0 = none
	nprocs   []int
	levels   []power.Level
}

func (o *phaseObserver) OnPhase(name string) {
	o.close()
	o.cur = o.tr.begin(o.req, o.run, "core.phase."+name)
}

func (o *phaseObserver) OnScheduleBuilt(nprocs int, _ int64) { o.nprocs = append(o.nprocs, nprocs) }

func (o *phaseObserver) OnLevelEvaluated(lvl power.Level, _ energy.Breakdown) {
	o.levels = append(o.levels, lvl)
}

func (o *phaseObserver) close() {
	if o.cur != 0 {
		o.tr.end(o.cur, 0)
		o.cur = 0
	}
}

// Traced-run shares of the measured seconds, and the ladder's sample size.
const (
	untracedShare = 0.15 // untraced closed loop: the overhead baseline
	tracedShare   = 0.15 // traced closed loop: the wire rung
	ladderSamples = 200  // traced requests replayed in-process
	sweepSamples  = 5    // in-process sweeps for the sweep rung (solve-plain)
)

// enginePhases are the phases whose time is reported per request.
var enginePhases = []string{core.PhaseMinProcs, core.PhaseSaturation, core.PhaseBuild, core.PhaseEvaluate}

// traced is the per-layer run: an untraced closed loop (the baseline the
// tracing overhead is measured against), a traced closed loop whose every
// request is a lampsd.wire span, an open loop for the generator lag, then —
// after lampsd has drained — a sample of the traced requests replayed
// in-process down the ladder: handler miss and hit, dag build, digest,
// engine run with its phases, replayed kernels and store appends.
func (b *bench) traced(ctx context.Context) (*result, error) {
	w := b.cfg.workload
	client := newClient(conns)
	defer client.CloseIdleConnections()
	d, err := b.setup(ctx, client, 1)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	s := b.sender(client, d.base)
	warm := b.warmup(ctx, s)
	m0, err := scrape(client, d.base)
	if err != nil {
		return nil, err
	}
	secs := func(share float64) time.Duration {
		return time.Duration(share * b.cfg.seconds * float64(time.Second))
	}
	// Both closed loops keep every body, the traced one for the ladder, so
	// that the two differ only in tracing; the untraced loop's extra bodies
	// are dropped again before the reference check.
	keep := s.keep
	s.keep = func(*request) bool { return true }
	untraced := closedLoop(ctx, s, b.gen.next, conns, secs(untracedShare), secs(untracedShare), 0)
	tr := newTracer()
	s.tr = tr
	tracedPh := closedLoop(ctx, s, b.gen.next, conns, secs(tracedShare), secs(tracedShare), 0)
	s.tr, s.keep = nil, keep
	for i := range untraced.outs {
		if o := &untraced.outs[i]; !keep(o.req) {
			o.body = nil
		}
	}
	open := openLoop(ctx, s, b.gen.next, w.openRate, int(w.openRate*openShare*b.cfg.seconds), conns)
	m1, err := scrape(client, d.base)
	if err != nil {
		return nil, err
	}
	client.CloseIdleConnections()
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The traced phase keeps every body for the ladder, which compares the
	// sampled ones with its in-process misses; the other phases keep the
	// usual sample for the reference check.
	b.checkKept([]phase{warm, untraced, open})
	attempted, failed := tally([]phase{warm, untraced, tracedPh, open})
	if failed > 0 {
		return nil, fmt.Errorf("%d of %d requests failed during the traced run", failed, attempted)
	}

	m, err := b.ladder(ctx, tr, tracedPh)
	if err != nil {
		return nil, err
	}
	if err := b.writeTrace(tr); err != nil {
		return nil, err
	}

	hits := delta(m0, m1, "lampsd_cache_hits_total")
	misses := delta(m0, m1, "lampsd_cache_misses_total")
	waitCount := delta(m0, m1, "lampsd_queue_wait_seconds_count")
	waitMS := 0.0
	if waitCount > 0 {
		waitMS = 1e3 * delta(m0, m1, "lampsd_queue_wait_seconds_sum") / waitCount
	}
	lag99, err := percentile(lagsMS(open), 0.99)
	if err != nil {
		return nil, fmt.Errorf("open loop send lag: %w", err)
	}
	p99, _, err := windowedP99(untraced.latenciesMS())
	if err != nil {
		return nil, fmt.Errorf("untraced closed loop: %w", err)
	}
	op99, _, err := windowedP99(open.latenciesMS())
	if err != nil {
		return nil, fmt.Errorf("open loop: %w", err)
	}
	var reqBytes, respBytes []float64
	for i := range tracedPh.outs {
		reqBytes = append(reqBytes, float64(len(tracedPh.outs[i].req.body)))
		respBytes = append(respBytes, float64(tracedPh.outs[i].resBody))
	}
	untracedP50 := median(untraced.latenciesMS())
	tracedP50 := median(tracedPh.latenciesMS())
	fmt.Printf("traced run: untraced p50 %.3f ms over %d, traced p50 %.3f ms over %d, open-loop generator lag p99 %.3f ms over %d\n",
		untracedP50, untraced.successes(), tracedP50, tracedPh.successes(), lag99, len(open.outs))

	m["lampsd.req_bytes"] = metric{mean(reqBytes), "bytes"}
	m["lampsd.resp_bytes"] = metric{mean(respBytes), "bytes"}
	m["server.cache_hit_ratio"] = metric{hits / math.Max(hits+misses, 1), "ratio"}
	m["server.queue_wait_ms"] = metric{waitMS, "ms"}
	m["bench.send_lag_p99_ms"] = metric{lag99, "ms"}
	m["bench.closed_p99_ms"] = metric{p99, "ms"}
	m["bench.open_p99_ms"] = metric{op99, "ms"}
	m["bench.trace_overhead_ratio"] = metric{tracedP50 / untracedP50, "ratio"}
	return &result{Correct: true, Attempted: attempted, Failed: 0, Metrics: m}, nil
}

// ladder replays an evenly spaced sample of the traced requests in-process,
// rung by rung, and derives each layer's cost as the difference between
// adjacent rungs.
func (b *bench) ladder(ctx context.Context, tr *tracer, traced phase) (map[string]metric, error) {
	opts := serverOptions()
	// The handler rung gets a store like lampsd's -store-dir.
	storeDir := filepath.Join(b.dir, "ladder-store")
	st, err := server.OpenStore(storeDir, opts.Logger)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	opts.Store = st
	h := server.New(opts).Handler()

	// A second store times bare appends of the same bodies.
	put, err := server.OpenStore(filepath.Join(b.dir, "put-store"), opts.Logger)
	if err != nil {
		return nil, err
	}
	defer put.Close() // error paths; the success path checks Close below
	search := workpool.NewPool(0)

	var sample []*outcome
	step := max(1, len(traced.outs)/ladderSamples)
	for i := 0; i < len(traced.outs); i += step {
		sample = append(sample, &traced.outs[i])
	}
	var wire []float64
	counts := map[string]float64{}
	phaseUS := map[string]float64{}
	for _, o := range sample {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		wire = append(wire, float64(o.lat)/1e3)
		n, err := b.ladderOne(tr, h, put, search, o, phaseUS)
		if err != nil {
			return nil, err
		}
		for k, v := range n {
			counts[k] += v
		}
	}
	if err := put.Close(); err != nil {
		return nil, err
	}
	// Warm-load of what the ladder appended: the start-up cost of a store
	// this workload's misses leave behind.
	wl := time.Now()
	again, err := server.OpenStore(filepath.Join(b.dir, "put-store"), opts.Logger)
	if err != nil {
		return nil, err
	}
	again.WarmLoad(func(string, []byte) {})
	warmloadMS := float64(time.Since(wl)) / float64(time.Millisecond)
	again.Close()

	ns := float64(len(sample))
	perCall := func(name string) float64 { return mean(tr.byName(name)) }
	hit := median(tr.byName("server.hit"))
	build := median(tr.byName("dag.build"))
	sum := median(tr.byName("graphhash.sum"))
	wireP50 := median(wire)
	m := map[string]metric{
		"server.hit_us":      {hit, "us"},
		"server.hit_self_us": {hit - build - sum, "us"},
		"dag.build_us":       {build, "us"},
		"graphhash.sum_us":   {sum, "us"},
		"store.warmload_ms":  {warmloadMS, "ms"},
	}
	miss := median(tr.byName("server.miss"))
	run := median(tr.byName("core.run"))
	missSelf := miss - hit - run
	m["lampsd.wire_us"] = metric{wireP50 - miss, "us"}
	m["server.miss_self_us"] = metric{missSelf, "us"}
	m["core.run_us"] = metric{run, "us"}
	for _, ph := range enginePhases {
		m["core.phase."+ph+"_us"] = metric{phaseUS[ph] / ns, "us"}
	}
	m["core.schedules_per_req"] = metric{counts["schedules"] / ns, "count"}
	m["core.levels_per_req"] = metric{counts["levels"] / ns, "count"}
	m["sched.backup_plans_per_req"] = metric{counts["plans"] / ns, "count"}
	for _, name := range []string{"sched.schedule_into", "sched.schedule_into_platform", "sched.backup_plan", "energy.reset", "energy.evaluate", "store.put"} {
		m[name+"_us"] = metric{perCall(name), "us"}
	}

	cellUS, hashUS := 0.0, 0.0
	if b.cfg.workload.name == "solve-plain" {
		if cellUS, hashUS, err = b.sweepRung(ctx, tr); err != nil {
			return nil, err
		}
	}
	m["server.sweep_cell_us"] = metric{cellUS, "us"}
	m["graphhash.cell_us"] = metric{hashUS, "us"}

	fmt.Printf("ladder (%d samples): wire %.1f + handler miss self %.1f + (handler hit self %.1f + dag build %.1f + digest %.1f) + engine run %.1f = %.1f µs traced wire p50\n",
		len(sample), wireP50-miss, missSelf, hit-build-sum, build, sum, run, wireP50)
	self := selfTimes(tr.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	var parts []string
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s %.1f", n, self[n]))
	}
	fmt.Printf("median self time per span, µs: %s\n", strings.Join(parts, ", "))
	return m, nil
}

// ladderOne replays one request down the ladder under a "ladder" root span
// and returns its work counts.
func (b *bench) ladderOne(tr *tracer, h http.Handler, put *store.Store, search *workpool.Pool, o *outcome, phaseUS map[string]float64) (map[string]float64, error) {
	r, p := o.req, o.req.prob
	req := r.seq
	root := tr.begin(req, 0, "ladder")
	defer tr.end(root, 0)
	counts := map[string]float64{}

	id := tr.begin(req, root, "server.miss")
	rec := serveInProcess(h, p.path(), r.body)
	tr.end(id, 1)
	if rec.Code != http.StatusOK || rec.Header().Get(server.CacheHeader) != "miss" {
		return nil, fmt.Errorf("in-process miss for %s: status %d, cache %q", p.combo(), rec.Code, rec.Header().Get(server.CacheHeader))
	}
	missBody := rec.Body.Bytes()
	if string(missBody) != string(o.body) {
		return nil, fmt.Errorf("in-process miss for %s differs from lampsd's response", p.combo())
	}
	id = tr.begin(req, root, "server.hit")
	rec = serveInProcess(h, p.path(), r.body)
	tr.end(id, 1)
	if rec.Code != http.StatusOK || rec.Header().Get(server.CacheHeader) != "hit" {
		return nil, fmt.Errorf("in-process hit for %s: status %d, cache %q", p.combo(), rec.Code, rec.Header().Get(server.CacheHeader))
	}

	id = tr.begin(req, root, "dag.build")
	g, err := buildGraph(p.graph.g)
	tr.end(id, int64(g.NumTasks()))
	if err != nil {
		return nil, err
	}
	cfg := p.config(b.pf)
	hp := graphhash.Problem{Graph: g, Model: cfg.Model, Platform: cfg.Platform, Deadline: cfg.Deadline, Approach: canonical[p.approach]}
	if cfg.Faults != nil {
		hp.FaultsK, hp.FaultsPolicy = cfg.Faults.K, string(cfg.Faults.Policy)
	}
	id = tr.begin(req, root, "graphhash.sum")
	key := graphhash.Sum(hp)
	tr.end(id, 1)
	if key != o.key {
		return nil, fmt.Errorf("ladder digest of %s differs from lampsd's", p.combo())
	}

	run := tr.begin(req, root, "core.run")
	obs := &phaseObserver{tr: tr, req: req, run: run}
	res, err := (&core.Engine{Config: cfg, Observer: obs, Pool: search}).Run(context.Background(), canonical[p.approach], g)
	obs.close()
	tr.end(run, int64(len(obs.nprocs)))
	if err != nil {
		return nil, fmt.Errorf("engine run of %s: %w", p.combo(), err)
	}
	counts["schedules"] = float64(len(obs.nprocs))
	counts["levels"] = float64(len(obs.levels))
	for _, s := range spansUnder(tr, run) {
		phaseUS[strings.TrimPrefix(s.Name, "core.phase.")] += float64(s.End-s.Start) / 1e3
	}

	plans, err := b.replayKernels(tr, req, root, g, cfg, p, obs, res)
	if err != nil {
		return nil, err
	}
	counts["plans"] = float64(plans)

	id = tr.begin(req, root, "store.put")
	err = put.Put(key, missBody)
	tr.end(id, 1)
	return counts, err
}

// spansUnder returns the closed spans whose parent is id.
func spansUnder(tr *tracer, id int) []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []span
	for _, s := range tr.spans[id:] {
		if s.Parent == id && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// replayKernels re-runs the kernels behind one engine run, timing each call:
// ScheduleInto (or its platform variant) for every processor count the
// Observer reported, a backup plan for each of those schedules on
// fault-tolerant problems, a gap-profile reset per schedule, and one
// evaluation per reported level on the winning schedule's profile. It
// returns the number of backup plans made.
func (b *bench) replayKernels(tr *tracer, req, root int, g *dag.Graph, cfg core.Config, p *problem, obs *phaseObserver, res *core.Result) (int, error) {
	kernels := tr.begin(req, root, "kernels")
	defer tr.end(kernels, 0)
	pf := cfg.Platform
	policy := sched.BackupAnywhere
	if cfg.Faults != nil {
		policy = cfg.Faults.Policy
	}
	prio := sched.EDFPriorities(g, 0)
	var k sched.Scheduler
	var planner sched.BackupPlanner
	var prof energy.GapProfile
	dst := new(sched.Schedule)
	reset := func(s *sched.Schedule, plan *sched.BackupPlan) {
		switch {
		case pf != nil && plan != nil:
			prof.ResetPlatformFT(s, pf, plan)
		case pf != nil:
			prof.ResetPlatform(s, pf)
		case plan != nil:
			prof.ResetFT(s, plan)
		default:
			prof.Reset(s)
		}
	}
	plans := 0
	for _, n := range obs.nprocs {
		var err error
		if pf != nil {
			id := tr.begin(req, kernels, "sched.schedule_into_platform")
			err = k.ScheduleIntoPlatform(dst, g, pf, n, prio, nil)
			tr.end(id, int64(n))
		} else {
			id := tr.begin(req, kernels, "sched.schedule_into")
			err = k.ScheduleInto(dst, g, n, prio, nil)
			tr.end(id, int64(n))
		}
		if err != nil {
			return 0, fmt.Errorf("replaying ScheduleInto on %d processors: %w", n, err)
		}
		var plan *sched.BackupPlan
		if cfg.Faults != nil && dst.NumProcs >= 2 {
			id := tr.begin(req, kernels, "sched.backup_plan")
			plan, err = planner.Plan(dst, pf, policy)
			tr.end(id, 1)
			plans++
			if err != nil && !errors.Is(err, sched.ErrBackupInfeasible) {
				return 0, fmt.Errorf("replaying backup plan on %d processors: %w", n, err)
			}
		}
		id := tr.begin(req, kernels, "energy.reset")
		reset(dst, plan)
		tr.end(id, 1)
	}
	reset(res.Schedule, res.Backups)
	opts := energy.Options{PS: strings.HasSuffix(p.approach, "+ps")}
	for _, lvl := range obs.levels {
		if pf != nil {
			pt, ok := pointAt(pf, lvl)
			if !ok {
				return 0, fmt.Errorf("no operating point realises reported level %d", lvl.Index)
			}
			id := tr.begin(req, kernels, "energy.evaluate")
			prof.EvaluatePoint(pf, pt, cfg.Deadline, opts)
			tr.end(id, 1)
		} else {
			id := tr.begin(req, kernels, "energy.evaluate")
			prof.Evaluate(cfg.Model, lvl, cfg.Deadline, opts)
			tr.end(id, 1)
		}
	}
	return plans, nil
}

// pointAt finds the platform operating point whose reference-class level is
// lvl — the level the engine reports for a platform evaluation.
func pointAt(pf *power.Platform, lvl power.Level) (power.OperatingPoint, bool) {
	for _, pt := range pf.Points() {
		if pt.Levels[pf.RefClass()].Index == lvl.Index {
			return pt, true
		}
	}
	return power.OperatingPoint{}, false
}

// sweepRung times /v1/sweep in-process over a few of the workload's graphs:
// the per-cell cost of a whole grid and the per-cell digest derivation.
func (b *bench) sweepRung(ctx context.Context, tr *tracer) (cellUS, hashUS float64, err error) {
	h := server.New(serverOptions()).Handler()
	rng := rand.New(rand.NewSource(b.cfg.seed))
	var cells, hashes []float64
	for i, kind := range sweepKinds[:sweepSamples] {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		var gi *graphInput
		for _, s := range b.gen.slots {
			if s.kind == kind {
				gi = s.members[rng.Intn(len(s.members))]
				break
			}
		}
		p := sweepOver(gi, rng)
		req := -1 - i
		id := tr.begin(req, 0, "server.sweep")
		rec := serveInProcess(h, p.path(), p.body(nil))
		tr.end(id, int64(p.cells()))
		cells = append(cells, tr.dur(id)/float64(p.cells()))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"errors":0`) {
			return 0, 0, fmt.Errorf("in-process sweep over %s failed: %.300s", kind, rec.Body.String())
		}
		m := power.Default70nm()
		g := gi.g
		hasher := graphhash.NewProblemHasher(graphhash.Problem{Graph: g, Model: m})
		id = tr.begin(req, 0, "graphhash.cells")
		for _, a := range approaches {
			for _, f := range p.factors {
				for _, mp := range sweepProcs {
					hasher.Cell(f*float64(g.CriticalPathLength())/m.FMax(), mp, canonical[a])
				}
			}
		}
		tr.end(id, int64(p.cells()))
		hashes = append(hashes, tr.dur(id)/float64(p.cells()))
	}
	return median(cells), median(hashes), nil
}

// writeTrace writes the spans to the scratch directory's traces folder.
func (b *bench) writeTrace(tr *tracer) error {
	dir := filepath.Join(filepath.Dir(b.dir), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.cfg.workload.name, b.cfg.seed))
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
	return nil
}
