package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"lamps/internal/dag"
	"lamps/internal/graphhash"
	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/workpool"
)

// renderWithBackups is renderForDiff plus the operating point index and
// the backup plan, so fault-tolerant and platform results compare in full.
func renderWithBackups(t *testing.T, r *Result) []byte {
	t.Helper()
	out := renderForDiff(t, r)
	extra, err := json.Marshal(struct {
		Point int
		Plan  *sched.BackupPlan
	}{r.Point.Index, r.Backups})
	if err != nil {
		t.Fatal(err)
	}
	return append(out, extra...)
}

// rebuildGraph returns a distinct *dag.Graph with g's name, weights and
// edges; a non-nil weight replaces g.Weight, and a non-nil edit changes the
// builder before it builds.
func rebuildGraph(t *testing.T, g *dag.Graph, weight func(v int) int64, edit func(b *dag.Builder)) *dag.Graph {
	t.Helper()
	if weight == nil {
		weight = g.Weight
	}
	b := dag.NewBuilder(g.Name())
	for v := 0; v < g.NumTasks(); v++ {
		b.AddTask(weight(v))
	}
	for v := 0; v < g.NumTasks(); v++ {
		for _, s := range g.Succs(v) {
			b.AddEdge(v, int(s))
		}
	}
	if edit != nil {
		edit(b)
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// memoKeyOf is the key a run of g on pf looks schedules up under.
func memoKeyOf(g *dag.Graph, pf *power.Platform) memoKey {
	return graphhash.ScheduleKey(g, pf)
}

// lp6hp2 is a 6 LP + 2 HP machine.
func lp6hp2(t testing.TB) *power.Platform {
	t.Helper()
	pf, err := power.NewPlatform(
		[]power.CoreClass{{Name: "lp", Model: lpTestModel(t)}, {Name: "hp", Model: power.Default70nm()}},
		[]int{0, 0, 0, 0, 0, 0, 1, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

// runBoth runs approach on g under cfg without a memo and with memo, and
// fails unless both return the same bytes (or both fail). It returns the
// memo's counter movement over the memo run.
func runBoth(t *testing.T, name, approach string, g *dag.Graph, cfg Config, memo *ScheduleMemo) MemoStats {
	t.Helper()
	ctx := context.Background()
	want, werr := (&Engine{Config: cfg}).Run(ctx, approach, g)
	before := memo.Stats()
	got, gerr := (&Engine{Config: cfg, Memo: memo}).Run(ctx, approach, g)
	after := memo.Stats()
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: err without memo %v, with memo %v", name, werr, gerr)
	}
	if werr == nil && !bytes.Equal(renderWithBackups(t, want), renderWithBackups(t, got)) {
		t.Errorf("%s: memo result differs\nwithout: %s\nwith:    %s", name, renderWithBackups(t, want), renderWithBackups(t, got))
	}
	return MemoStats{
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		Evictions: after.Evictions - before.Evictions,
		Bytes:     after.Bytes - before.Bytes,
	}
}

// TestScheduleMemoParity: results are byte-identical with and without a
// memo — cold, and warm on a distinct but equal graph — for every approach
// on a homogeneous and a 6 LP + 2 HP machine, with and without a fault
// layer, SelfCheck on so every restored schedule also passes the verifier.
// A warm run never misses: it schedules nothing.
func TestScheduleMemoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomGraph(rng, 48, 0.08, coarseWeight)
	twin := rebuildGraph(t, g, nil, nil)
	machines := []struct {
		name string
		cfg  func(*dag.Graph) Config
	}{
		{"homogeneous", func(g *dag.Graph) Config { return DeadlineFactor(g, power.Default70nm(), 3) }},
		{"6lp+2hp", func(g *dag.Graph) Config { return DeadlineFactorPlatform(g, lp6hp2(t), 3) }},
	}
	for _, m := range machines {
		for _, k := range []int{0, 1} {
			memo := NewScheduleMemo()
			for _, approach := range Approaches {
				name := fmt.Sprintf("%s/k%d/%s", m.name, k, approach)
				cfgOf := func(g *dag.Graph) Config {
					cfg := m.cfg(g)
					cfg.SelfCheck = true
					cfg.Faults = &FaultConfig{K: k}
					return cfg
				}
				runBoth(t, name+"/cold", approach, g, cfgOf(g), memo)
				warm := runBoth(t, name+"/warm", approach, twin, cfgOf(twin), memo)
				if warm.Misses != 0 {
					t.Errorf("%s: warm run on an equal graph missed %d times", name, warm.Misses)
				}
			}
			if st := memo.Stats(); st.Hits == 0 || st.Bytes <= 0 {
				t.Errorf("%s/k%d: memo never used: %+v", m.name, k, st)
			}
		}
	}
}

// TestScheduleMemoKeySeparatesGraphs: graphs that differ in one weight or
// one edge get different keys and never answer each other's lookups.
func TestScheduleMemoKeySeparatesGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 40, 0.08, coarseWeight)
	weight := rebuildGraph(t, g, func(v int) int64 {
		if v == g.NumTasks()/2 {
			return g.Weight(v) + 1
		}
		return g.Weight(v)
	}, nil)
	edge := rebuildGraph(t, g, nil, func(b *dag.Builder) {
		for v := 0; v < g.NumTasks(); v++ {
			for u := v + 1; u < g.NumTasks(); u++ {
				if !g.HasPath(v, u) {
					b.AddEdge(v, u)
					return
				}
			}
		}
		t.Fatal("graph is a total order; no edge to add")
	})
	m := power.Default70nm()
	one, err := power.Homogeneous(8, m)
	if err != nil {
		t.Fatal(err)
	}
	if memoKeyOf(g, one) == memoKeyOf(weight, one) || memoKeyOf(g, one) == memoKeyOf(edge, one) ||
		memoKeyOf(weight, one) == memoKeyOf(edge, one) {
		t.Fatal("graphs differing in one weight or one edge share a memo key")
	}
	memo := NewScheduleMemo()
	cfg := DeadlineFactor(g, m, 3)
	runBoth(t, "base", ApproachLAMPSPS, g, cfg, memo)
	for _, c := range []struct {
		name string
		g    *dag.Graph
	}{{"one weight", weight}, {"one edge", edge}} {
		d := runBoth(t, c.name, ApproachLAMPSPS, c.g, DeadlineFactor(c.g, m, 3), memo)
		if d.Hits != 0 || d.Misses == 0 {
			t.Errorf("%s: graph answered from another graph's entry: %+v", c.name, d)
		}
	}
}

// TestScheduleMemoKeySeparatesScales: platforms whose classes carry the
// same names but stretch slots differently never share an entry, while a
// one-class platform shares the entry of the same machine given as a
// model — the kernel ignores a one-class platform's shape.
func TestScheduleMemoKeySeparatesScales(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomGraph(rng, 40, 0.08, coarseWeight)
	slower := *lpTestModel(t)
	slower.VddMax = 0.8
	if err := slower.Build(); err != nil {
		t.Fatal(err)
	}
	a := heteroTestPlatform(t)
	b, err := power.NewPlatform(
		[]power.CoreClass{{Name: "lp", Model: &slower}, {Name: "hp", Model: power.Default70nm()}},
		[]int{0, 0, 0, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if a.Scale(0) == b.Scale(0) {
		t.Fatal("test platforms stretch the LP class alike")
	}
	if memoKeyOf(g, a) == memoKeyOf(g, b) {
		t.Fatal("platforms with different class scales share a memo key")
	}
	memo := NewScheduleMemo()
	runBoth(t, "a", ApproachLAMPS, g, DeadlineFactorPlatform(g, a, 3), memo)
	if d := runBoth(t, "b", ApproachLAMPS, g, DeadlineFactorPlatform(g, b, 3), memo); d.Hits != 0 || d.Misses == 0 {
		t.Errorf("platform b answered from platform a's entry: %+v", d)
	}

	m := power.Default70nm()
	runBoth(t, "model", ApproachLAMPS, g, DeadlineFactor(g, m, 3), memo)
	one, err := power.Homogeneous(g.MaxWidth(), m)
	if err != nil {
		t.Fatal(err)
	}
	if d := runBoth(t, "one-class platform", ApproachLAMPS, g, DeadlineFactorPlatform(g, one, 3), memo); d.Misses != 0 {
		t.Errorf("one-class platform missed the model run's entry: %+v", d)
	}
}

// TestScheduleMemoCustomPrioritiesBypass: a custom priority policy never
// touches the memo — it is called once per run and every count is
// list-scheduled under it — while the same graph under EDF does.
func TestScheduleMemoCustomPrioritiesBypass(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomGraph(rng, 40, 0.08, coarseWeight)
	memo := NewScheduleMemo()
	cfg := DeadlineFactor(g, power.Default70nm(), 4)
	calls := 0
	custom := cfg
	custom.Priorities = func(gr *dag.Graph) []int64 {
		calls++
		p := sched.EDFPriorities(gr, 0)
		for v := range p {
			p[v] = -p[v] // latest deadline first: a genuinely different order
		}
		return p
	}
	for i := 0; i < 2; i++ {
		if d := runBoth(t, "custom", ApproachLAMPS, g, custom, memo); d != (MemoStats{}) {
			t.Fatalf("custom priorities touched the memo: %+v", d)
		}
	}
	if calls != 4 {
		t.Fatalf("custom priority policy called %d times over 4 runs, want 4", calls)
	}
	runBoth(t, "edf cold", ApproachLAMPS, g, cfg, memo)
	if d := runBoth(t, "edf warm", ApproachLAMPS, g, cfg, memo); d.Hits == 0 || d.Misses != 0 {
		t.Errorf("EDF run after custom runs: %+v, want hits only", d)
	}
}

// TestScheduleMemoTinyBudgetEvicts: a budget smaller than the working set
// evicts whole entries, never exceeds the budget, and leaves every result
// unchanged; a budget below one schedule stores nothing.
func TestScheduleMemoTinyBudgetEvicts(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := power.Default70nm()
	var gs []*dag.Graph
	for i := 0; i < 4; i++ {
		gs = append(gs, randomGraph(rng, 40, 0.08, coarseWeight))
	}
	const budget = 6 << 10
	memo := newScheduleMemo(budget)
	for pass := 0; pass < 2; pass++ {
		for i, g := range gs {
			runBoth(t, fmt.Sprintf("pass %d graph %d", pass, i), ApproachLAMPSPS, g, DeadlineFactor(g, m, 3), memo)
			if b := memo.Stats().Bytes; b > budget || b <= 0 {
				t.Fatalf("memo holds %d bytes, budget %d", b, budget)
			}
		}
	}
	if st := memo.Stats(); st.Evictions == 0 {
		t.Errorf("no eviction under a %d-byte budget: %+v", budget, st)
	}

	none := newScheduleMemo(64)
	for i := 0; i < 2; i++ {
		runBoth(t, "oversized entry", ApproachLAMPS, gs[0], DeadlineFactor(gs[0], m, 3), none)
	}
	if st := none.Stats(); st.Bytes != 0 || st.Hits != 0 {
		t.Errorf("an entry over the budget was stored: %+v", st)
	}
}

// TestScheduleMemoLRUOrder: eviction drops the least recently used entry,
// where a lookup hit counts as a use.
func TestScheduleMemoLRUOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 30, 0.1, coarseWeight)
	s, err := sched.ListScheduleReleases(g, 2, sched.EDFPriorities(g, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := sched.Pack(s)
	size := p.Bytes() + 8*3 + memoEntryOverhead
	memo := newScheduleMemo(3 * size)
	keys := make([]memoKey, 4)
	for i := range keys {
		keys[i][0] = byte(i + 1)
	}
	for _, k := range keys[:3] {
		memo.put(&k, 2, p)
	}
	if memo.get(&keys[0], 2) == nil {
		t.Fatal("stored entry missing")
	}
	memo.put(&keys[3], 2, p)
	for i, want := range []bool{true, false, true, true} {
		if got := memo.get(&keys[i], 2) != nil; got != want {
			t.Errorf("entry %d present = %t, want %t", i, got, want)
		}
	}
	if st := memo.Stats(); st.Evictions != 1 || st.Bytes != 3*size {
		t.Errorf("stats %+v, want 1 eviction and %d bytes", st, 3*size)
	}
}

// TestScheduleMemoConcurrentRuns: many concurrent runs — parallel engines
// on a shared pool and RunBatch requests, plain and K=1 under both fault
// policies — share one memo, schedules and backup plans alike, and every
// result matches the memo-less reference. Meant for -race.
func TestScheduleMemoConcurrentRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := power.Default70nm()
	pf := lp6hp2(t)
	type job struct {
		approach string
		g        *dag.Graph
		cfg      Config
		want     []byte
	}
	var jobs []job
	for i := 0; i < 3; i++ {
		g := randomGraph(rng, 36+8*i, 0.08, coarseWeight)
		var cfgs []Config
		for _, faults := range []*FaultConfig{nil, {K: 1}, {K: 1, Policy: FaultPrimaryHPBackupLP}} {
			for _, cfg := range []Config{DeadlineFactor(g, m, 3), DeadlineFactorPlatform(g, pf, 3)} {
				cfg.Faults = faults
				cfgs = append(cfgs, cfg)
			}
		}
		for _, cfg := range cfgs {
			for _, approach := range []string{ApproachSS, ApproachLAMPS, ApproachLAMPSPS} {
				res, err := (&Engine{Config: cfg}).Run(context.Background(), approach, g)
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, job{approach, g, cfg, renderWithBackups(t, res)})
			}
		}
	}
	memo := NewScheduleMemo()
	pool := workpool.NewPool(4)
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				res, err := (&Engine{Config: j.cfg, Pool: pool, Memo: memo}).Run(context.Background(), j.approach, j.g)
				if err != nil {
					t.Error(err)
					return
				}
				if got := renderWithBackups(t, res); !bytes.Equal(got, j.want) {
					t.Errorf("%s on %d tasks: concurrent memo run differs", j.approach, j.g.NumTasks())
				}
			}(j)
		}
	}
	batch := make([]BatchRequest, len(jobs))
	for i, j := range jobs {
		batch[i] = BatchRequest{Approach: j.approach, Graph: j.g, Config: j.cfg}
	}
	out := (&Engine{Pool: pool, Memo: memo}).RunBatch(context.Background(), batch)
	wg.Wait()
	for i, br := range out {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		if !bytes.Equal(renderWithBackups(t, br.Result), jobs[i].want) {
			t.Errorf("batch request %d differs with a shared memo", i)
		}
	}
	if st := memo.Stats(); st.Hits == 0 || st.PlanHits == 0 {
		t.Errorf("concurrent runs never hit: %+v", st)
	}
}

// memoPlans plans the backups of the EDF schedule on n processors through
// a memo-backed run's own path twice — the first call plans and stores a
// packed copy, the second returns the stored copy — and returns the planned
// plan and the stored one restored, with the schedule.
func memoPlans(t *testing.T, cfg Config, g *dag.Graph, n int, memo *ScheduleMemo) (s *sched.Schedule, fresh, restored *sched.BackupPlan) {
	t.Helper()
	r, err := (&Engine{Config: cfg, Memo: memo}).newRun(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	defer r.a.close()
	if s, err = r.sc.at(n); err != nil {
		t.Fatal(err)
	}
	fresh, stored, err := r.planBackups(s)
	if err != nil || fresh == nil || stored != nil {
		t.Fatalf("%d processors: first lookup returned plan %t, stored %t, err %v", n, fresh != nil, stored != nil, err)
	}
	again, stored, err := r.planBackups(s)
	if err != nil || again != nil || stored == nil {
		t.Fatalf("%d processors: second lookup returned plan %t, stored %t, err %v", n, again != nil, stored != nil, err)
	}
	return s.CloneCompact(), fresh, stored.Restore(g, r.pf)
}

// TestScheduleMemoPlanParity is the differential gate of the plan slots:
// over the golden corpus on one class and on 6 LP + 2 HP, under both
// policies and at every processor count, the plan a run plans and the one
// it restores from the memo both equal a fresh sched.PlanBackups of the
// same schedule — processors, times, recovery makespan, policy and the
// BackupsOn index.
func TestScheduleMemoPlanParity(t *testing.T) {
	m := power.Default70nm()
	pf := lp6hp2(t)
	for _, g := range goldenGraphs(t) {
		one, err := power.Homogeneous(max(2, g.MaxWidth()), m)
		if err != nil {
			t.Fatal(err)
		}
		for _, machine := range []*power.Platform{one, pf} {
			memo := NewScheduleMemo()
			for _, policy := range []FaultPolicy{FaultBackupAnywhere, FaultPrimaryHPBackupLP} {
				cfg := DeadlineFactorPlatform(g, machine, 3)
				cfg.Faults = &FaultConfig{K: 1, Policy: policy}
				for n := 2; n <= machine.NumProcs(); n++ {
					s, fresh, restored := memoPlans(t, cfg, g, n, memo)
					want, err := sched.PlanBackups(s, machine, policy)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s on %d of %d classes, %s", g.Name(), n, machine.NumClasses(), policy)
					if !reflect.DeepEqual(fresh, want) {
						t.Errorf("%s: planned plan differs from PlanBackups", name)
					}
					if !reflect.DeepEqual(restored, want) {
						t.Errorf("%s: restored plan differs from PlanBackups", name)
					}
				}
			}
			if st := memo.Stats(); st.PlanHits == 0 || st.PlanHits != st.PlanMisses {
				t.Errorf("%s: every plan should miss once and hit once: %+v", g.Name(), st)
			}
		}
	}
}

// TestScheduleMemoPlanDetached: a Result's backup plan shares no memory
// with the memo, the pools or another Result — rewriting every array of a
// returned plan, from a cold run and from warm ones, changes nothing a
// later run restores, and a later run leaves the rewritten plan as it was.
func TestScheduleMemoPlanDetached(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := randomGraph(rng, 40, 0.08, coarseWeight)
	for _, cfg := range []Config{DeadlineFactor(g, power.Default70nm(), 4), DeadlineFactorPlatform(g, lp6hp2(t), 4)} {
		cfg.Faults = &FaultConfig{K: 1, Policy: FaultPrimaryHPBackupLP}
		want, err := (&Engine{Config: cfg}).Run(context.Background(), ApproachLAMPSPS, g)
		if err != nil {
			t.Fatal(err)
		}
		memo := NewScheduleMemo()
		eng := Engine{Config: cfg, Memo: memo}
		var prev *sched.BackupPlan
		for run := 0; run < 3; run++ {
			got, err := eng.Run(context.Background(), ApproachLAMPSPS, g)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Backups, want.Backups) || !bytes.Equal(renderWithBackups(t, got), renderWithBackups(t, want)) {
				t.Fatalf("run %d: result differs from the memo-less one after the previous result was rewritten", run)
			}
			if prev != nil && (prev.Proc[0] != -1 || prev.Start[len(prev.Start)-1] != -1) {
				t.Fatalf("run %d overwrote the previous result's plan", run)
			}
			pl := got.Backups
			prev = pl
			for v := range pl.Proc {
				pl.Proc[v], pl.Start[v], pl.Finish[v] = -1, -1, -1
			}
			for p := 0; p < got.Schedule.NumProcs; p++ {
				clear(pl.BackupsOn(p))
			}
		}
		if st := memo.Stats(); st.PlanHits == 0 {
			t.Errorf("warm runs never restored a plan: %+v", st)
		}
	}
}

// TestScheduleMemoCorruptPlanFailsSelfCheck: under SelfCheck a restored
// plan passes the same verifier as a fresh one, so a stored slot whose
// plan is illegal fails the run with a self-check error instead of
// reaching a result.
func TestScheduleMemoCorruptPlanFailsSelfCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := randomGraph(rng, 40, 0.08, coarseWeight)
	cfg := DeadlineFactor(g, power.Default70nm(), 4)
	cfg.Faults = &FaultConfig{K: 1}
	cfg.SelfCheck = true
	memo := NewScheduleMemo()
	eng := Engine{Config: cfg, Memo: memo}
	if _, err := eng.Run(context.Background(), ApproachLAMPS, g); err != nil {
		t.Fatal(err)
	}
	// Replace every stored plan with one whose first backup starts at 0,
	// before its primary finishes and its fault could be detected.
	corrupted := 0
	for _, e := range memo.entries {
		for n, p := range e.plans[planSlot(FaultBackupAnywhere)] {
			if p == nil {
				continue
			}
			var bad sched.BackupPlan
			p.Unpack(&bad, g, nil)
			bad.Start[0] = 0
			e.plans[planSlot(FaultBackupAnywhere)][n] = sched.PackPlan(&bad)
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("the cold run stored no plan")
	}
	_, err := eng.Run(context.Background(), ApproachLAMPS, g)
	if err == nil || !strings.Contains(err.Error(), "self-check: backup plan") {
		t.Fatalf("run over corrupted plans: err %v, want a backup-plan self-check failure", err)
	}
}

// TestScheduleMemoKeyImpliesRefClass: the primary-HP/backup-LP policy reads
// the platform's reference class, which the memo key does not write. It
// needs not: the key writes every class's Scale, and the reference class
// is always the lowest-index class whose Scale is exactly 1 — including
// when classes tie on f_max or the fastest class is not the last.
func TestScheduleMemoKeyImpliesRefClass(t *testing.T) {
	lp := lpTestModel(t)
	hp := power.Default70nm()
	mid := *power.Default70nm()
	mid.VddMax = 0.95
	if err := mid.Build(); err != nil {
		t.Fatal(err)
	}
	for _, classes := range [][]*power.Model{
		{lp, hp}, {hp, lp}, {hp, hp}, {lp, hp, hp}, {hp, lp, hp}, {&mid, lp, hp}, {lp, &mid}, {hp},
	} {
		var cc []power.CoreClass
		procs := []int{}
		for c, m := range classes {
			cc = append(cc, power.CoreClass{Name: fmt.Sprintf("c%d", c), Model: m})
			procs = append(procs, c, c)
		}
		pf, err := power.NewPlatform(cc, procs)
		if err != nil {
			t.Fatal(err)
		}
		first := -1
		for c := 0; c < pf.NumClasses(); c++ {
			if pf.Scale(c) == 1 {
				first = c
				break
			}
		}
		if pf.RefClass() != first {
			t.Errorf("%d classes: reference class %d, lowest class with Scale 1 is %d", len(classes), pf.RefClass(), first)
		}
	}
}
