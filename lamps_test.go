package lamps

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

// TestFacadeQuickstart exercises the README quick-start path through the
// public API only.
func TestFacadeQuickstart(t *testing.T) {
	b := NewGraphBuilder("pipeline")
	t1 := b.AddTask(2 * Millisecond)
	t2 := b.AddTask(6 * Millisecond)
	t3 := b.AddTask(4 * Millisecond)
	b.AddEdge(t1, t2)
	b.AddEdge(t1, t3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DeadlineFactor(g, nil, 2)
	best, err := LAMPSPS(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := ScheduleAndStretch(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if best.TotalEnergy() > ss.TotalEnergy() {
		t.Errorf("LAMPS+PS (%g J) worse than S&S (%g J)", best.TotalEnergy(), ss.TotalEnergy())
	}
	if !strings.Contains(best.String(), "LAMPS+PS") {
		t.Errorf("Result.String() = %q", best.String())
	}
}

func TestFacadeApproachesAndRun(t *testing.T) {
	g, deadline := MPEG1Fig9()
	cfg := Config{Deadline: deadline}
	names := Approaches()
	if len(names) != 6 {
		t.Fatalf("Approaches() = %v", names)
	}
	for _, a := range names {
		r, err := Run(a, g, cfg)
		if err != nil {
			t.Errorf("Run(%s): %v", a, err)
			continue
		}
		if r.TotalEnergy() <= 0 {
			t.Errorf("Run(%s): non-positive energy", a)
		}
	}
	// Mutating the returned slice must not corrupt the package state.
	names[0] = "corrupted"
	if Approaches()[0] == "corrupted" {
		t.Error("Approaches() exposes internal state")
	}
}

func TestFacadeSTGRoundTrip(t *testing.T) {
	b := NewGraphBuilder("io")
	u := b.AddTask(10)
	v := b.AddTask(20)
	b.AddEdge(u, v)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSTG(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSTG(&buf, "io")
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalWork() != 30 || back.NumEdges() != 1 {
		t.Errorf("round trip lost data: work=%d edges=%d", back.TotalWork(), back.NumEdges())
	}
}

func TestFacadeSchedulingAndEnergy(t *testing.T) {
	g, _ := MPEG1Fig9()
	s, err := ListEDF(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySchedule(s); err != nil {
		t.Fatal(err)
	}
	m := Default70nm()
	bd, err := EvaluateEnergy(s, m, m.CriticalLevel(),
		float64(s.Makespan)/m.CriticalLevel().Freq, EnergyOptions{PS: true})
	if err != nil {
		t.Fatal(err)
	}
	if bd.Total() <= 0 {
		t.Error("non-positive energy")
	}
}

func TestFacadeKPN(t *testing.T) {
	n := NewKPN()
	a := n.AddProcess(KPNProcess{Name: "src", Cycles: 1000})
	z := n.AddProcess(KPNProcess{Name: "sink", Cycles: 2000, Output: true})
	n.AddChannel(KPNChannel{From: a, To: z})
	g, dl, err := n.Unroll(3, 100000, 50000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ListEDFWithDeadlines(g, 2, dl)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySchedule(s); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeMPEGCustomGOP(t *testing.T) {
	g, err := MPEG1GOP("IBBP", map[byte]int64{'I': 100, 'B': 300, 'P': 200})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 4 {
		t.Errorf("NumTasks = %d", g.NumTasks())
	}
}

func TestFacadeEnergySaving(t *testing.T) {
	if got := EnergySaving(10, 6, 5); got != 0.8 {
		t.Errorf("EnergySaving = %g", got)
	}
}

func TestFacadeGrainConstants(t *testing.T) {
	if Coarse == Fine {
		t.Error("grain constants collide")
	}
	p := GraphProfile{Name: "x", Nodes: 20, Edges: 40, CriticalPath: 500, TotalWork: 1500}
	g, err := p.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	if g.CriticalPathLength() != 500 {
		t.Errorf("CPL = %d", g.CriticalPathLength())
	}
}

func TestFacadeSimulate(t *testing.T) {
	g, deadline := MPEG1Fig9()
	plan, err := LAMPSPS(g, Config{Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	m := Default70nm()
	tr, err := Simulate(plan.Schedule, m, SimOptions{
		Level: plan.Level, PS: true, DeadlineSec: deadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.DeadlineMet {
		t.Error("WCET simulation misses the deadline")
	}
	// Simulated energy matches the planned energy (up to horizon rounding).
	rel := tr.Breakdown.Total()/plan.TotalEnergy() - 1
	if rel > 1e-6 || rel < -1e-6 {
		t.Errorf("simulated energy off by %g relative", rel)
	}
}

func TestFacadeSlackReclaimAndIslands(t *testing.T) {
	g, deadline := MPEG1Fig9()
	cfg := Config{Deadline: deadline}
	uniform, err := LAMPSPS(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	isl, err := VoltageIslands(g, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := SlackReclaimDVS(g, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := LimitMF(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Flexibility ordering: uniform >= islands >= per-task >= LIMIT-MF is
	// not guaranteed pairwise for greedy heuristics, but each must sit
	// between LIMIT-MF and the uniform solution here.
	for name, e := range map[string]float64{
		"islands": isl.TotalEnergy(),
		"pertask": pt.TotalEnergy(),
	} {
		if e > uniform.TotalEnergy()*(1+1e-6) {
			t.Errorf("%s (%g J) worse than uniform (%g J)", name, e, uniform.TotalEnergy())
		}
		if e < mf.TotalEnergy()*(1-1e-9) {
			t.Errorf("%s (%g J) beats LIMIT-MF (%g J)", name, e, mf.TotalEnergy())
		}
	}
}

func TestFacadePeriodic(t *testing.T) {
	set := NewPeriodicSet()
	if err := set.Add(PeriodicTask{Name: "a", WCET: 1_000_000, Period: 4_000_000}); err != nil {
		t.Fatal(err)
	}
	if err := set.Add(PeriodicTask{Name: "b", WCET: 2_000_000, Period: 8_000_000}); err != nil {
		t.Fatal(err)
	}
	plan, err := set.Schedule(Default70nm(), true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.EnergyJ <= 0 || plan.NumProcs < 1 {
		t.Errorf("bad plan: %+v", plan)
	}
}

// TestFacadeEngine drives the exported Engine API: a cancellable run with a
// progress observer and a shared worker pool, identical to the plain call.
func TestFacadeEngine(t *testing.T) {
	g, deadline := MPEG1Fig9()
	cfg := Config{Model: Default70nm(), Deadline: deadline}
	plain, err := RunCtx(context.Background(), ApproachLAMPSPS, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := &facadeObserver{}
	eng := Engine{Config: cfg, Observer: obs, Pool: NewWorkerPool(4)}
	r, err := eng.Run(context.Background(), ApproachLAMPSPS, g)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalEnergy() != plain.TotalEnergy() || r.Stats != plain.Stats {
		t.Errorf("engine run diverged: %g J %+v vs %g J %+v",
			r.TotalEnergy(), r.Stats, plain.TotalEnergy(), plain.Stats)
	}
	if obs.phases == 0 || obs.schedules != r.Stats.SchedulesBuilt {
		t.Errorf("observer saw %d phases, %d builds; Stats say %d builds",
			obs.phases, obs.schedules, r.Stats.SchedulesBuilt)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, ApproachLAMPSPS, g, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled RunCtx: err = %v", err)
	}
}

type facadeObserver struct {
	phases    int
	schedules int
}

func (o *facadeObserver) OnPhase(string) { o.phases++ }

func (o *facadeObserver) OnScheduleBuilt(int, int64) { o.schedules++ }

func (o *facadeObserver) OnLevelEvaluated(Level, EnergyBreakdown) {}
