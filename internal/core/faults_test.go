package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"lamps/internal/dag"
	"lamps/internal/power"
	"lamps/internal/sim"
	"lamps/internal/verify"
)

// sixApproaches is every uniform-frequency approach the engine serves;
// scheduleApproaches is the subset that constructs an actual schedule (the
// LIMIT bounds are analytic and carry neither schedule nor backup plan —
// they stay valid lower bounds under fault tolerance because reserving
// backup capacity only ever adds energy).
var (
	sixApproaches = []string{
		ApproachSS, ApproachLAMPS, ApproachSSPS, ApproachLAMPSPS, ApproachLimitSF, ApproachLimitMF,
	}
	scheduleApproaches = []string{ApproachSS, ApproachLAMPS, ApproachSSPS, ApproachLAMPSPS}
)

// runApproach runs one approach through the engine, failing the test on
// error.
func runApproach(t *testing.T, approach string, g *dag.Graph, cfg Config) *Result {
	t.Helper()
	r, err := (&Engine{Config: cfg}).Run(context.Background(), approach, g)
	if err != nil {
		t.Fatalf("%s: %v", approach, err)
	}
	return r
}

// requireIdenticalResult fails unless two results agree bit for bit on
// everything the response encoding can see.
func requireIdenticalResult(t *testing.T, ctx string, got, want *Result) {
	t.Helper()
	if got.Energy != want.Energy {
		t.Fatalf("%s: energy %+v != %+v", ctx, got.Energy, want.Energy)
	}
	if got.Level != want.Level || got.NumProcs != want.NumProcs || got.Stats != want.Stats {
		t.Fatalf("%s: level/procs/stats differ: %+v/%d/%+v vs %+v/%d/%+v",
			ctx, got.Level, got.NumProcs, got.Stats, want.Level, want.NumProcs, want.Stats)
	}
	if len(got.Point.Levels) != len(want.Point.Levels) {
		t.Fatalf("%s: operating point shape differs", ctx)
	}
	for i := range got.Point.Levels {
		if got.Point.Levels[i] != want.Point.Levels[i] {
			t.Fatalf("%s: point level %d differs", ctx, i)
		}
	}
	if (got.Schedule == nil) != (want.Schedule == nil) {
		t.Fatalf("%s: schedule presence differs", ctx)
	}
	if got.Schedule == nil {
		return
	}
	for v := range got.Schedule.Proc {
		if got.Schedule.Proc[v] != want.Schedule.Proc[v] ||
			got.Schedule.Start[v] != want.Schedule.Start[v] ||
			got.Schedule.Finish[v] != want.Schedule.Finish[v] {
			t.Fatalf("%s: placement of task %d differs", ctx, v)
		}
	}
}

// TestFaultsKZeroParity is the tentpole's behaviour-preservation pin: a
// Faults block with K=0 must produce results bit-identical to no block at
// all, for all six approaches, homogeneous and heterogeneous, and must not
// attach a backup plan.
func TestFaultsKZeroParity(t *testing.T) {
	rng := rand.New(rand.NewSource(20260809))
	g := randomGraph(rng, 18, 0.15, coarseWeight)
	m := power.Default70nm()
	pf := heteroTestPlatform(t)
	cfgs := map[string]Config{
		"model":    DeadlineFactor(g, m, 2),
		"platform": DeadlineFactorPlatform(g, pf, 2),
	}
	for name, base := range cfgs {
		withK0 := base
		withK0.Faults = &FaultConfig{K: 0, Policy: FaultBackupAnywhere}
		for _, a := range sixApproaches {
			want := runApproach(t, a, g, base)
			got := runApproach(t, a, g, withK0)
			requireIdenticalResult(t, name+"/"+a, got, want)
			if got.Backups != nil || want.Backups != nil {
				t.Fatalf("%s/%s: K=0 result carries a backup plan", name, a)
			}
		}
	}
}

// TestFaultsVerifiedEndToEnd runs every approach with K=1 under SelfCheck
// (so the engine re-verifies each plan and FT energy internally), then
// re-checks the winner externally: the plan passes the independent
// verifier, the recovery fits the deadline, reserved capacity is priced in
// (FT energy never below the non-FT result), and a worst-case fault
// pattern replays within the deadline.
func TestFaultsVerifiedEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 16, 0.15, coarseWeight)
	m := power.Default70nm()
	pf := heteroTestPlatform(t)
	type machine struct {
		cfg    Config
		pf     *power.Platform
		policy FaultPolicy
	}
	machines := map[string]machine{
		"model/anywhere": {DeadlineFactor(g, m, 3), nil, FaultBackupAnywhere},
		"platform/any":   {DeadlineFactorPlatform(g, pf, 3), pf, FaultBackupAnywhere},
		"platform/hp-lp": {DeadlineFactorPlatform(g, pf, 3), pf, FaultPrimaryHPBackupLP},
	}
	for name, mc := range machines {
		base := mc.cfg
		base.SelfCheck = true
		ft := base
		ft.Faults = &FaultConfig{K: 1, Policy: mc.policy}
		for _, a := range scheduleApproaches {
			plain := runApproach(t, a, g, base)
			r := runApproach(t, a, g, ft)
			if r.Backups == nil {
				t.Fatalf("%s/%s: no backup plan on a K=1 result", name, a)
			}
			deadlineCycles := int64(ft.Deadline * r.timelineFreqForTest())
			opt := verify.FaultPlanOptions{Platform: mc.pf, Policy: mc.policy, DeadlineCycles: deadlineCycles}
			if err := verify.FaultPlan(g, r.Schedule, r.Backups, opt); err != nil {
				t.Fatalf("%s/%s: %v", name, a, err)
			}
			if rms := r.RecoveryMakespanSec(); rms > ft.Deadline*(1+1e-12) {
				t.Fatalf("%s/%s: recovery makespan %.6gs past deadline %.6gs", name, a, rms, ft.Deadline)
			}
			if r.TotalEnergy() < plain.TotalEnergy()*(1-1e-9) {
				t.Fatalf("%s/%s: FT energy %.6g below non-FT %.6g — reserved capacity unpriced",
					name, a, r.TotalEnergy(), plain.TotalEnergy())
			}
			// Worst single fault: the task whose backup finishes last.
			worst := 0
			for v := range r.Backups.Finish {
				if r.Backups.Finish[v] > r.Backups.Finish[worst] {
					worst = v
				}
			}
			rep, err := sim.ReplayFaults(r.Schedule, r.Backups, []int{worst}, r.timelineFreqForTest(), ft.Deadline)
			if err != nil {
				t.Fatalf("%s/%s: replay: %v", name, a, err)
			}
			if !rep.DeadlineMet {
				t.Fatalf("%s/%s: worst-case fault %d misses the deadline", name, a, worst)
			}
			// The analytic bounds carry no plan but must stay below every
			// fault-tolerant heuristic: reserving capacity only adds energy.
			for _, lim := range []string{ApproachLimitSF, ApproachLimitMF} {
				lb := runApproach(t, lim, g, ft)
				if lb.Backups != nil || lb.Schedule != nil {
					t.Fatalf("%s/%s: analytic bound carries a schedule or plan", name, lim)
				}
				if lb.TotalEnergy() > r.TotalEnergy()*(1+1e-9) {
					t.Fatalf("%s/%s: bound %.6g above FT %s energy %.6g",
						name, lim, lb.TotalEnergy(), a, r.TotalEnergy())
				}
			}
		}
	}
}

// timelineFreqForTest returns the frequency that converts the result's
// timeline cycles to seconds.
func (r *Result) timelineFreqForTest() float64 {
	if r.Platform != nil {
		return r.Point.TimelineFreq
	}
	return r.Level.Freq
}

// TestFaultsKIndependence pins the metamorphic relation the campaign also
// exploits: the plan covers every task regardless of K, so K=1 and K=2
// produce bit-identical schedules, plans and energies (only the digest and
// the verified pattern space differ).
func TestFaultsKIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 14, 0.2, coarseWeight)
	m := power.Default70nm()
	for _, a := range sixApproaches {
		cfg1 := DeadlineFactor(g, m, 3)
		cfg1.Faults = &FaultConfig{K: 1}
		cfg2 := cfg1
		cfg2.Faults = &FaultConfig{K: 2}
		r1 := runApproach(t, a, g, cfg1)
		r2 := runApproach(t, a, g, cfg2)
		requireIdenticalResult(t, a, r2, r1)
		if (r1.Backups == nil) != (r2.Backups == nil) {
			t.Fatalf("%s: backup-plan presence differs between K=1 and K=2", a)
		}
		if r1.Backups == nil {
			continue
		}
		for v := range r1.Backups.Proc {
			if r1.Backups.Proc[v] != r2.Backups.Proc[v] || r1.Backups.Start[v] != r2.Backups.Start[v] {
				t.Fatalf("%s: backup of task %d differs between K=1 and K=2", a, v)
			}
		}
	}
}

// TestFaultsInfeasibleDeadline: a deadline the primary schedule meets
// exactly leaves no slack for recovery, so the fault-tolerant run must
// report ErrInfeasible while the plain run succeeds.
func TestFaultsInfeasibleDeadline(t *testing.T) {
	g := buildFig4a(t, coarseWeight)
	m := power.Default70nm()
	cfg := DeadlineFactor(g, m, 1)
	if _, err := (&Engine{Config: cfg}).Run(context.Background(), ApproachSS, g); err != nil {
		t.Fatalf("plain run at factor 1: %v", err)
	}
	ft := cfg
	ft.Faults = &FaultConfig{K: 1}
	if _, err := (&Engine{Config: ft}).Run(context.Background(), ApproachSS, g); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("FT run at factor 1 = %v, want ErrInfeasible", err)
	}
}

// TestFaultsInfeasibleMessage pins the text of a fault-tolerant run's
// infeasibility error: every candidate misses the deadline, the first in
// candidate order becomes the run's error, and its message names the
// frequency its makespan would need, in cycles on one class and in
// timeline cycles on the LP/HP platform.
func TestFaultsInfeasibleMessage(t *testing.T) {
	g := buildFig4a(t, coarseWeight)
	const prefix = "core: deadline infeasible even at maximum frequency: energy: schedule misses the deadline at this level: "
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{DeadlineFactor(g, power.Default70nm(), 1), "need 6.173e+09 Hz for makespan 62000000 cycles in 0.01004s"},
		{DeadlineFactorPlatform(g, heteroTestPlatform(t), 1), "need 6.081e+09 Hz for makespan 61077782 timeline cycles in 0.01004s"},
	} {
		tc.cfg.Faults = &FaultConfig{K: 1}
		for _, approach := range []string{ApproachSS, ApproachSSPS, ApproachLAMPS, ApproachLAMPSPS} {
			_, err := (&Engine{Config: tc.cfg}).Run(context.Background(), approach, g)
			if err == nil || err.Error() != prefix+tc.want {
				t.Errorf("%s: err = %v\nwant %s", approach, err, prefix+tc.want)
			}
		}
	}
}

// TestFaultsConfigValidation pins the rejection set: negative K, unknown
// policies, machines that cannot host a backup, and the extensions that
// re-time tasks.
func TestFaultsConfigValidation(t *testing.T) {
	g := buildFig4a(t, coarseWeight)
	m := power.Default70nm()
	run := func(cfg Config) error {
		_, err := (&Engine{Config: cfg}).Run(context.Background(), ApproachLAMPS, g)
		return err
	}
	cfg := DeadlineFactor(g, m, 3)
	cfg.Faults = &FaultConfig{K: -1}
	if err := run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative K = %v, want ErrBadConfig", err)
	}
	cfg.Faults = &FaultConfig{K: 1, Policy: "teleport"}
	if err := run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown policy = %v, want ErrBadConfig", err)
	}
	cfg.Faults = &FaultConfig{K: 1}
	cfg.MaxProcs = 1
	if err := run(cfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("MaxProcs=1 with faults = %v, want ErrBadConfig", err)
	}
	one, err := power.Homogeneous(1, m)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := DeadlineFactorPlatform(g, one, 3)
	pcfg.Faults = &FaultConfig{K: 1}
	if err := run(pcfg); !errors.Is(err, ErrBadConfig) {
		t.Errorf("1-processor platform with faults = %v, want ErrBadConfig", err)
	}

	extCfg := DeadlineFactor(g, m, 3)
	extCfg.Faults = &FaultConfig{K: 1}
	if _, err := SlackReclaimDVS(g, extCfg, true); !errors.Is(err, ErrBadConfig) {
		t.Errorf("per-task DVS with faults = %v, want ErrBadConfig", err)
	}
	if _, err := VoltageIslands(g, extCfg, true); !errors.Is(err, ErrBadConfig) {
		t.Errorf("voltage islands with faults = %v, want ErrBadConfig", err)
	}
}

// TestFaultsSingleTaskNeedsSecondProcessor: a one-task graph normally
// schedules on one processor; under fault tolerance the engine must widen
// the machine so the backup has somewhere to live.
func TestFaultsSingleTaskNeedsSecondProcessor(t *testing.T) {
	b := dag.NewBuilder("single")
	b.AddTask(coarseWeight)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := power.Default70nm()
	cfg := DeadlineFactor(g, m, 4)
	cfg.Faults = &FaultConfig{K: 1}
	cfg.SelfCheck = true
	for _, a := range scheduleApproaches {
		r := runApproach(t, a, g, cfg)
		if r.Backups == nil {
			t.Fatalf("%s: no backup plan", a)
		}
		if r.NumProcs != 2 {
			t.Errorf("%s: NumProcs = %d, want 2 (primary + backup host)", a, r.NumProcs)
		}
	}
}
