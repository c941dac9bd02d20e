package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"lamps/internal/energy"
	"lamps/internal/power"
	"lamps/internal/workpool"
)

// renderForDiff projects a Result onto its externally visible fields —
// everything the serving layer's JSON rendering exposes, including Stats —
// as one deterministic byte string. The determinism gate compares these
// byte-for-byte.
func renderForDiff(t *testing.T, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(struct {
		Approach string
		NumProcs int
		Level    power.Level
		Energy   energy.Breakdown
		Stats    Stats
	}{r.Approach, r.NumProcs, r.Level, r.Energy, r.Stats}); err != nil {
		t.Fatal(err)
	}
	if r.Schedule != nil {
		if err := r.Schedule.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestEngineDeterminismGate is the serial-vs-parallel contract: for every
// approach, a parallel engine must return byte-identical results — energy,
// level, processor count, schedule and Stats — to the serial one, on a
// spread of seeded random graphs. A parallel engine sharing one schedule
// memo across all the runs (warm from the second approach on) is held to
// the same contract.
func TestEngineDeterminismGate(t *testing.T) {
	m := power.Default70nm()
	pool := workpool.NewPool(8)
	memo := NewScheduleMemo()
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 40+int(seed)*15, 0.06, coarseWeight)
		cfg := DeadlineFactor(g, m, 1.0+float64(seed))
		for _, approach := range Approaches {
			serialEng := Engine{Config: cfg}
			sr, serr := serialEng.Run(context.Background(), approach, g)
			for _, eng := range []Engine{{Config: cfg, Pool: pool}, {Config: cfg, Pool: pool, Memo: memo}} {
				pr, perr := eng.Run(context.Background(), approach, g)
				if (serr == nil) != (perr == nil) {
					t.Fatalf("seed %d %s memo=%t: serial err %v, parallel err %v", seed, approach, eng.Memo != nil, serr, perr)
				}
				if serr != nil {
					continue
				}
				if !bytes.Equal(renderForDiff(t, sr), renderForDiff(t, pr)) {
					t.Errorf("seed %d %s memo=%t: parallel result differs from serial\nserial:   %s\nparallel: %s",
						seed, approach, eng.Memo != nil, renderForDiff(t, sr), renderForDiff(t, pr))
				}
			}
		}
	}
	if st := memo.Stats(); st.Hits == 0 {
		t.Errorf("shared memo never hit across approaches: %+v", st)
	}
	if got := pool.InFlight(); got != 0 {
		t.Errorf("pool still holds %d slots after all runs returned", got)
	}
}

// cancelAfterBuilds cancels a context after the n-th fresh schedule build,
// simulating a client that gives up mid-phase-2.
type cancelAfterBuilds struct {
	n      int32
	cancel context.CancelFunc
}

func (c *cancelAfterBuilds) OnPhase(string) {}
func (c *cancelAfterBuilds) OnScheduleBuilt(int, int64) {
	if atomic.AddInt32(&c.n, -1) == 0 {
		c.cancel()
	}
}
func (c *cancelAfterBuilds) OnLevelEvaluated(power.Level, energy.Breakdown) {}

// TestEngineCancelMidSearch cancels a LAMPS+PS run from inside the search
// (after the second fresh build) and checks the cancellation contract: the
// run returns context.Canceled, and every pool slot is back by the time Run
// returns.
func TestEngineCancelMidSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 120, 0.04, coarseWeight)
	m := power.Default70nm()
	cfg := DeadlineFactor(g, m, 4)

	for _, workers := range []int{0, 4} { // 0 = serial engine, 4 = parallel
		var pool *workpool.Pool
		if workers > 0 {
			pool = workpool.NewPool(workers)
		}
		ctx, cancel := context.WithCancel(context.Background())
		obs := &cancelAfterBuilds{n: 2, cancel: cancel}
		eng := Engine{Config: cfg, Observer: obs, Pool: pool}
		r, err := eng.Run(ctx, ApproachLAMPSPS, g)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if r != nil {
			t.Errorf("workers=%d: cancelled run returned a result", workers)
		}
		if pool != nil {
			if got := pool.InFlight(); got != 0 {
				t.Errorf("workers=%d: cancelled run left %d pool slots held", workers, got)
			}
		}
	}
}

// TestEngineCancelBeforeStart: an already-cancelled context fails every
// approach without doing any work.
func TestEngineCancelBeforeStart(t *testing.T) {
	g := buildFig4a(t, coarseWeight)
	m := power.Default70nm()
	cfg := DeadlineFactor(g, m, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, approach := range Approaches {
		if _, err := RunCtx(ctx, approach, g, cfg); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", approach, err)
		}
	}
	if _, err := SlackReclaimDVSCtx(ctx, g, cfg, true); !errors.Is(err, context.Canceled) {
		t.Errorf("SlackReclaimDVSCtx: err = %v, want context.Canceled", err)
	}
	if _, err := VoltageIslandsCtx(ctx, g, cfg, true); !errors.Is(err, context.Canceled) {
		t.Errorf("VoltageIslandsCtx: err = %v, want context.Canceled", err)
	}
}

// countingObserver tallies hook invocations.
type countingObserver struct {
	phases    []string
	schedules int
	levels    int
}

func (c *countingObserver) OnPhase(name string)                            { c.phases = append(c.phases, name) }
func (c *countingObserver) OnScheduleBuilt(int, int64)                     { c.schedules++ }
func (c *countingObserver) OnLevelEvaluated(power.Level, energy.Breakdown) { c.levels++ }

// TestObserverMatchesStats: the Observer feed must agree with the returned
// Stats — same number of fresh builds and successful evaluations — and the
// phases must arrive in the documented order.
func TestObserverMatchesStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 60, 0.06, coarseWeight)
	m := power.Default70nm()
	cfg := DeadlineFactor(g, m, 3)
	for _, workers := range []int{0, 4} {
		var pool *workpool.Pool
		if workers > 0 {
			pool = workpool.NewPool(workers)
		}
		obs := &countingObserver{}
		eng := Engine{Config: cfg, Observer: obs, Pool: pool}
		r, err := eng.Run(context.Background(), ApproachLAMPSPS, g)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if obs.schedules != r.Stats.SchedulesBuilt {
			t.Errorf("workers=%d: observer saw %d builds, Stats say %d", workers, obs.schedules, r.Stats.SchedulesBuilt)
		}
		if obs.levels != r.Stats.LevelsEvaluated {
			t.Errorf("workers=%d: observer saw %d evaluations, Stats say %d", workers, obs.levels, r.Stats.LevelsEvaluated)
		}
		want := []string{PhaseMinProcs, PhaseSaturation, PhaseBuild, PhaseEvaluate}
		if len(obs.phases) != len(want) {
			t.Fatalf("workers=%d: phases = %v, want %v", workers, obs.phases, want)
		}
		for i := range want {
			if obs.phases[i] != want[i] {
				t.Errorf("workers=%d: phase[%d] = %q, want %q", workers, i, obs.phases[i], want[i])
			}
		}
	}
}

// TestEngineSharedPoolNoDeadlock: many concurrent runs sharing one tiny
// pool must all complete — the engine never nests slot acquisitions, so a
// pool of size 1 cannot deadlock.
func TestEngineSharedPoolNoDeadlock(t *testing.T) {
	pool := workpool.NewPool(1)
	m := power.Default70nm()
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			g := randomGraph(rng, 50, 0.06, coarseWeight)
			cfg := DeadlineFactor(g, m, 2)
			eng := Engine{Config: cfg, Pool: pool}
			_, err := eng.Run(context.Background(), ApproachLAMPSPS, g)
			done <- err
		}(int64(i + 1))
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Errorf("run %d: %v", i, err)
		}
	}
	if got := pool.InFlight(); got != 0 {
		t.Errorf("pool still holds %d slots", got)
	}
}
