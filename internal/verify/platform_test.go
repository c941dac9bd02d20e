package verify

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/power"
	"lamps/internal/sched"
)

// heteroPlatform returns the LP×3 + HP×2 test machine used across the
// platform verifier tests.
func heteroPlatform(t testing.TB) *power.Platform {
	t.Helper()
	lp := *power.Default70nm()
	lp.VddMax = 0.85
	lp.POn = 0.04
	lp.PSleep = 25e-6
	if err := lp.Build(); err != nil {
		t.Fatal(err)
	}
	pf, err := power.NewPlatform(
		[]power.CoreClass{{Name: "lp", Model: &lp}, {Name: "hp", Model: power.Default70nm()}},
		[]int{0, 0, 0, 1, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

// TestPlatformScheduleAcceptsKernelSchedules: every schedule the platform
// kernel builds must pass the platform verifier, and the degenerate
// single-class platform must accept legacy list schedules unchanged.
func TestPlatformScheduleAcceptsKernelSchedules(t *testing.T) {
	pf := heteroPlatform(t)
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 25; iter++ {
		g := member(t, 2+rng.Intn(50), rng.Intn(4), rng.Int63())
		nprocs := 1 + rng.Intn(pf.NumProcs())
		s, err := sched.ListSchedulePlatform(g, pf, nprocs, sched.EDFPriorities(g, 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ScheduleWithin(g, s, ScheduleOptions{Platform: pf}); err != nil {
			t.Fatalf("iter %d: kernel schedule rejected: %v", iter, err)
		}
	}
	m := power.Default70nm()
	g := member(t, 30, 1, 11)
	s := schedule(t, g, 3)
	hom, err := power.Homogeneous(3, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := ScheduleWithin(g, s, ScheduleOptions{Platform: hom}); err != nil {
		t.Fatalf("homogeneous platform rejects a legacy schedule: %v", err)
	}
}

// TestPlatformScheduleRejectsScaledDurationMismatch: a heterogeneous
// schedule whose slot length matches the raw weight instead of the
// class-scaled weight must be rejected — the defining check of the platform
// verifier.
func TestPlatformScheduleRejectsScaledDurationMismatch(t *testing.T) {
	pf := heteroPlatform(t)
	g := member(t, 20, 0, 3)
	s, err := sched.ListSchedulePlatform(g, pf, pf.NumProcs(), sched.EDFPriorities(g, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Find a task on an LP core (scale > 1) and shrink its slot to the raw
	// weight — legal for the legacy verifier's notion of duration, illegal
	// for the platform one.
	for v := range s.Proc {
		c := pf.ClassOf(int(s.Proc[v]))
		w := g.Weight(v)
		if pf.ScaledWeight(c, w) == w {
			continue
		}
		bad := cloneSchedule(s)
		bad.Finish[v] = bad.Start[v] + w
		if err := ScheduleWithin(g, bad, ScheduleOptions{Platform: pf}); err == nil {
			t.Fatalf("raw-weight slot on a scaled class accepted for task %d", v)
		}
		return
	}
	t.Fatal("no task landed on a scaled class; platform too small for the test")
}

// TestPlatformScheduleRejectsOverflowedSlot: on a class slowed 10^12-fold
// a 2^30-cycle task's stretched slot does not fit in int64, and the
// kernel's float conversion leaves it as [0, -2^63). The verifier derives
// the slot length itself, so it must reject that slot rather than accept
// the kernel's overflowed figure as the expected duration.
func TestPlatformScheduleRejectsOverflowedSlot(t *testing.T) {
	slow := *power.Default70nm()
	slow.Ld *= 1e12
	if err := slow.Build(); err != nil {
		t.Fatal(err)
	}
	pf, err := power.NewPlatform(
		[]power.CoreClass{{Name: "lp", Model: &slow}, {Name: "hp", Model: power.Default70nm()}},
		[]int{0, 0, 0, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	b := dag.NewBuilder("overflow")
	b.AddTask(1 << 30)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListSchedulePlatform(g, pf, 3, sched.EDFPriorities(g, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Start[0] != 0 || s.Finish[0] != math.MinInt64 {
		t.Fatalf("kernel slot [%d, %d), want the overflowed [0, -2^63)", s.Start[0], s.Finish[0])
	}
	err = ScheduleWithin(g, s, ScheduleOptions{Platform: pf})
	var v *Violation
	if !errors.As(err, &v) || v.Check != CheckPlacement {
		t.Fatalf("overflowed slot: err = %v, want a placement violation", err)
	}

	// The same slot on the unstretched class is rejected as reversed.
	one := oneClass(t, 1)
	c := cloneSchedule(s)
	c.NumProcs = 1
	c.Proc[0] = 0
	if err := ScheduleWithin(g, c, ScheduleOptions{Platform: one}); !errors.Is(err, ErrViolation) {
		t.Fatalf("reversed slot on one class: err = %v, want a violation", err)
	}
}

// parityInput is one schedule on one platform with the deadline slacks the
// energy parity tests sweep.
type parityInput struct {
	name   string
	pf     *power.Platform
	s      *sched.Schedule
	slacks []float64
}

// checkEnergyParity requires the verifier's independent per-gap walk and the
// profile's bucketed evaluation to agree bit for bit — every Breakdown
// field, shutdown counts included — at every operating point, PS on and
// off. A non-nil kernel is a further reference that must agree
// too. This is the verifier's licence to call any future mismatch a
// violation, and the cross-implementation contract SelfCheck relies on.
func checkEnergyParity(t *testing.T, inputs []parityInput,
	kernel func(s *sched.Schedule, pt power.OperatingPoint, deadline float64, opts energy.Options) (energy.Breakdown, error)) {
	t.Helper()
	var p energy.GapProfile
	for _, in := range inputs {
		p.ResetPlatform(in.s, in.pf)
		for _, pt := range in.pf.Points() {
			base := float64(in.s.Makespan) / pt.TimelineFreq
			for _, slack := range in.slacks {
				deadline := base * slack
				for _, opts := range []energy.Options{{}, {PS: true}} {
					got, errGot := p.EvaluatePoint(in.pf, pt, deadline, opts)
					want, errWant := Energy(in.s, in.pf, nil, pt, deadline, opts)
					if (errGot == nil) != (errWant == nil) {
						t.Fatalf("%s pt %d: err %v vs verifier %v", in.name, pt.Index, errGot, errWant)
					}
					if kernel != nil {
						ref, errRef := kernel(in.s, pt, deadline, opts)
						if (errRef == nil) != (errWant == nil) {
							t.Fatalf("%s pt %d: kernel err %v vs verifier %v", in.name, pt.Index, errRef, errWant)
						}
						if errRef == nil && ref != want {
							t.Fatalf("%s pt %d slack %g opts %+v:\n  kernel   %+v\n  verifier %+v",
								in.name, pt.Index, slack, opts, ref, want)
						}
					}
					if errGot != nil {
						continue
					}
					if got != want {
						t.Fatalf("%s pt %d slack %g opts %+v:\n  profile  %+v\n  verifier %+v",
							in.name, pt.Index, slack, opts, got, want)
					}
					if err := EnergyMatches(in.s, in.pf, nil, pt, deadline, opts, got); err != nil {
						t.Fatalf("%s pt %d: EnergyMatches rejects the parity value: %v", in.name, pt.Index, err)
					}
				}
			}
		}
	}
}

// TestEnergyParity: on the paper's identical-processor machine as a
// one-class platform — list schedules on 1, 3 and max-width processors,
// deadlines from exact fit to 8x slack — the verifier's walk must agree bit
// for bit with the platform profile and with energy.Evaluate, the
// homogeneous kernel.
func TestEnergyParity(t *testing.T) {
	m := power.Default70nm()
	var inputs []parityInput
	for i := 0; i < 12; i++ {
		g := member(t, 8+4*i, i, int64(3000+i))
		for _, nprocs := range []int{1, 3, g.MaxWidth()} {
			inputs = append(inputs, parityInput{fmt.Sprintf("one-class graph %d procs %d", i, nprocs),
				oneClass(t, nprocs), schedule(t, g, nprocs), []float64{1, 1.0001, 2, 8}})
		}
	}
	checkEnergyParity(t, inputs, func(s *sched.Schedule, pt power.OperatingPoint, deadline float64, opts energy.Options) (energy.Breakdown, error) {
		return energy.Evaluate(s, m, pt.Levels[0], deadline, opts)
	})
}

// TestPlatformEnergyParity: on the LP/HP platform, the verifier's walk and
// the profile must agree bit for bit on platform-kernel schedules.
func TestPlatformEnergyParity(t *testing.T) {
	pf := heteroPlatform(t)
	rng := rand.New(rand.NewSource(20260809))
	var inputs []parityInput
	for iter := 0; iter < 20; iter++ {
		g := member(t, 2+rng.Intn(40), rng.Intn(4), rng.Int63())
		s, err := sched.ListSchedulePlatform(g, pf, pf.NumProcs(), sched.EDFPriorities(g, 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, parityInput{fmt.Sprintf("lp/hp iter %d", iter), pf, s, []float64{1, 1.7, 6}})
	}
	checkEnergyParity(t, inputs, nil)
}
