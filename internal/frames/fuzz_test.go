package frames

import (
	"encoding/binary"
	"errors"
	"testing"

	"lamps/internal/energy"
	"lamps/internal/power"
	"lamps/internal/verify"
)

// periodMults are the period multipliers a fuzz input picks from: the
// divisors of 24, so a frame of up to four tasks has at most 96 jobs while
// periods still mix non-harmonic ratios (2 and 3).
var periodMults = []int64{1, 2, 3, 4, 6, 8, 12, 24}

// decodeSet reads up to four periodic tasks from data: a 4-byte time unit,
// then 9 bytes per task — a period multiplier, a WCET and a relative
// deadline, each folded into range so that every decoded task is valid.
// Deadlines range up to twice the period, past the frame's end for the
// last job. Missing bytes read as zero.
func decodeSet(data []byte) *Set {
	next := func(n int) uint64 {
		var b [8]byte
		k := copy(b[:n], data)
		data = data[k:]
		return binary.LittleEndian.Uint64(b[:])
	}
	unit := int64(next(4)) + 1
	s := NewSet()
	for i := 0; i < 4 && len(data) > 0; i++ {
		period := unit * periodMults[next(1)%uint64(len(periodMults))]
		wcet := int64(next(4)%uint64(period)) + 1
		deadline := wcet + int64(next(4)%uint64(2*period-wcet+1))
		if err := s.Add(Task{Name: "t", WCET: wcet, Period: period, Deadline: deadline}); err != nil {
			panic(err)
		}
	}
	return s
}

// FuzzPeriodicPlan holds every plan Schedule returns to the independent
// verifier: with PS on or off and any processor cap, a decoded task set is
// either infeasible, or its plan is a legal schedule of the frame DAG in
// cycles at the plan's level with every job inside its converted window,
// its windows hold in wall-clock seconds apart from that conversion, and
// its energy is the first-principles walk's over the hyperperiod, bit for
// bit.
func FuzzPeriodicPlan(f *testing.F) {
	// task encodes a task of period unit·periodMults[mult] with the given
	// WCET and relative deadline, both in cycles.
	task := func(mult byte, wcet, deadline uint32) []byte {
		b := binary.LittleEndian.AppendUint32([]byte{mult}, wcet-1)
		return binary.LittleEndian.AppendUint32(b, deadline-wcet)
	}
	set := func(unit uint32, tasks ...[]byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, unit-1)
		for _, t := range tasks {
			b = append(b, t...)
		}
		return b
	}
	// The avionics-style set of examples/periodic (unit 3.1e6 cycles).
	f.Add(set(3_100_000, task(1, 2_480_000, 6_200_000), task(3, 3_720_000, 12_400_000),
		task(5, 4_960_000, 24_800_000), task(5, 2_480_000, 12_400_000)), true, uint8(0))
	// Full utilisation twice over on a forced single processor: infeasible.
	f.Add(set(1_000, task(0, 1_000, 1_000), task(0, 1_000, 1_000)), false, uint8(1))
	// A few cycles per period, where window rounding dominates.
	f.Add(set(7, task(1, 3, 10), task(2, 4, 21), task(4, 1, 42)), true, uint8(2))
	// Deadlines past the period, cut at the frame's end for the last job.
	f.Add(set(500_000, task(0, 200_000, 700_000), task(1, 600_000, 1_500_000)), false, uint8(0))
	f.Add([]byte{}, true, uint8(3))
	m := power.Default70nm()
	f.Fuzz(func(t *testing.T, data []byte, ps bool, procs uint8) {
		s := decodeSet(data)
		if s.Len() == 0 {
			return
		}
		plan, err := s.Schedule(m, ps, int(procs%4))
		if errors.Is(err, ErrInfeasible) {
			return
		}
		if err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		g, rel, dl, err := s.FrameDAG()
		if err != nil {
			t.Fatal(err)
		}
		h, _ := s.Hyperperiod()
		var conv windowScale
		conv.reset(plan.Level.Freq, m.FMax())
		for v := range rel {
			rel[v] = conv.at(rel[v], true)
			dl[v] = conv.at(min(dl[v], h), false)
		}
		if err := verify.ScheduleWithin(g, plan.Schedule, verify.ScheduleOptions{Release: rel, Deadlines: dl}); err != nil {
			t.Fatalf("plan on %d processors at %v: %v", plan.NumProcs, plan.Level, err)
		}
		checkWallClock(t, s, m, plan)

		pf, err := power.Homogeneous(plan.NumProcs, m)
		if err != nil {
			t.Fatal(err)
		}
		pt := pf.Points()[plan.Level.Index]
		if pt.Levels[0] != plan.Level {
			t.Fatalf("plan level %v is not operating point %v", plan.Level, pt)
		}
		if err := verify.EnergyMatches(plan.Schedule, pf, nil, pt, float64(h)/m.FMax(), energy.Options{PS: ps}, plan.Breakdown); err != nil {
			t.Fatal(err)
		}
		if plan.EnergyJ != plan.Total() {
			t.Fatalf("EnergyJ %g, breakdown total %g", plan.EnergyJ, plan.Total())
		}
	})
}
