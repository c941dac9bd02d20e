package verify

import (
	"fmt"
	"sort"

	"lamps/internal/energy"
	"lamps/internal/power"
	"lamps/internal/sched"
)

// Energy recomputes the full energy breakdown of running s — plus, when
// plan is non-nil, its reserved backup slots — on platform pf at operating
// point pt until deadlineSec, from first principles. Every gap of every
// employed processor is found by sorting the raw Proc/Start/Finish arrays
// (and the plan's) and walked linearly, classified one by one against its
// class's break-even time. It shares no code with GapProfile, yet it must
// agree with GapProfile.EvaluatePoint bit for bit: both sides keep every
// cycle total as an exact int64 sum per class and convert to floats once
// per class in ascending class order, with the same expressions in the
// same order, so any difference at all means one of the two
// implementations is wrong. A homogeneous machine is the one-class
// platform; there pt.TimelineFreq is the ladder level's frequency and the
// walk reduces to the paper's single-model accounting.
//
// Model semantics re-derived here, matching the paper (Section 3):
//   - the shared timeline runs at pt.TimelineFreq; each class executes its
//     tasks' raw work cycles at its own ladder level pt.Levels[c], and the
//     rest of a class-stretched slot idles at the class's idle power;
//   - the machine stays available until the deadline, so each employed
//     processor has a trailing gap from its last slot to the horizon;
//   - processors that hold no slot at all are off and consume nothing;
//   - with opts.PS, a gap strictly longer than the break-even time is slept
//     through (P_sleep plus one shutdown overhead), otherwise it idles.
//
// With a backup plan the deadline must cover the recovery makespan, gaps
// are those of each processor's merged primary+backup timeline (a
// processor holding only backups is on), and reserved backup cycles are
// charged as idle in both the PS and non-PS modes: the processor must stay
// awake to take over on fault detection.
func Energy(s *sched.Schedule, pf *power.Platform, plan *sched.BackupPlan, pt power.OperatingPoint, deadlineSec float64, opts energy.Options) (energy.Breakdown, error) {
	var b energy.Breakdown
	if s == nil || pf == nil || s.NumProcs > pf.NumProcs() || len(pt.Levels) != pf.NumClasses() {
		return b, fmt.Errorf("verify: nil schedule or platform, schedule wider than the platform, or malformed operating point")
	}
	if plan != nil && (len(plan.Proc) != len(s.Proc) || len(plan.Start) != len(s.Proc) || len(plan.Finish) != len(s.Proc)) {
		return b, fmt.Errorf("verify: backup plan covers %d tasks of %d", len(plan.Proc), len(s.Proc))
	}
	ft := pt.TimelineFreq
	makespan := s.Makespan
	if plan != nil && plan.RecoveryMakespan > makespan {
		makespan = plan.RecoveryMakespan
	}
	if float64(makespan)/ft > deadlineSec*(1+1e-12) {
		return b, fmt.Errorf("verify: %w", energy.ErrDeadline)
	}
	horizon := int64(deadlineSec * ft)
	if horizon < makespan {
		horizon = makespan
	}

	type slot struct {
		start, finish int64
		backup        bool
		task          int32
	}
	byProc := make([][]slot, s.NumProcs)
	for v := range s.Proc {
		byProc[s.Proc[v]] = append(byProc[s.Proc[v]], slot{s.Start[v], s.Finish[v], false, int32(v)})
		if plan != nil {
			byProc[plan.Proc[v]] = append(byProc[plan.Proc[v]], slot{plan.Start[v], plan.Finish[v], true, int32(v)})
		}
	}

	for c := 0; c < pf.NumClasses(); c++ {
		m := pf.ClassModel(c)
		lvl := pt.Levels[c]
		breakeven := m.BreakevenTime(lvl)

		var busyWork, busySlot, reserved, idleCycles, sleepCycles int64
		shutdowns := 0
		employed := false
		account := func(gap int64) {
			if gap <= 0 {
				return
			}
			if opts.PS && float64(gap)/ft > breakeven {
				sleepCycles += gap
				shutdowns++
			} else {
				idleCycles += gap
			}
		}
		for p, slots := range byProc {
			if pf.ClassOf(p) != c || len(slots) == 0 {
				continue // other class, or holding nothing: off, no gaps
			}
			employed = true
			sort.Slice(slots, func(i, j int) bool { return slots[i].start < slots[j].start })
			cursor := int64(0)
			for _, sl := range slots {
				account(sl.start - cursor)
				cursor = sl.finish
				if sl.backup {
					reserved += sl.finish - sl.start
				} else {
					busySlot += sl.finish - sl.start
					busyWork += s.Graph.Weight(int(sl.task))
				}
			}
			account(horizon - cursor)
		}
		if !employed {
			continue
		}

		activeT := float64(busyWork) / lvl.Freq
		b.ActiveTime += activeT
		b.Active += activeT * m.LevelPower(lvl)
		pIdle := m.IdlePower(lvl)
		if intra := float64(busySlot)/ft - activeT; intra > 0 {
			b.IdleTime += intra
			b.Idle += intra * pIdle
		}
		idleCycles += reserved
		idleT := float64(idleCycles) / ft
		b.IdleTime += idleT
		b.Idle += idleT * pIdle
		sleepT := float64(sleepCycles) / ft
		b.SleepTime += sleepT
		b.Sleep += sleepT * m.PSleep
		b.Shutdowns += shutdowns
		b.Overhead += float64(shutdowns) * m.EOverhead
	}
	return b, nil
}

// EnergyMatches recomputes the breakdown with Energy and requires got to be
// bit-identical — every field, shutdown count included. A mismatch is a
// CheckEnergy Violation whose detail lists the differing fields.
func EnergyMatches(s *sched.Schedule, pf *power.Platform, plan *sched.BackupPlan, pt power.OperatingPoint, deadlineSec float64, opts energy.Options, got energy.Breakdown) error {
	want, err := Energy(s, pf, plan, pt, deadlineSec, opts)
	if err != nil {
		return &Violation{
			Check:  CheckEnergy,
			Detail: fmt.Sprintf("reported breakdown %+v for a schedule the reference walk rejects: %v", got, err),
			Repro:  dump(s.Graph, s, nil),
		}
	}
	if got == want {
		return nil
	}
	return &Violation{
		Check: CheckEnergy,
		Detail: fmt.Sprintf("breakdown differs from the first-principles walk (%v, backups %v, deadline %gs, PS=%v): %s",
			pt, plan != nil, deadlineSec, opts.PS, breakdownDiffs(got, want)),
		Repro: dump(s.Graph, s, nil),
	}
}

// breakdownDiffs lists the fields on which two breakdowns disagree.
func breakdownDiffs(got, want energy.Breakdown) string {
	type field struct {
		name      string
		got, want float64
	}
	fields := []field{
		{"Active", got.Active, want.Active},
		{"Idle", got.Idle, want.Idle},
		{"Sleep", got.Sleep, want.Sleep},
		{"Overhead", got.Overhead, want.Overhead},
		{"ActiveTime", got.ActiveTime, want.ActiveTime},
		{"IdleTime", got.IdleTime, want.IdleTime},
		{"SleepTime", got.SleepTime, want.SleepTime},
		{"Shutdowns", float64(got.Shutdowns), float64(want.Shutdowns)},
	}
	out := ""
	for _, f := range fields {
		if f.got != f.want {
			if out != "" {
				out += ", "
			}
			out += fmt.Sprintf("%s %v != %v", f.name, f.got, f.want)
		}
	}
	if out == "" {
		out = "no field differs (NaN?)"
	}
	return out
}
