package energy

import (
	"fmt"
	"slices"

	"lamps/internal/power"
	"lamps/internal/sched"
)

// GapProfile is the idle-interval structure of one schedule, extracted once
// and then shared by every per-level energy evaluation. It splits a
// schedule's idle time into the part that is fixed by the schedule (the
// inner gaps: before the first task and between consecutive tasks of each
// employed processor) and the part parameterised by the horizon (the
// trailing slack of each employed processor from its last finish to the
// deadline). Both parts are kept sorted with exact integer prefix sums, so
// one Evaluate at an operating point is two binary searches over the
// break-even threshold plus O(1) arithmetic — O(log G) per level instead of
// the O(G) per-gap walk, which turns the +PS frequency sweep from
// O(levels × gaps) into O(gaps·log gaps + levels·log gaps).
//
// The accounting is identical to the per-gap walk: a gap of g cycles at
// level l lasts t = g/f(l) seconds and sleeps exactly when PS is enabled and
// t exceeds the break-even time. Because gap durations are integers in
// cycles, classifying by t is monotone in g, which is what makes the
// threshold binary-searchable; the idle/sleep cycle totals are summed in
// int64 (exact, order-independent) and converted to seconds and joules once,
// so the profile path and the linear reference walk agree bit-for-bit (see
// TestGapProfileParity).
//
// The zero value is empty; Reset loads a schedule. A profile reused across
// schedules of the same shape performs no steady-state allocations. It is
// immutable between Resets and safe for concurrent Evaluate calls.
type GapProfile struct {
	busyCycles int64
	makespan   int64

	// reserved counts the cycles held by statically planned backup slots
	// (ResetFT/ResetPlatformFT). A reserved processor cannot sleep — it must
	// be ready to take over the instant a fault is detected — so these
	// cycles are charged as idle time regardless of the PS option. Plain
	// Reset/ResetPlatform leave it zero, keeping the non-fault-tolerant
	// accounting bit-identical.
	reserved int64

	inner    []int64 // inner gap lengths in cycles, sorted ascending
	innerSum []int64 // innerSum[i] = sum of inner[:i]; len(inner)+1
	last     []int64 // per-employed-processor last finish, sorted ascending
	lastSum  []int64 // lastSum[i] = sum of last[:i]; len(last)+1

	// classes holds the per-core-class profile of a heterogeneous platform
	// schedule, populated by ResetPlatform and read by EvaluatePoint. The
	// homogeneous Reset/Evaluate pair above ignores it entirely.
	classes []classGaps
}

// NewGapProfile returns the profile of s. Equivalent to a Reset on a zero
// profile.
func NewGapProfile(s *sched.Schedule) *GapProfile {
	p := new(GapProfile)
	p.Reset(s)
	return p
}

// Reset re-extracts the profile from s, reusing the profile's buffers.
func (p *GapProfile) Reset(s *sched.Schedule) {
	p.busyCycles = s.BusyCycles()
	p.makespan = s.Makespan
	p.reserved = 0
	p.inner = p.inner[:0]
	p.last = p.last[:0]
	for proc := 0; proc < s.NumProcs; proc++ {
		tasks := s.TasksOn(proc)
		if len(tasks) == 0 {
			continue // unemployed processors are off and contribute no gaps
		}
		var cursor int64
		for _, v := range tasks {
			if s.Start[v] > cursor {
				p.inner = append(p.inner, s.Start[v]-cursor)
			}
			cursor = s.Finish[v]
		}
		p.last = append(p.last, cursor)
	}
	slices.Sort(p.inner)
	slices.Sort(p.last)
	p.innerSum = prefixSums(p.innerSum, p.inner)
	p.lastSum = prefixSums(p.lastSum, p.last)
}

// prefixSums writes the prefix sums of src into dst (reused when capacity
// allows): dst[i] = src[0]+…+src[i-1], len(dst) = len(src)+1.
func prefixSums(dst, src []int64) []int64 {
	if cap(dst) < len(src)+1 {
		dst = make([]int64, len(src)+1)
	}
	dst = dst[:len(src)+1]
	dst[0] = 0
	for i, v := range src {
		dst[i+1] = dst[i] + v
	}
	return dst
}

// Evaluate computes the energy of executing the profiled schedule at
// operating point lvl with the machine available until deadlineSec, exactly
// as the package-level Evaluate does — same deadline check, same gap
// classification, same totals — in O(log G) instead of O(G).
func (p *GapProfile) Evaluate(m *power.Model, lvl power.Level, deadlineSec float64, opts Options) (Breakdown, error) {
	var b Breakdown
	makespanSec := float64(p.makespan) / lvl.Freq
	if makespanSec > deadlineSec*(1+1e-12) {
		return b, fmt.Errorf("%w: makespan %.6gs > deadline %.6gs at %v", ErrDeadline, makespanSec, deadlineSec, lvl)
	}

	// Active energy: every cycle of work costs P(lvl)/f(lvl) joules.
	b.ActiveTime = float64(p.busyCycles) / lvl.Freq
	b.Active = b.ActiveTime * m.LevelPower(lvl)

	if opts.IgnoreIdle {
		return b, nil
	}

	// The horizon is expressed in cycles at lvl so that gap lengths convert
	// to seconds by dividing by lvl.Freq.
	horizon := int64(deadlineSec * lvl.Freq)
	if horizon < p.makespan {
		horizon = p.makespan // guard against float truncation
	}
	nEmp := len(p.last)
	var idleCycles, sleepCycles int64
	shutdowns := 0
	if opts.PS {
		breakeven := m.BreakevenTime(lvl)
		// Inner gaps are sorted ascending, so "sleeps" is a suffix: binary
		// search the first index whose duration exceeds the break-even time.
		i := firstAbove(p.inner, func(g int64) bool {
			return float64(g)/lvl.Freq > breakeven
		})
		idleCycles = p.innerSum[i]
		sleepCycles = p.innerSum[len(p.inner)] - p.innerSum[i]
		shutdowns = len(p.inner) - i
		// Trailing slack horizon−last shrinks as last grows, so "sleeps" is
		// a prefix of the sorted last-finish times.
		j := firstAbove(p.last, func(lf int64) bool {
			return float64(horizon-lf)/lvl.Freq <= breakeven
		})
		sleepCycles += int64(j)*horizon - p.lastSum[j]
		idleCycles += int64(nEmp-j)*horizon - (p.lastSum[nEmp] - p.lastSum[j])
		shutdowns += j
	} else {
		idleCycles = p.innerSum[len(p.inner)] + int64(nEmp)*horizon - p.lastSum[nEmp]
	}
	// Backup reservations are idle-but-awake in either mode; zero outside
	// the fault-tolerant resets.
	idleCycles += p.reserved

	b.IdleTime = float64(idleCycles) / lvl.Freq
	b.Idle = b.IdleTime * m.IdlePower(lvl)
	b.SleepTime = float64(sleepCycles) / lvl.Freq
	b.Sleep = b.SleepTime * m.PSleep
	b.Shutdowns = shutdowns
	b.Overhead = float64(shutdowns) * m.EOverhead
	return b, nil
}

// firstAbove returns the smallest index i in the sorted slice s for which
// pred(s[i]) is true, or len(s) when none is. pred must be monotone
// (false…false true…true along s). A hand-rolled binary search keeps the
// predicate closure on the stack — sort.Search is equivalent but gives the
// escape analyser a harder time.
func firstAbove(s []int64, pred func(int64) bool) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pred(s[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
