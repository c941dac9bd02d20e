package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"lamps/internal/dag"
	"lamps/internal/graphhash"
	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/verify"
)

// scheduler memoises list-scheduling runs per processor count within one
// heuristic invocation, so that the binary searches of LAMPS phases 1 and 2
// and the candidate evaluation never schedule the same configuration twice.
// It is safe for concurrent use: the parallel engine builds candidates from
// many goroutines. Duplicate concurrent builds of the same count are
// possible but harmless — exactly one wins the memo slot and is counted, so
// SchedulesBuilt stays deterministic.
//
// With a cross-request ScheduleMemo (Engine.Memo) a count the memo already
// holds is restored into a shell instead of being list-scheduled, and a
// fresh build is packed into the memo; either way the count enters byCount
// and is counted once, so Stats and Observer feeds do not depend on the
// memo's contents.
//
// The scheduler lives inside an arena: the byCount memo and the shell free
// list survive across requests (reset by arena.close), so a warm request
// never allocates a Schedule — shells are recycled and ScheduleInto regrows
// their slices in place.
type scheduler struct {
	ctx       context.Context
	g         *dag.Graph
	obs       *obsHub
	selfCheck bool            // Config.SelfCheck: verify every built or restored schedule
	pf        *power.Platform // the run's machine
	memo      *ScheduleMemo   // cross-request memo; nil for custom priorities
	key       memoKey         // memo key of (g, pf's timing shape)

	mu      sync.Mutex
	prio    []int64           // the run's priorities; EDF is computed on first use
	edf     []int64           // EDF priority scratch, reused across runs
	byCount []*sched.Schedule // memo indexed by processor count; nil = not built
	shells  []*sched.Schedule // free list of fully-owned reusable Schedule scratch
	built   int
}

// init starts a run on g and pf. prio is a custom priority vector, or nil
// for the default EDF priorities, which are then computed only if some
// count has to be list-scheduled and which alone may use memo.
func (sc *scheduler) init(ctx context.Context, g *dag.Graph, prio []int64, obs *obsHub, selfCheck bool,
	pf *power.Platform, memo *ScheduleMemo) {
	sc.ctx = ctx
	sc.g = g
	sc.prio = prio
	sc.obs = obs
	sc.selfCheck = selfCheck
	sc.pf = pf
	sc.memo = nil
	if memo != nil && prio == nil {
		sc.memo = memo
		sc.key = graphhash.ScheduleKey(g, pf)
	}
}

// priorities returns the run's list-scheduling priorities, computing the
// default EDF vector into the scheduler's scratch on first use.
func (sc *scheduler) priorities() []int64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.prio == nil {
		sc.edf = sched.EDFPrioritiesInto(sc.edf, sc.g, 0)
		sc.prio = sc.edf
	}
	return sc.prio
}

// getShell pops a recycled Schedule (or makes the arena's first one). The
// caller owns it until it either wins a memo slot or is returned with
// putShell.
func (sc *scheduler) getShell() *sched.Schedule {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if n := len(sc.shells); n > 0 {
		s := sc.shells[n-1]
		sc.shells[n-1] = nil
		sc.shells = sc.shells[:n-1]
		return s
	}
	return new(sched.Schedule)
}

func (sc *scheduler) putShell(s *sched.Schedule) {
	s.Graph = nil
	sc.mu.Lock()
	sc.shells = append(sc.shells, s)
	sc.mu.Unlock()
}

// recycleSchedules moves every memoised schedule onto the shell free list
// and drops its graph reference; called by arena.close once the winning
// schedule has been detached with CloneCompact.
func (sc *scheduler) recycleSchedules() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for i, s := range sc.byCount {
		if s != nil {
			s.Graph = nil
			sc.shells = append(sc.shells, s)
			sc.byCount[i] = nil
		}
	}
}

// kernelPool recycles scheduling scratch (heaps, in-degree and dispatch
// buffers) across runs and goroutines: every candidate build borrows one
// kernel, so warm builds write straight into recycled Schedule shells
// without allocating at all.
var kernelPool = sync.Pool{New: func() any { return new(sched.Scheduler) }}

// at returns the (memoised) list schedule on n processors. It checks the
// run's context first, which bounds the cancellation latency of every search
// loop to at most one ListSchedule call.
func (sc *scheduler) at(n int) (*sched.Schedule, error) {
	if err := sc.ctx.Err(); err != nil {
		return nil, err
	}
	sc.mu.Lock()
	if n < len(sc.byCount) && sc.byCount[n] != nil {
		s := sc.byCount[n]
		sc.mu.Unlock()
		return s, nil
	}
	sc.mu.Unlock()
	s := sc.getShell()
	fresh, err := sc.build(s, n)
	if err != nil {
		sc.putShell(s)
		return nil, err
	}
	if sc.selfCheck {
		// Config.SelfCheck: every schedule — built by the kernel or restored
		// from the memo — is re-checked from first principles before any
		// search step may consume it.
		if verr := verify.ScheduleWithin(sc.g, s, verify.ScheduleOptions{Platform: sc.pf}); verr != nil {
			sc.putShell(s)
			return nil, fmt.Errorf("core: self-check: schedule on %d processors: %w", n, verr)
		}
	}
	if fresh && sc.memo != nil {
		sc.memo.put(&sc.key, n, sched.Pack(s))
	}
	sc.mu.Lock()
	for len(sc.byCount) <= n {
		sc.byCount = append(sc.byCount, nil)
	}
	if prev := sc.byCount[n]; prev != nil {
		// A concurrent build won the slot; recycle ours uncounted.
		s.Graph = nil
		sc.shells = append(sc.shells, s)
		sc.mu.Unlock()
		return prev, nil
	}
	sc.byCount[n] = s
	sc.built++
	sc.mu.Unlock()
	sc.obs.scheduleBuilt(n, s.Makespan)
	return s, nil
}

// build fills s with the schedule on n processors: restored from the
// cross-request memo when it holds the count, list-scheduled otherwise
// (fresh reports which). Counts outside the platform go to the kernel,
// which rejects them.
func (sc *scheduler) build(s *sched.Schedule, n int) (fresh bool, err error) {
	k := kernelPool.Get().(*sched.Scheduler)
	defer kernelPool.Put(k)
	if sc.memo != nil && n >= 1 && n <= sc.pf.NumProcs() {
		if p := sc.memo.get(&sc.key, n); p != nil {
			k.Unpack(s, sc.g, sc.pf, p)
			return false, nil
		}
	}
	return true, k.ScheduleIntoPlatform(s, sc.g, sc.pf, n, sc.priorities(), nil)
}

// builtCount returns the number of distinct processor counts scheduled or
// restored so far.
func (sc *scheduler) builtCount() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.built
}

// makespan returns the makespan on n processors, in cycles.
func (sc *scheduler) makespan(n int) (int64, error) {
	s, err := sc.at(n)
	if err != nil {
		return 0, err
	}
	return s.Makespan, nil
}

// nLowerBound is the paper's N_lwb = ceil(sum of weights / D): no fewer
// processors can possibly complete the work before the deadline, with the
// deadline expressed in cycles at maximum frequency.
func nLowerBound(g *dag.Graph, deadlineCycles float64) int {
	if deadlineCycles <= 0 {
		return g.NumTasks()
	}
	n := int(math.Ceil(float64(g.TotalWork()) / deadlineCycles))
	if n < 1 {
		n = 1
	}
	return n
}

// minProcsForDeadline performs the paper's phase-1 binary search: the
// minimal number of processors whose LS-EDF makespan meets the deadline
// (deadline in cycles at maximum frequency). The search interval is
// [N_lwb, hi]; monotonicity of the makespan in the processor count is
// assumed, as in the paper.
func (sc *scheduler) minProcsForDeadline(deadlineCycles float64, hi int) (int, error) {
	lo := nLowerBound(sc.g, deadlineCycles)
	if lo > hi {
		lo = hi
	}
	mk, err := sc.makespan(hi)
	if err != nil {
		return 0, err
	}
	if float64(mk) > deadlineCycles {
		return 0, fmt.Errorf("%w: makespan %d cycles on %d processors, deadline %.0f cycles",
			ErrInfeasible, mk, hi, deadlineCycles)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		mk, err := sc.makespan(mid)
		if err != nil {
			return 0, err
		}
		if float64(mk) <= deadlineCycles {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// saturationPoint locates the end of phase 2's candidate range: the smallest
// n in [lo, hi] whose makespan has reached the critical path length — its
// absolute minimum, beyond which adding processors cannot change the
// schedule — or hi if no count gets there. It binary-searches under the same
// makespan monotonicity assumption as phase 1, which is what lets the
// parallel engine fix the whole candidate set up front instead of walking it
// one count at a time; the set it produces is exactly the one the serial
// linear scan visits.
func (sc *scheduler) saturationPoint(lo, hi int) (int, error) {
	cpl := sc.g.CriticalPathLength()
	mk, err := sc.makespan(hi)
	if err != nil {
		return 0, err
	}
	if mk > cpl {
		return hi, nil
	}
	for lo < hi {
		mid := (lo + hi) / 2
		mk, err := sc.makespan(mid)
		if err != nil {
			return 0, err
		}
		if mk <= cpl {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}
