package verify

import (
	"fmt"
	"sort"

	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/power"
	"lamps/internal/sched"
)

// SelfTestResult reports one corruption class of the verifier's mutation
// self-test: whether the class applied to the given schedule at all, and
// whether the verifier rejected the corrupted artefact.
type SelfTestResult struct {
	Class    string
	Skipped  bool  // corruption not applicable to this schedule's shape
	Detected bool  // the verifier rejected the corrupted artefact
	Err      error // the violation that detected it (nil when undetected)
}

// SelfTest answers the "who verifies the verifier" question by injecting
// known corruptions — swapped starts, an overlap nudge, a dropped edge, an
// off-by-one energy gap, and friends — into copies of a known-good
// (graph, schedule, breakdown) triple on platform pf at operating point pt
// and checking that the verifier rejects every one of them. On a platform
// with more than one class it adds the corruption unique to heterogeneity:
// a task moved to a processor of a different-speed class while keeping its
// times, which only a duration check aware of per-class scaling can catch.
// A verifier that accepts a corrupted artefact is itself broken, so
// campaigns treat any applicable-but-undetected class as a violation.
//
// The pristine inputs are verified first; an error there means the inputs
// were not a valid baseline and no mutation results are returned.
func SelfTest(g *dag.Graph, s *sched.Schedule, pf *power.Platform, pt power.OperatingPoint, deadlineSec float64, opts energy.Options) ([]SelfTestResult, error) {
	on := ScheduleOptions{Platform: pf}
	if err := ScheduleWithin(g, s, on); err != nil {
		return nil, fmt.Errorf("verify: self-test baseline schedule invalid: %w", err)
	}
	base, err := Energy(s, pf, nil, pt, deadlineSec, opts)
	if err != nil {
		return nil, fmt.Errorf("verify: self-test baseline energy invalid: %w", err)
	}

	muts := []mutation{
		{"swapped-starts", func() (bool, error) {
			p := procWithTwoTasks(s)
			if p < 0 {
				return true, nil
			}
			tasks := tasksInStartOrder(s, p)
			a, b := tasks[0], tasks[1]
			c := cloneSchedule(s)
			c.Start[a], c.Start[b] = s.Start[b], s.Start[a]
			c.Finish[a], c.Finish[b] = s.Finish[b], s.Finish[a]
			return false, ScheduleWithin(g, c, on)
		}},
		{"overlap", func() (bool, error) {
			// Nudge a task one cycle earlier without changing its duration:
			// into its on-processor predecessor if some pair is back to back,
			// otherwise a start-at-zero task goes to -1.
			c := cloneSchedule(s)
			for p := 0; p < s.NumProcs; p++ {
				tasks := tasksInStartOrder(s, p)
				for i := 1; i < len(tasks); i++ {
					if s.Start[tasks[i]] == s.Finish[tasks[i-1]] {
						c.Start[tasks[i]]--
						c.Finish[tasks[i]]--
						return false, ScheduleWithin(g, c, on)
					}
				}
			}
			for v := range s.Start {
				if s.Start[v] == 0 {
					c.Start[v]--
					c.Finish[v]--
					return false, ScheduleWithin(g, c, on)
				}
			}
			return true, nil
		}},
		{"dropped-edge", func() (bool, error) {
			// Pretend the schedule was built against a graph with one more
			// edge u->v that it violates (Start[v] < Finish[u]): the verifier
			// must flag the precedence miss, i.e. catch a scheduler that
			// dropped an edge. The extra edge must keep the graph acyclic.
			u, v := droppableEdge(g, s)
			if u < 0 {
				return true, nil
			}
			augmented, err := withExtraEdge(g, u, v)
			if err != nil {
				return false, fmt.Errorf("verify: self-test cannot augment graph: %w", err)
			}
			return false, ScheduleWithin(augmented, s, on)
		}},
		{"wrong-proc", func() (bool, error) {
			if s.NumProcs < 2 {
				return true, nil
			}
			c := cloneSchedule(s)
			c.Proc[0] = (c.Proc[0] + 1) % int32(s.NumProcs)
			return false, ScheduleWithin(g, c, on)
		}},
		{"duration", func() (bool, error) {
			c := cloneSchedule(s)
			c.Finish[0]--
			return false, ScheduleWithin(g, c, on)
		}},
		{"makespan-off-by-one", func() (bool, error) {
			c := cloneSchedule(s)
			c.Makespan++
			return false, ScheduleWithin(g, c, on)
		}},
		{"release", func() (bool, error) {
			rel := make([]int64, len(s.Start))
			rel[0] = s.Start[0] + 1
			return false, ScheduleWithin(g, s, ScheduleOptions{Release: rel, Platform: pf})
		}},
		{"deadline", func() (bool, error) {
			return false, ScheduleWithin(g, s, ScheduleOptions{DeadlineCycles: s.Makespan - 1, Platform: pf})
		}},
		{"gap-off-by-one", func() (bool, error) {
			return false, EnergyMatches(s, pf, nil, pt, deadlineSec, opts, phantomIdleCycle(base, pf, pt))
		}},
		{"shutdown-miscount", func() (bool, error) {
			bad := base
			bad.Shutdowns++
			bad.Overhead += pf.ClassModel(0).EOverhead
			return false, EnergyMatches(s, pf, nil, pt, deadlineSec, opts, bad)
		}},
	}
	if !pf.IsHomogeneous() {
		muts = append(muts, mutation{"class-swap", func() (bool, error) {
			// Move one task to an idle-at-the-time processor of a class with a
			// different scale, keeping Start/Finish: legality-by-intervals still
			// holds whenever the target slot is free, but the slot length no
			// longer matches the new class's scaled weight.
			v, p := classSwapTarget(g, pf, s)
			if v < 0 {
				return true, nil
			}
			c := cloneSchedule(s)
			c.Proc[v] = int32(p)
			return false, ScheduleWithin(g, c, on)
		}})
	}
	return runMutations(muts), nil
}

// mutation is one corruption class of a self-test: run applies it to a copy
// of the pristine inputs and returns the checker's verdict, or reports that
// the class does not apply to their shape.
type mutation struct {
	class string
	run   func() (skipped bool, verr error)
}

// runMutations runs every mutation and records its outcome.
func runMutations(muts []mutation) []SelfTestResult {
	results := make([]SelfTestResult, 0, len(muts))
	for _, mu := range muts {
		skipped, verr := mu.run()
		results = append(results, SelfTestResult{
			Class:    mu.class,
			Skipped:  skipped,
			Detected: !skipped && verr != nil,
			Err:      verr,
		})
	}
	return results
}

// phantomIdleCycle returns base with one timeline cycle of idle time that
// appears out of nowhere on the reference class: the breakdown's idle
// aggregates shift by exactly one cycle's worth.
func phantomIdleCycle(base energy.Breakdown, pf *power.Platform, pt power.OperatingPoint) energy.Breakdown {
	ref := pf.RefClass()
	base.IdleTime += 1 / pt.TimelineFreq
	base.Idle += (1 / pt.TimelineFreq) * pf.ClassModel(ref).IdlePower(pt.Levels[ref])
	return base
}

// cloneSchedule copies the mutable placement state of s. The unexported
// per-processor lists are shared with the original and never written; a
// mutation that makes them stale relative to the copied arrays is exactly
// the dispatch-consistency corruption the verifier must catch.
func cloneSchedule(s *sched.Schedule) *sched.Schedule {
	c := *s
	c.Proc = append([]int32(nil), s.Proc...)
	c.Start = append([]int64(nil), s.Start...)
	c.Finish = append([]int64(nil), s.Finish...)
	return &c
}

// procWithTwoTasks returns a processor running at least two tasks, or -1.
func procWithTwoTasks(s *sched.Schedule) int {
	counts := make([]int, s.NumProcs)
	for _, p := range s.Proc {
		counts[p]++
		if counts[p] >= 2 {
			return int(p)
		}
	}
	return -1
}

// tasksInStartOrder reconstructs processor p's tasks from the raw arrays.
func tasksInStartOrder(s *sched.Schedule, p int) []int32 {
	var tasks []int32
	for v := range s.Proc {
		if int(s.Proc[v]) == p {
			tasks = append(tasks, int32(v))
		}
	}
	sort.Slice(tasks, func(i, j int) bool { return s.Start[tasks[i]] < s.Start[tasks[j]] })
	return tasks
}

// droppableEdge finds a task pair (u, v) such that adding the edge u->v
// keeps g acyclic but is violated by s, i.e. Start[v] < Finish[u]. Returns
// (-1, -1) when the graph's transitive order leaves no such pair (then
// every candidate edge is either respected by the schedule or would create
// a cycle).
func droppableEdge(g *dag.Graph, s *sched.Schedule) (int, int) {
	n := g.NumTasks()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || s.Start[v] >= s.Finish[u] {
				continue
			}
			if !reaches(g, v, u) {
				return u, v
			}
		}
	}
	return -1, -1
}

// reaches reports whether a path from src to dst exists in g.
func reaches(g *dag.Graph, src, dst int) bool {
	if src == dst {
		return true
	}
	seen := make([]bool, g.NumTasks())
	stack := []int32{int32(src)}
	seen[src] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Succs(int(u)) {
			if int(v) == dst {
				return true
			}
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return false
}

// withExtraEdge rebuilds g with the additional edge u->v.
func withExtraEdge(g *dag.Graph, u, v int) (*dag.Graph, error) {
	b := dag.NewBuilder(g.Name() + "+edge")
	for t := 0; t < g.NumTasks(); t++ {
		b.AddLabeledTask(g.Weight(t), g.Label(t))
	}
	for s := 0; s < g.NumTasks(); s++ {
		for _, d := range g.Succs(s) {
			b.AddEdge(s, int(d))
		}
	}
	b.AddEdge(u, v)
	return b.Build()
}

// classSwapTarget finds a task v and a processor p of a class with a
// different scaled weight for v than v's current class, such that v's time
// interval is free on p. Returns (-1, -1) when the platform is effectively
// homogeneous for every placed task or no free slot exists.
func classSwapTarget(g *dag.Graph, pf *power.Platform, s *sched.Schedule) (int, int) {
	for v := range s.Proc {
		cur := pf.ClassOf(int(s.Proc[v]))
		w := g.Weight(v)
		for p := 0; p < s.NumProcs; p++ {
			c := pf.ClassOf(p)
			if pf.ScaledWeight(c, w) == pf.ScaledWeight(cur, w) {
				continue
			}
			if intervalFree(s, p, s.Start[v], s.Finish[v]) {
				return v, p
			}
		}
	}
	return -1, -1
}

// intervalFree reports whether processor p runs no task overlapping [lo, hi).
func intervalFree(s *sched.Schedule, p int, lo, hi int64) bool {
	for v := range s.Proc {
		if int(s.Proc[v]) != p {
			continue
		}
		if s.Start[v] < hi && s.Finish[v] > lo {
			return false
		}
	}
	return true
}
