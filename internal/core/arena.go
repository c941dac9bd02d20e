package core

import (
	"fmt"
	"sync"

	"lamps/internal/energy"
	"lamps/internal/power"
)

// arena is the per-request scratch of one engine invocation: the run state,
// the memoising scheduler (with its EDF priority scratch), the
// candidate and sweep-pair slices, a free list of recycled Schedule shells
// and the one-class platform a homogeneous run evaluates on. A request
// borrows one arena from arenaPool for its whole lifetime and returns it on
// normal completion (success or error), so a warm steady stream of requests
// — RunBatch's worker loop above all — reuses the same handful of buffers
// instead of reallocating them per request.
//
// Ownership contract: everything reachable from an arena is scratch. A
// Result that outlives the request must not alias arena memory — reduce
// detaches the winning schedule with CloneCompact before the arena is
// recycled. close nils every graph/context/schedule reference so a pooled
// arena pins neither a request's DAG nor its context, and a run that panics
// must *drop* its arena (see runGuard): a half-written arena never re-enters
// the pool.
type arena struct {
	r  run
	sc scheduler

	cands []candidate // phase-2 candidate set, value slice
	pairs []evalPair  // flattened (candidate, operating point) sweep pairs

	// homo is the one-class platform of model homoModel that homogeneous
	// runs evaluate on. Platforms are immutable and never escape into a
	// Result, so it survives close.
	homo      *power.Platform
	homoModel *power.Model
}

// homogeneous returns a one-class platform of m with at least n
// processors, rebuilt only when m changes or the cached one is too small,
// so a warm request allocates nothing here.
func (a *arena) homogeneous(m *power.Model, n int) (*power.Platform, error) {
	if a.homo == nil || a.homoModel != m || a.homo.NumProcs() < n {
		pf, err := power.Homogeneous(n, m)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		a.homo, a.homoModel = pf, m
	}
	return a.homo, nil
}

// evalPair is one (candidate, operating point) leaf work item of a +PS
// sweep.
type evalPair struct {
	c   *candidate
	pt  power.OperatingPoint
	b   energy.Breakdown
	err error
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// close recycles the arena after a completed run: every memoised schedule
// becomes a reusable shell, and every pointer that could keep the request's
// graph, context or results alive is cleared. The slices keep their capacity
// — that is the whole point of the pool.
func (a *arena) close() {
	a.sc.recycleSchedules()
	a.sc.ctx = nil
	a.sc.g = nil
	a.sc.prio = nil
	a.sc.obs = nil
	a.sc.pf = nil
	a.sc.memo = nil
	a.sc.built = 0

	clear(a.cands)
	a.cands = a.cands[:0]
	clear(a.pairs)
	a.pairs = a.pairs[:0]

	a.r = run{}
	arenaPool.Put(a)
}

// runGuard is deferred around every approach body that holds an arena: a
// normal return (success or error) recycles the arena, a panic deliberately
// leaks it to the garbage collector — the panic may have interrupted any
// invariant, so the arena must never re-enter the pool — and is re-raised
// for the caller's recover barrier (RunBatch's ErrBatchPanic isolation).
func (a *arena) runGuard() {
	if p := recover(); p != nil {
		panic(p)
	}
	a.close()
}
