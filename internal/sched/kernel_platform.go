package sched

import (
	"fmt"

	"lamps/internal/dag"
	"lamps/internal/power"
)

// ErrBadPlatform is returned when the platform is nil or the requested
// processor count exceeds the platform's size.
var ErrBadPlatform = fmt.Errorf("sched: invalid platform or processor count")

// ScheduleIntoPlatform is ScheduleInto generalised to a heterogeneous
// platform: the first nprocs processors of pf are used, times are expressed
// in cycles of the platform's reference class, and a task of w cycles
// dispatched onto a processor of class c occupies pf.ScaledWeight(c, w)
// timeline cycles. Task selection is unchanged — the minimum-priority ready
// task dispatches first — but processor selection becomes class-aware: among
// the classes with an idle processor, the chosen task goes to the one on
// which it *finishes earliest* (ties: the lowest idle processor index
// across classes), so fast cores attract work without starving the index
// order determinism.
//
// On a single-class platform every scale is 1 and the earliest-finish rule
// degenerates to "lowest idle processor index", so the call runs the
// ScheduleInto loop, which skips the class scan and produces a
// byte-identical schedule (pinned by TestScheduleIntoPlatformHomogeneousParity).
//
// Like ScheduleInto, all scratch comes from the Scheduler — the priority
// ranking memo included — and dst's slices are reused, so steady-state
// calls perform no allocations, and dst.FinishOrder() lists the tasks in
// (finish, task) order.
func (k *Scheduler) ScheduleIntoPlatform(dst *Schedule, g *dag.Graph, pf *power.Platform, nprocs int, prio, release []int64) error {
	if pf == nil || nprocs <= 0 || nprocs > pf.NumProcs() {
		return badPlatform(pf, nprocs)
	}
	// The error and the class loop live in their own functions to keep this
	// frame small: the engine calls it from freshly started goroutines,
	// whose small initial stacks a deeper call chain would have to grow.
	if pf.NumClasses() == 1 {
		return k.ScheduleInto(dst, g, nprocs, prio, release)
	}
	return k.scheduleByClass(dst, g, pf, nprocs, prio, release)
}

// badPlatform reports why ScheduleIntoPlatform rejected pf and nprocs.
func badPlatform(pf *power.Platform, nprocs int) error {
	if nprocs <= 0 {
		return ErrNoProcs
	}
	return fmt.Errorf("%w: %d processors requested of a %d-processor platform",
		ErrBadPlatform, nprocs, numProcsOf(pf))
}

// scheduleByClass is ScheduleIntoPlatform on a platform of several classes.
func (k *Scheduler) scheduleByClass(dst *Schedule, g *dag.Graph, pf *power.Platform, nprocs int, prio, release []int64) error {
	if err := k.begin(dst, g, nprocs, prio, release); err != nil {
		return err
	}
	// One idle bitmap per class; only classes assigned within the prefix
	// get processors. A class's head is its lowest set bit.
	nc := pf.NumClasses()
	k.resetIdle(nprocs, nc)
	for p := 0; p < nprocs; p++ {
		k.free(pf.ClassOf(p), p)
	}
	nidle := nprocs

	var t int64
	done := 0
	for {
		k.admit(t)
		for k.ready.n > 0 && nidle > 0 {
			v := int(k.byRank[k.ready.popMin()])
			w := g.Weight(v)
			// Earliest-finish class: scan the classes with an idle processor
			// and keep the one whose scaled duration finishes first, breaking
			// ties by the lowest candidate processor index.
			bestClass, bestProc := -1, 0
			var bestDur int64
			for c := 0; c < nc; c++ {
				if k.idleCount[c] == 0 {
					continue
				}
				d := pf.ScaledWeight(c, w)
				if bestClass >= 0 && d > bestDur {
					continue
				}
				head := lowestBit(k.idle[c*k.idleWords : (c+1)*k.idleWords])
				if bestClass < 0 || d < bestDur || head < bestProc {
					bestClass, bestProc, bestDur = c, head, d
				}
			}
			k.take(bestClass, bestProc)
			nidle--
			k.place(dst, v, bestProc, t, t+bestDur)
		}
		var ok bool
		if t, ok = k.next(); !ok {
			break
		}
		for len(k.running) > 0 && k.running[0].finish == t {
			p := k.retire(dst, g, release, t, done)
			done++
			k.free(pf.ClassOf(p), p)
			nidle++
		}
	}
	k.cursor = dst.buildByProc(k.cursor)
	return nil
}

// numProcsOf tolerates a nil platform in error formatting.
func numProcsOf(pf *power.Platform) int {
	if pf == nil {
		return 0
	}
	return pf.NumProcs()
}

// ListSchedulePlatform is the convenience form of ScheduleIntoPlatform with
// fresh scratch and a fresh Schedule, mirroring ListScheduleReleases.
func ListSchedulePlatform(g *dag.Graph, pf *power.Platform, nprocs int, prio, release []int64) (*Schedule, error) {
	var k Scheduler
	s := new(Schedule)
	if err := k.ScheduleIntoPlatform(s, g, pf, nprocs, prio, release); err != nil {
		return nil, err
	}
	return s, nil
}
