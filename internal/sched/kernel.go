package sched

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"lamps/internal/dag"
)

// Scheduler is a reusable scratch space for list scheduling. The zero value
// is ready to use; after the first call every buffer is retained, so
// steady-state ScheduleInto performs no allocations at all (asserted by
// TestScheduleIntoSteadyStateZeroAlloc and enforced in CI). A Scheduler is
// not safe for concurrent use; pool instances across goroutines (the core
// engine keeps them in a sync.Pool).
type Scheduler struct {
	indeg   []int32
	pending []finishEvent // min-heap: released-in-the-future tasks by (release, task)
	running []finishEvent // min-heap: running tasks by (finish, task)
	cursor  []int32       // per-processor write cursor of the counting sort

	// rank and byRank are the last priority ranking computed: byRank lists
	// the tasks in (priority, task) order and rank is its inverse. A call
	// whose priorities still sort byRank strictly reuses them (see rankBy).
	rank   []int32
	byRank []int32

	ready rankSet // ready tasks, by rank

	// idle holds one idle-processor bitmap of idleWords words per core class
	// (one class for ScheduleInto), and idleCount the set bits of each.
	idle      []uint64
	idleWords int
	idleCount []int32
}

// finishEvent is a running task completion (or a pending release) in an
// event queue.
type finishEvent struct {
	finish int64
	task   int32
}

func (a finishEvent) lessThan(b finishEvent) bool {
	if a.finish != b.finish {
		return a.finish < b.finish
	}
	return a.task < b.task
}

// grow returns s resized to n elements, reusing the backing array when the
// capacity suffices. Contents are unspecified; callers overwrite every slot.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// rankSet is the ready set: a two-level bitmap over priority ranks. words
// holds one bit per rank and summary one bit per non-empty word, so the
// lowest set rank — the ready task a (priority, task) min-heap would pop —
// is two trailing-zero counts away.
type rankSet struct {
	words   []uint64
	summary []uint64
	n       int
}

func (s *rankSet) reset(n int) {
	s.words = grow(s.words, (n+63)>>6)
	s.summary = grow(s.summary, (len(s.words)+63)>>6)
	clear(s.words)
	clear(s.summary)
	s.n = 0
}

func (s *rankSet) push(r int32) {
	w := r >> 6
	s.words[w] |= 1 << (r & 63)
	s.summary[w>>6] |= 1 << (w & 63)
	s.n++
}

func (s *rankSet) popMin() int32 {
	i := 0
	for s.summary[i] == 0 {
		i++
	}
	w := i<<6 | bits.TrailingZeros64(s.summary[i])
	b := bits.TrailingZeros64(s.words[w])
	s.words[w] &^= 1 << b
	if s.words[w] == 0 {
		s.summary[i] &^= 1 << (w & 63)
	}
	s.n--
	return int32(w<<6 | b)
}

// lowestBit returns the index of the lowest set bit of a bitmap that has
// at least one.
func lowestBit(words []uint64) int {
	i := 0
	for words[i] == 0 {
		i++
	}
	return i<<6 | bits.TrailingZeros64(words[i])
}

// rankBy makes rank and byRank the (priority, task) ranking of prio. The
// last ranking is kept when byRank is still strictly increasing under
// prio: byRank is a permutation of [0, n), and the only permutation that
// is strictly increasing under a total order is the sorted one, so a
// reused ranking is exactly the one a fresh sort would compute.
func (k *Scheduler) rankBy(prio []int64) {
	n := len(prio)
	if len(k.byRank) == n {
		r := 1
		for ; r < n; r++ {
			a, b := k.byRank[r-1], k.byRank[r]
			if prio[a] > prio[b] || prio[a] == prio[b] && a > b {
				break
			}
		}
		if r >= n {
			return
		}
	}
	k.byRank = grow(k.byRank, n)
	k.rank = grow(k.rank, n)
	radixSortByPrio(prio, k.byRank, k.rank)
	for r, v := range k.byRank {
		k.rank[v] = int32(r)
	}
}

// radixSortByPrio fills by with the tasks [0, len(prio)) in (priority,
// task) order, using tmp (same length) as scratch. It is an LSD radix sort
// over the bytes of each priority with the sign bit flipped, so unsigned
// byte order is signed order. Every pass is stable and the first starts
// from index order, so equal priorities keep task order. A pass whose byte
// is the same for every task would not move anything and is skipped.
func radixSortByPrio(prio []int64, by, tmp []int32) {
	n := len(prio)
	if n == 0 {
		return
	}
	const flip = 1 << 63
	var counts [8][256]int32
	for _, p := range prio {
		u := uint64(p) ^ flip
		for d := range counts {
			counts[d][byte(u>>(8*d))]++
		}
	}
	out := by
	for v := range by {
		by[v] = int32(v)
	}
	for d := range counts {
		c := &counts[d]
		shift := 8 * d
		if c[byte((uint64(prio[0])^flip)>>shift)] == int32(n) {
			continue
		}
		var sum int32
		for i, x := range c {
			c[i] = sum
			sum += x
		}
		for _, v := range by {
			b := byte((uint64(prio[v]) ^ flip) >> shift)
			tmp[c[b]] = v
			c[b]++
		}
		by, tmp = tmp, by
	}
	copy(out, by)
}

// begin validates the inputs shared by both kernels and resets dst and
// every scratch structure except the idle bitmaps: the ranking, in-degrees,
// the ready set holding the released sources, the pending heap holding the
// sources released later, and an empty running heap sized for nprocs.
func (k *Scheduler) begin(dst *Schedule, g *dag.Graph, nprocs int, prio, release []int64) error {
	n := g.NumTasks()
	if len(prio) != n {
		return fmt.Errorf("%w: got %d priorities for %d tasks", ErrBadPriorities, len(prio), n)
	}
	if release != nil && len(release) != n {
		return fmt.Errorf("%w: got %d releases for %d tasks", ErrBadReleases, len(release), n)
	}
	dst.Graph = g
	dst.NumProcs = nprocs
	dst.Makespan = 0
	dst.Proc = grow(dst.Proc, n)
	dst.Start = grow(dst.Start, n)
	dst.Finish = grow(dst.Finish, n)
	dst.finishOrder = grow(dst.finishOrder, n)

	k.rankBy(prio)
	k.indeg = grow(k.indeg, n)
	k.ready.reset(n)
	k.pending = k.pending[:0]
	if release != nil {
		k.pending = slices.Grow(k.pending, n)
	}
	k.running = slices.Grow(k.running[:0], min(n, nprocs))
	for v := 0; v < n; v++ {
		k.indeg[v] = int32(g.InDegree(v))
		if k.indeg[v] == 0 {
			if release != nil && release[v] > 0 {
				k.pending = append(k.pending, finishEvent{release[v], int32(v)})
			} else {
				k.ready.push(k.rank[v])
			}
		}
	}
	heapInit(k.pending)
	return nil
}

// resetIdle clears one idle-processor bitmap per class for nprocs
// processors; callers then free each processor into its class's bitmap.
func (k *Scheduler) resetIdle(nprocs, classes int) {
	k.idleWords = (nprocs + 63) >> 6
	k.idle = grow(k.idle, classes*k.idleWords)
	clear(k.idle)
	k.idleCount = grow(k.idleCount, classes)
	clear(k.idleCount)
}

// free marks processor p of class c idle.
func (k *Scheduler) free(c, p int) {
	k.idle[c*k.idleWords+p>>6] |= 1 << (p & 63)
	k.idleCount[c]++
}

// take marks the idle processor p of class c busy.
func (k *Scheduler) take(c, p int) {
	k.idle[c*k.idleWords+p>>6] &^= 1 << (p & 63)
	k.idleCount[c]--
}

// admit moves every pending task released by t into the ready set.
func (k *Scheduler) admit(t int64) {
	for len(k.pending) > 0 && k.pending[0].finish <= t {
		ev := heapPop(&k.pending)
		k.ready.push(k.rank[ev.task])
	}
}

// place records task v on processor p over [t, finish) and queues its
// completion.
func (k *Scheduler) place(dst *Schedule, v, p int, t, finish int64) {
	dst.Proc[v] = int32(p)
	dst.Start[v] = t
	dst.Finish[v] = finish
	if finish > dst.Makespan {
		dst.Makespan = finish
	}
	heapPush(&k.running, finishEvent{finish, int32(v)})
}

// next advances to the next event, a completion or a release; ok is false
// when nothing is running and nothing is pending.
func (k *Scheduler) next() (t int64, ok bool) {
	if len(k.running) == 0 && len(k.pending) == 0 {
		return 0, false
	}
	t = math.MaxInt64
	if len(k.running) > 0 {
		t = k.running[0].finish
	}
	if len(k.pending) > 0 && k.pending[0].finish < t {
		t = k.pending[0].finish
	}
	return t, true
}

// retire pops the running task that finishes at t, appends it to dst's
// finish order at position done, and releases the successors it was the
// last predecessor of. It returns the task's processor, which is now idle.
func (k *Scheduler) retire(dst *Schedule, g *dag.Graph, release []int64, t int64, done int) int {
	ev := heapPop(&k.running)
	dst.finishOrder[done] = ev.task
	for _, succ := range g.Succs(int(ev.task)) {
		k.indeg[succ]--
		if k.indeg[succ] == 0 {
			if release != nil && release[succ] > t {
				heapPush(&k.pending, finishEvent{release[succ], succ})
			} else {
				k.ready.push(k.rank[succ])
			}
		}
	}
	return int(dst.Proc[ev.task])
}

// ScheduleInto runs event-driven, work-conserving list scheduling exactly
// like ListScheduleReleases, but writes the result into dst and draws every
// temporary from the Scheduler's reusable scratch. dst's slices are reused
// when large enough, so a caller that keeps both the Scheduler and the
// Schedule alive across calls schedules with zero allocations per call.
//
// dst must not be nil; its previous contents are fully overwritten. The
// produced schedule — placement, times, makespan and per-processor task
// lists — is byte-identical to the one ListScheduleReleases returns for the
// same inputs, and dst.FinishOrder() lists the tasks in (finish, task)
// order.
//
// The ready set is a bitmap over the tasks' (priority, task) ranks, so a
// call first ranks prio. The Scheduler keeps its last ranking and reuses it
// after an O(n) check that it still sorts prio, so a caller that schedules
// one priority vector at many processor counts sorts it once.
func (k *Scheduler) ScheduleInto(dst *Schedule, g *dag.Graph, nprocs int, prio, release []int64) error {
	if nprocs <= 0 {
		return ErrNoProcs
	}
	if err := k.begin(dst, g, nprocs, prio, release); err != nil {
		return err
	}
	k.resetIdle(nprocs, 1)
	for p := 0; p < nprocs; p++ {
		k.free(0, p)
	}

	var t int64
	done := 0
	for {
		k.admit(t)
		// Dispatch every ready task for which an idle processor exists: the
		// lowest ready rank onto the lowest idle processor.
		for k.ready.n > 0 && k.idleCount[0] > 0 {
			v := int(k.byRank[k.ready.popMin()])
			p := lowestBit(k.idle)
			k.take(0, p)
			k.place(dst, v, p, t, t+g.Weight(v))
		}
		var ok bool
		if t, ok = k.next(); !ok {
			break
		}
		for len(k.running) > 0 && k.running[0].finish == t {
			k.free(0, k.retire(dst, g, release, t, done))
			done++
		}
	}
	k.cursor = dst.buildByProc(k.cursor)
	return nil
}
