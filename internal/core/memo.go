package core

import (
	"sync"

	"lamps/internal/sched"
)

// ScheduleMemoBudget is the byte budget of a ScheduleMemo: about 1.7 times
// the larger working set of the serving benchmark's two traffic mixes
// (solve-ft: 28 graphs, 621 distinct schedules and 762 backup plans,
// 4.96 MB packed).
const ScheduleMemoBudget = 8 << 20

// memoEntryOverhead is what a memo entry costs beyond its packed
// schedules and plans: the entry struct, its map slot and its count index.
const memoEntryOverhead = 160

// ScheduleMemo is a bounded, concurrency-safe store of list schedules and
// their backup plans shared across runs and requests: a graph that comes
// back with another deadline, approach or fault policy reuses every
// schedule and plan an earlier run built instead of list-scheduling or
// planning it again.
//
// Entries are keyed by graphhash.ScheduleKey of the graph and the
// machine's timing shape, and hold one packed schedule per processor count
// built so far, plus one packed backup plan per (processor count, fault
// policy) planned so far. A plan depends on nothing but its schedule, the
// graph's weights and predecessors, and what the policy reads of the
// platform — the processor classes, their Scale and the reference class —
// all of which the key fixes: the reference class is the lowest-index
// class whose Scale is exactly 1 (power.Platform divides the reference
// f_max by each class's, and a quotient of two floats rounds to 1 only
// when they are equal). The store evicts whole graph entries in
// least-recently-used order to stay within ScheduleMemoBudget; an entry
// that alone would exceed the budget stops growing. It starts empty and
// preallocates nothing.
//
// Set Engine.Memo to share one memo among engines. Runs with a custom
// Config.Priorities never use it.
type ScheduleMemo struct {
	budget int64

	mu         sync.Mutex
	entries    map[memoKey]*memoEntry
	head, tail *memoEntry // LRU list, most recently used first
	bytes      int64
	stats      MemoStats
}

// MemoStats is a snapshot of a ScheduleMemo's counters.
type MemoStats struct {
	Hits       uint64 // schedule lookups answered from the memo
	Misses     uint64 // schedule lookups that had to run the kernel
	PlanHits   uint64 // backup-plan lookups answered from the memo
	PlanMisses uint64 // backup-plan lookups that had to run the planner
	Evictions  uint64 // graph entries dropped to stay within the budget
	Bytes      int64  // bytes currently held, schedules and plans
}

// memoKey is a graphhash.ScheduleKey: a SHA-256 digest.
type memoKey [32]byte

// planSlots is the number of fault policies a memo entry keeps plans for.
const planSlots = 2

// planSlot returns the memo slot of an effective fault policy.
func planSlot(p sched.FaultPolicy) int {
	if p == sched.PrimaryHPBackupLP {
		return 1
	}
	return 0
}

// memoEntry is one graph on one timing shape: its packed schedules
// indexed by processor count, and its packed backup plans indexed by
// policy slot, then processor count.
type memoEntry struct {
	key        memoKey
	prev, next *memoEntry
	byCount    []*sched.Packed
	plans      [planSlots][]*sched.PackedPlan
	bytes      int64
}

// NewScheduleMemo returns an empty memo with the ScheduleMemoBudget byte
// budget.
func NewScheduleMemo() *ScheduleMemo { return newScheduleMemo(ScheduleMemoBudget) }

func newScheduleMemo(budget int64) *ScheduleMemo {
	return &ScheduleMemo{budget: budget}
}

// Stats returns the memo's counters and current footprint.
func (m *ScheduleMemo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.Bytes = m.bytes
	return s
}

// get returns the packed schedule on n processors of the entry key, or nil.
func (m *ScheduleMemo) get(key *memoKey, n int) *sched.Packed {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[*key]; e != nil && n < len(e.byCount) && e.byCount[n] != nil {
		m.stats.Hits++
		m.touch(e)
		return e.byCount[n]
	}
	m.stats.Misses++
	return nil
}

// getPlan returns the packed backup plan under policy of the schedule on n
// processors of the entry key, or nil.
func (m *ScheduleMemo) getPlan(key *memoKey, n int, policy sched.FaultPolicy) *sched.PackedPlan {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[*key]; e != nil {
		if plans := e.plans[planSlot(policy)]; n < len(plans) && plans[n] != nil {
			m.stats.PlanHits++
			m.touch(e)
			return plans[n]
		}
	}
	m.stats.PlanMisses++
	return nil
}

// put stores p as the schedule on n processors of the entry key. A count
// already stored keeps its first schedule (a concurrent build of the same
// count produced an identical one).
func (m *ScheduleMemo) put(key *memoKey, n int, p *sched.Packed) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[*key]
	var slots []*sched.Packed
	if e != nil {
		slots = e.byCount
	}
	if n < len(slots) && slots[n] != nil {
		return
	}
	if e = m.admit(e, key, p.Bytes(), n, len(slots)); e != nil {
		e.byCount = slotAt(e.byCount, n)
		e.byCount[n] = p
	}
}

// putPlan stores p as the backup plan under policy of the schedule on n
// processors of the entry key. A slot already filled keeps its first plan.
func (m *ScheduleMemo) putPlan(key *memoKey, n int, policy sched.FaultPolicy, p *sched.PackedPlan) {
	m.mu.Lock()
	defer m.mu.Unlock()
	slot := planSlot(policy)
	e := m.entries[*key]
	var slots []*sched.PackedPlan
	if e != nil {
		slots = e.plans[slot]
	}
	if n < len(slots) && slots[n] != nil {
		return
	}
	if e = m.admit(e, key, p.Bytes(), n, len(slots)); e != nil {
		e.plans[slot] = slotAt(e.plans[slot], n)
		e.plans[slot][n] = p
	}
}

// slotAt returns slots grown to hold index n.
func slotAt[T any](slots []*T, n int) []*T {
	for len(slots) <= n {
		slots = append(slots, nil)
	}
	return slots
}

// admit charges a value of size bytes stored at index n of a slot array
// that has slots entries to the entry e of key — the value, the slots up to
// n and, for a new entry, its overhead — evicting least recently used
// entries to make room. It returns the entry, created and linked when e is
// nil, or nil when the entry would exceed the whole budget. m.mu is held.
func (m *ScheduleMemo) admit(e *memoEntry, key *memoKey, size int64, n, slots int) *memoEntry {
	add := size + 8*int64(max(0, n+1-slots))
	var held int64
	if e == nil {
		add += memoEntryOverhead
	} else {
		held = e.bytes
	}
	if held+add > m.budget {
		return nil
	}
	for m.bytes+add > m.budget {
		victim := m.tail
		if victim == e {
			victim = e.prev
		}
		m.evict(victim)
	}
	if e == nil {
		if m.entries == nil {
			m.entries = make(map[memoKey]*memoEntry)
		}
		e = &memoEntry{key: *key}
		m.entries[*key] = e
		m.pushFront(e)
	} else {
		m.touch(e)
	}
	e.bytes += add
	m.bytes += add
	return e
}

// evict drops entry e.
func (m *ScheduleMemo) evict(e *memoEntry) {
	m.unlink(e)
	delete(m.entries, e.key)
	m.bytes -= e.bytes
	m.stats.Evictions++
}

func (m *ScheduleMemo) touch(e *memoEntry) {
	if m.head != e {
		m.unlink(e)
		m.pushFront(e)
	}
}

func (m *ScheduleMemo) pushFront(e *memoEntry) {
	e.prev, e.next = nil, m.head
	if m.head != nil {
		m.head.prev = e
	}
	m.head = e
	if m.tail == nil {
		m.tail = e
	}
}

func (m *ScheduleMemo) unlink(e *memoEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		m.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		m.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
