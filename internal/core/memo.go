package core

import (
	"sync"

	"lamps/internal/sched"
)

// ScheduleMemoBudget is the byte budget of a ScheduleMemo: about three
// times the larger working set of the serving benchmark's two traffic
// mixes (28 graphs; 621 distinct schedules, 2.6 MB packed).
const ScheduleMemoBudget = 8 << 20

// memoEntryOverhead is what a memo entry costs beyond its packed
// schedules: the entry struct, its map slot and its count index.
const memoEntryOverhead = 160

// ScheduleMemo is a bounded, concurrency-safe store of list schedules
// shared across runs and requests: a graph that comes back with another
// deadline, approach or fault policy reuses every schedule an earlier run
// built instead of list-scheduling it again.
//
// Entries are keyed by graphhash.ScheduleKey of the graph and the
// machine's timing shape, and hold one packed schedule per processor count
// built so far. The store evicts whole graph entries in least-recently-used
// order to stay within ScheduleMemoBudget; an entry that alone would exceed
// the budget stops growing. It starts empty and preallocates nothing.
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
	Hits      uint64 // lookups answered from the memo
	Misses    uint64 // lookups that had to run the kernel
	Evictions uint64 // graph entries dropped to stay within the budget
	Bytes     int64  // bytes currently held
}

// memoKey is a graphhash.ScheduleKey: a SHA-256 digest.
type memoKey [32]byte

// memoEntry is one graph on one timing shape: its packed schedules
// indexed by processor count.
type memoEntry struct {
	key        memoKey
	prev, next *memoEntry
	byCount    []*sched.Packed
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

// put stores p as the schedule on n processors of the entry key, evicting
// least recently used entries to make room. A count already stored keeps
// its first schedule (a concurrent build of the same count produced an
// identical one).
func (m *ScheduleMemo) put(key *memoKey, n int, p *sched.Packed) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[*key]
	if e != nil && n < len(e.byCount) && e.byCount[n] != nil {
		return
	}
	// The entry grows by the packed schedule and the count slots up to n;
	// a new entry also pays its own overhead.
	var size int64
	slots := 0
	if e != nil {
		size, slots = e.bytes, len(e.byCount)
	}
	add := p.Bytes() + 8*int64(max(0, n+1-slots))
	if e == nil {
		add += memoEntryOverhead
	}
	if size+add > m.budget {
		return
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
	for len(e.byCount) <= n {
		e.byCount = append(e.byCount, nil)
	}
	e.byCount[n] = p
	e.bytes += add
	m.bytes += add
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
