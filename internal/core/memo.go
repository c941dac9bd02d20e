package core

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"sync"

	"lamps/internal/dag"
	"lamps/internal/power"
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
// shared across runs and requests. The default EDF list schedule of a
// graph on n processors depends on nothing but the graph and the machine's
// timing shape — priorities are deadline-0 EDF and no run passes release
// times — so a graph that comes back with another deadline, approach or
// fault policy reuses every schedule an earlier run built instead of
// list-scheduling it again.
//
// Entries are keyed by a SHA-256 digest of the graph content (task
// weights and successor lists, never names or labels) and of the timing
// shape (empty on one class; the class of every processor and every
// class's slot stretch otherwise), and hold one packed schedule per
// processor count built so far. The store evicts whole graph entries in
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
	Hits      uint64 // lookups answered from the memo
	Misses    uint64 // lookups that had to run the kernel
	Evictions uint64 // graph entries dropped to stay within the budget
	Bytes     int64  // bytes currently held
}

type memoKey [sha256.Size]byte

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

// memoKeyChunk is the buffered key input length at which a memoKeyer
// flushes into the hash.
const memoKeyChunk = 4096

// memoKeyer computes memo keys. The key input is appended little-endian
// into one small buffer handed to SHA-256 a chunk at a time, so the scratch
// stays about 4 KiB whatever the graph size, and a warm keyer allocates
// nothing.
// The input is the task count, then every task's weight, out-degree and
// successors, then the timing shape — nothing more on one class, where the
// kernel ignores the platform; otherwise the processor count, every
// processor's class and every class's slot stretch bits. Each part is
// length-prefixed, so the encoding is injective.
type memoKeyer struct {
	h   hash.Hash
	buf []byte
	out memoKey
}

// key returns the memo key of g on pf's timing shape.
func (k *memoKeyer) key(g *dag.Graph, pf *power.Platform) memoKey {
	if k.h == nil {
		k.h = sha256.New()
		k.buf = make([]byte, 0, memoKeyChunk)
	}
	k.h.Reset()
	le := binary.LittleEndian
	n := g.NumTasks()
	buf := le.AppendUint32(k.buf[:0], uint32(n))
	for v := 0; v < n; v++ {
		succs := g.Succs(v)
		buf = k.room(buf, 12+4*len(succs))
		buf = le.AppendUint64(buf, uint64(g.Weight(v)))
		buf = le.AppendUint32(buf, uint32(len(succs)))
		for _, s := range succs {
			buf = le.AppendUint32(buf, uint32(s))
		}
	}
	nc := pf.NumClasses()
	buf = k.room(buf, 4)
	buf = le.AppendUint32(buf, uint32(nc))
	if nc > 1 {
		buf = k.room(buf, 4)
		buf = le.AppendUint32(buf, uint32(pf.NumProcs()))
		for p := 0; p < pf.NumProcs(); p++ {
			buf = k.room(buf, 4)
			buf = le.AppendUint32(buf, uint32(pf.ClassOf(p)))
		}
		for c := 0; c < nc; c++ {
			buf = k.room(buf, 8)
			buf = le.AppendUint64(buf, math.Float64bits(pf.Scale(c)))
		}
	}
	k.h.Write(buf)
	k.buf = buf[:0]
	k.h.Sum(k.out[:0])
	return k.out
}

// room hands buf to the hash when need more bytes would overflow the
// chunk. A single task's successor list longer than a chunk still goes in
// whole, so the buffer holds at most one chunk or one such list.
func (k *memoKeyer) room(buf []byte, need int) []byte {
	if len(buf) > 0 && len(buf)+need > memoKeyChunk {
		k.h.Write(buf)
		return buf[:0]
	}
	return buf
}
