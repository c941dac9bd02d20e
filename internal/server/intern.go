package server

import (
	"bytes"
	"sync"
	"unsafe"

	"lamps/internal/dag"
	"lamps/internal/graphhash"
	"lamps/internal/power"
)

// InternBudget is the byte budget of a Server's intern table: about four
// times the serving benchmark's working set (28 corpus graphs, their
// request bytes and digest states, and one platform, about 1 MB).
const InternBudget = 4 << 20

// internEntryOverhead is what an entry costs beyond its bytes and the
// value built from them: the entry struct and its map slot.
const internEntryOverhead = 160

// internPrefix is how many leading bytes of a value key the table. A
// value's lookup compares its whole length against the request body, so
// finding it costs no scan for its end; values sharing a prefix chain.
const internPrefix = 64

// internKind names the request values the table interns.
type internKind int

const (
	internGraph internKind = iota
	internPlatform
	internKinds
)

var internKindNames = [internKinds]string{"graph", "platform"}

// internEntry is one interned value: the exact bytes of a request's
// "graph" or "platform" value and what was built from them.
type internEntry struct {
	raw        string // the value's bytes
	kind       internKind
	bytes      int64
	prev, next *internEntry // LRU list
	sibling    *internEntry // next entry under the same key

	graph    *dag.Graph           // internGraph
	digest   graphhash.GraphState // internGraph: the problem digest up to the graph
	platform *power.Platform      // internPlatform
}

// internRefs links one decoded request to the intern table. It is zero
// unless the request was decoded with a table (decodeInterned).
type internRefs struct {
	graph    *internEntry // the graph value was found: Graph is nil
	platform *internEntry // the platform value was found: Platform is nil
	// graphRaw and platformRaw are canonical values decoded from the body,
	// to be stored once built. graphRaw aliases the body buffer.
	graphRaw    []byte
	platformRaw []byte
}

// internTable is a Server's bounded, concurrency-safe map from the exact
// bytes of a request's "graph" and "platform" values to the *dag.Graph
// (with its digest state) and *power.Platform built from them, so a value
// that comes back is neither decoded nor built again. Only values that
// decoded canonically and built under the server's limits are stored, and
// canonical decoding is deterministic, so a stored value is exactly what
// the request would have built. Built graphs and platforms are immutable,
// so entries are shared by every request that names them. The table
// evicts whole entries in least-recently-used order to stay within its
// budget; a value that alone would exceed it is not stored.
//
// Entries are keyed by internKey: a value's first internPrefix bytes, or
// all of it when it is shorter. A lookup tries the key of a long value —
// comparing each entry under it against the body, so a hit costs one
// comparison of the value's length and finding its end costs nothing —
// and then the key of a short one, whose end a structural scan of at most
// internPrefix bytes finds. Each comparison stops at the first byte that
// differs, and the chained entries together hold at most the budget, so a
// lookup never compares more bytes than that.
type internTable struct {
	budget int64

	mu           sync.Mutex
	entries      [internKinds]map[string]*internEntry // by internKey, chained through sibling
	head, tail   *internEntry                         // LRU list, most recently used first
	bytes        int64
	hits, misses [internKinds]uint64
}

func newInternTable(budget int64) *internTable {
	t := &internTable{budget: budget}
	for k := range t.entries {
		t.entries[k] = make(map[string]*internEntry)
	}
	return t
}

// internStats is a snapshot of an intern table's counters.
type internStats struct {
	hits, misses [internKinds]uint64
	bytes        int64
}

func (t *internTable) stats() internStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return internStats{t.hits, t.misses, t.bytes}
}

// internKey is the key of a value of raw's bytes.
func internKey(raw string) string { return raw[:min(len(raw), internPrefix)] }

// get returns the entry of kind whose bytes start rest, or nil, counting
// the lookup as a hit or a miss.
func (t *internTable) get(kind internKind, rest []byte) *internEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.find(kind, rest)
	if e == nil {
		t.misses[kind]++
		return nil
	}
	t.hits[kind]++
	t.touch(e)
	return e
}

func (t *internTable) find(kind internKind, rest []byte) *internEntry {
	if len(rest) >= internPrefix {
		for e := t.entries[kind][string(rest[:internPrefix])]; e != nil; e = e.sibling {
			if len(e.raw) <= len(rest) && string(rest[:len(e.raw)]) == e.raw {
				return e
			}
		}
	}
	if end := objectEnd(rest[:min(len(rest), internPrefix-1)]); end > 0 {
		return t.entries[kind][string(rest[:end])]
	}
	return nil
}

// objectEnd returns the offset just past the object that starts b, found
// by matching braces and brackets outside strings without checking the
// object's spelling, or 0 when b holds no whole object.
func objectEnd(b []byte) int {
	depth := 0
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			j := bytes.IndexByte(b[i+1:], '"')
			if j < 0 {
				return 0
			}
			i += j + 1
		case '[', '{':
			depth++
		case ']', '}':
			if depth--; depth == 0 {
				return i + 1
			}
		}
	}
	return 0
}

// put stores e under a copy of raw, evicting least recently used entries
// to make room. A value already stored keeps its first entry (a concurrent
// request built an identical one); one that alone would exceed the budget
// is not stored.
func (t *internTable) put(e *internEntry, raw []byte) {
	e.bytes = internEntryOverhead + int64(len(raw))
	switch e.kind {
	case internGraph:
		e.bytes += graphBytes(e.graph) + int64(e.digest.Size())
	case internPlatform:
		e.bytes += platformBytes(e.platform)
	}
	if e.bytes > t.budget {
		return
	}
	e.raw = string(raw)
	key := internKey(e.raw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for o := t.entries[e.kind][key]; o != nil; o = o.sibling {
		if o.raw == e.raw {
			return
		}
	}
	for t.bytes+e.bytes > t.budget {
		t.evict(t.tail)
	}
	e.sibling = t.entries[e.kind][key] // eviction may have changed the chain
	t.entries[e.kind][key] = e
	t.pushFront(e)
	t.bytes += e.bytes
}

// graphBytes estimates what a built graph holds: per task its weight, both
// levels, topological position, CSR offsets and source/sink slots, per
// edge its two CSR slots, and its labels.
func graphBytes(g *dag.Graph) int64 {
	n := g.NumTasks()
	b := 48*int64(n) + 8*int64(g.NumEdges())
	for v := 0; v < n; v++ {
		if l := g.Label(v); l != "" {
			b += int64(unsafe.Sizeof(l)) + int64(len(l))
		}
	}
	return b
}

// platformBytes estimates what a built platform holds: every class's
// model and ladder, and the operating-point grid with one level per class
// per point.
func platformBytes(pf *power.Platform) int64 {
	const level = int64(unsafe.Sizeof(power.Level{}))
	nc := int64(pf.NumClasses())
	b := 8 * int64(pf.NumProcs())
	for c := 0; c < pf.NumClasses(); c++ {
		m := pf.ClassModel(c)
		b += int64(unsafe.Sizeof(*m)) + level*int64(len(m.Levels())) + int64(len(pf.Class(c).Name))
	}
	return b + int64(len(pf.Points()))*(int64(unsafe.Sizeof(power.OperatingPoint{}))+nc*level)
}

// evict drops entry e from the LRU list and from its key's chain.
func (t *internTable) evict(e *internEntry) {
	t.unlink(e)
	m, key := t.entries[e.kind], internKey(e.raw)
	if m[key] == e {
		if e.sibling != nil {
			m[key] = e.sibling
		} else {
			delete(m, key)
		}
	} else {
		o := m[key]
		for o.sibling != e {
			o = o.sibling
		}
		o.sibling = e.sibling
	}
	e.sibling = nil
	t.bytes -= e.bytes
}

func (t *internTable) touch(e *internEntry) {
	if t.head != e {
		t.unlink(e)
		t.pushFront(e)
	}
}

func (t *internTable) pushFront(e *internEntry) {
	e.prev, e.next = nil, t.head
	if t.head != nil {
		t.head.prev = e
	}
	t.head = e
	if t.tail == nil {
		t.tail = e
	}
}

func (t *internTable) unlink(e *internEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		t.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		t.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
