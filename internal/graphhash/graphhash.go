// Package graphhash computes a canonical digest of a scheduling problem:
// the task graph's structure, the platform power model, the deadline, the
// processor cap and the approach name. Two problems with equal digests are
// guaranteed to produce identical scheduling results, which makes the digest
// safe to use as a cache key for memoising results across requests.
// ScheduleKey writes the same graph encoding under its own tag to key list
// schedules, which depend on the graph and the machine's timing shape only,
// so graphhash is the one place that turns graph content into a digest.
//
// Canonicality rules:
//
//   - The graph's name and task labels are excluded: they are presentation
//     metadata and do not influence scheduling. Structurally identical graphs
//     submitted under different names share one cache entry.
//   - Weights and adjacency are encoded in task-index order with explicit
//     length framing, so no two distinct structures share an encoding.
//   - Every float enters the digest via its IEEE-754 bit pattern — no
//     formatting, no rounding.
//   - The encoding is versioned. Bump the version string whenever the
//     encoding or any semantic input changes, so stale digests can never
//     alias fresh ones.
//
// The digest is pinned by golden-file tests in testdata/: an accidental
// change to the encoding (which would silently poison result caches keyed by
// it) fails CI rather than surfacing as wrong serving results.
package graphhash

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sync"

	"lamps/internal/dag"
	"lamps/internal/power"
)

// Version identifies the encoding. It is folded into every digest.
const Version = "lamps/graphhash/v1"

// Problem is one cacheable scheduling problem.
type Problem struct {
	Graph    *dag.Graph
	Model    *power.Model    // nil selects power.Default70nm(); ignored when Platform is set
	Platform *power.Platform // optional heterogeneous platform; nil = homogeneous Model machine
	Deadline float64         // seconds
	MaxProcs int             // 0 = bounded only by graph parallelism
	Approach string          // canonical approach name, e.g. "LAMPS+PS"

	// FaultsK and FaultsPolicy describe the fault-tolerance request. K=0
	// (fault tolerance off) writes nothing, so every pre-fault digest is
	// unchanged; K>0 writes a tagged block, so fault-tolerant problems can
	// never alias their non-tolerant twins. Pass the resolved canonical
	// policy string (e.g. "backup-anywhere"), never a user-supplied alias.
	FaultsK      int
	FaultsPolicy string
}

// Sum returns the hex-encoded SHA-256 digest of the problem's canonical
// encoding.
func Sum(p Problem) string {
	e := getEncoder()
	defer encoderPool.Put(e)
	writePrefix(e, &p)
	writeCell(e, p.Deadline, p.MaxProcs, p.Approach)
	return e.sum()
}

// scheduleKeyTag opens every ScheduleKey stream, so a schedule key and a
// problem digest never share an input.
const scheduleKeyTag = "lamps/graphhash/schedule-key/v1"

// ScheduleKey returns the SHA-256 key of g's default list schedules on
// pf's timing shape, for memoising schedules across runs. The EDF list
// schedule of a graph on n processors depends on nothing but the graph
// and the machine's timing shape — priorities are deadline-0 EDF and no
// run passes release times — so the key covers exactly those: the graph
// content as Sum writes it (weights and successor lists, never names or
// labels), then the class count, and, on more than one class, the
// processor count, every processor's class and every class's slot stretch
// bits. A one-class machine adds nothing more, because the kernel ignores
// its platform. Power models, deadlines and approaches stay out: a graph
// that comes back under another deadline, approach or fault policy keys
// the same schedules. It uses the pooled encoder and allocates nothing
// once warm.
func ScheduleKey(g *dag.Graph, pf *power.Platform) [sha256.Size]byte {
	e := getEncoder()
	defer encoderPool.Put(e)
	e.string(scheduleKeyTag)
	writeGraph(e, g)
	nc := pf.NumClasses()
	e.int(int64(nc))
	if nc > 1 {
		e.int(int64(pf.NumProcs()))
		for p := 0; p < pf.NumProcs(); p++ {
			e.int(int64(pf.ClassOf(p)))
		}
		for c := 0; c < nc; c++ {
			e.float(pf.Scale(c))
		}
	}
	e.flush()
	e.h.Sum(e.out[:0])
	return e.out
}

// writePrefix encodes the cell-independent part of a problem: the version
// string, the graph structure and the power model — followed, for platform
// problems only, by a tagged platform block (class names and model
// constants in class order, then the processor-to-class assignment). A nil
// platform writes nothing extra, so every pre-platform digest — and the
// golden files and persistent stores keyed by them — is unchanged; the tag
// plus framing guarantees no platform stream can collide with a
// non-platform one. A fault-tolerance request (FaultsK > 0) appends its own
// tagged block under the same rules: K=0 streams are byte-identical to
// pre-fault ones.
func writePrefix(e *encoder, p *Problem) {
	writeHead(e, p.Graph)
	writeMachine(e, p)
}

// writeHead encodes the start of every problem stream: the version string
// and the graph.
func writeHead(e *encoder, g *dag.Graph) {
	e.string(Version)
	writeGraph(e, g)
}

// writeMachine encodes what follows the graph in a problem's prefix: the
// power model, then the platform and fault-tolerance blocks.
func writeMachine(e *encoder, p *Problem) {
	m := p.Model
	if m == nil {
		m = defaultModel()
	}
	writeModel(e, m)

	if pf := p.Platform; pf != nil {
		e.string("platform")
		e.int(int64(pf.NumClasses()))
		for c := 0; c < pf.NumClasses(); c++ {
			e.string(pf.Class(c).Name)
			writeModel(e, pf.ClassModel(c))
		}
		e.int(int64(pf.NumProcs()))
		for p := 0; p < pf.NumProcs(); p++ {
			e.int(int64(pf.ClassOf(p)))
		}
	}

	if p.FaultsK > 0 {
		e.string("faults")
		e.int(int64(p.FaultsK))
		e.string(p.FaultsPolicy)
	}
}

// writeGraph encodes the graph content: the task count and every weight,
// then the edge count and every task's successor count and successors.
// Successor lists are sorted by the dag builder, so iterating tasks in
// index order yields a canonical edge enumeration.
func writeGraph(e *encoder, g *dag.Graph) {
	n := g.NumTasks()
	e.int(int64(n))
	for v := 0; v < n; v++ {
		e.int(g.Weight(v))
	}
	e.int(int64(g.NumEdges()))
	for v := 0; v < n; v++ {
		e.list(g.Succs(v))
	}
}

// defaultModel is the model a nil Problem.Model selects, built once: the
// encoder only reads its constants.
var defaultModel = sync.OnceValue(power.Default70nm)

// writeModel encodes a power model's defining constants (the built ladder is
// derived from them).
func writeModel(e *encoder, m *power.Model) {
	for _, f := range [...]float64{
		m.K1, m.K2, m.K3, m.K4, m.K5, m.K6, m.K7,
		m.Vdd0, m.Vbs, m.Alpha, m.Vth1, m.Ij, m.Ceff, m.Ld, m.Lg,
		m.Activity, m.POn, m.PSleep, m.EOverhead,
		m.VddMax, m.VddMin, m.VddStep,
	} {
		e.float(f)
	}
}

// writeCell encodes the per-cell suffix of a problem: deadline, processor
// cap and approach.
func writeCell(e *encoder, deadline float64, maxProcs int, approach string) {
	e.float(deadline)
	e.int(int64(maxProcs))
	e.string(approach)
}

// Hasher derives the digests of many problems sharing one cell-independent
// prefix — the cells of a sweep grid. The prefix (version, graph
// structure, model or platform, fault-tolerance request) is hashed once
// and its state snapshot reused, so each cell key costs O(1) instead of
// re-encoding the whole graph. Hasher.Cell and Sum are guaranteed to
// agree: both write through the same encoder functions.
type Hasher struct {
	prefix Problem // Deadline, MaxProcs and Approach are unused
	state  []byte  // marshaled sha256 state after the prefix; nil = recompute
}

// NewProblemHasher returns a Hasher sharing p's whole cell-independent
// prefix — graph, model or platform, and fault-tolerance request. Deadline,
// MaxProcs and Approach on p are ignored; Cell supplies them. Its cells
// agree with Sum of the equivalent Problem.
func NewProblemHasher(p Problem) *Hasher {
	e := getEncoder()
	defer encoderPool.Put(e)
	writePrefix(e, &p)
	return &Hasher{prefix: p, state: e.snapshot()}
}

// Cell returns the digest of the prefix problem with the given deadline,
// processor cap and approach, identical to Sum of the equivalent Problem.
func (hr *Hasher) Cell(deadline float64, maxProcs int, approach string) string {
	e := getEncoder()
	defer encoderPool.Put(e)
	if !e.restore(hr.state) {
		writePrefix(e, &hr.prefix)
	}
	writeCell(e, deadline, maxProcs, approach)
	return e.sum()
}

// GraphState derives the digests of many problems on one graph — a graph
// that comes back under other deadlines, approaches, machines or fault
// requests. The version string and the graph are hashed once and the
// state snapshot reused, so each Sum encodes only the machine, the
// fault-tolerance request and the cell. GraphState.Sum and Sum are
// guaranteed to agree: both write through the same encoder functions.
// A GraphState is immutable and safe for concurrent use.
type GraphState struct {
	g     *dag.Graph
	state []byte // marshaled sha256 state after the graph; nil = recompute
}

// NewGraphState hashes the head of every problem stream on g.
func NewGraphState(g *dag.Graph) GraphState {
	e := getEncoder()
	defer encoderPool.Put(e)
	writeHead(e, g)
	return GraphState{g: g, state: e.snapshot()}
}

// Size returns the bytes the state holds beyond the graph it refers to.
func (gs GraphState) Size() int { return len(gs.state) }

// Sum returns Sum(p) for a problem whose Graph is the graph gs was made
// from; p.Graph itself is not read.
func (gs GraphState) Sum(p Problem) string {
	e := getEncoder()
	defer encoderPool.Put(e)
	if !e.restore(gs.state) {
		writeHead(e, gs.g)
	}
	writeMachine(e, &p)
	writeCell(e, p.Deadline, p.MaxProcs, p.Approach)
	return e.sum()
}

// encoder produces the canonical byte stream. Values are appended
// little-endian into a fixed-size buffer that is handed to the hash a chunk
// at a time, so encoding a graph costs no allocation per value: writing 8
// bytes at a time through the hash.Hash interface would heap-allocate every
// one of them. The digest is SHA-256 of the concatenated stream, however it
// is chunked.
type encoder struct {
	h   hash.Hash
	buf []byte
	out [sha256.Size]byte
}

// encoderChunk is the buffered stream length at which the encoder flushes
// into the hash.
const encoderChunk = 4096

var encoderPool = sync.Pool{New: func() any {
	return &encoder{h: sha256.New(), buf: make([]byte, 0, encoderChunk)}
}}

// getEncoder returns a pooled encoder with an empty buffer and a fresh hash
// state. Return it with encoderPool.Put.
func getEncoder() *encoder {
	e := encoderPool.Get().(*encoder)
	e.h.Reset()
	e.buf = e.buf[:0]
	return e
}

// snapshot flushes the stream and returns the marshaled hash state, or
// nil if the hash cannot marshal it.
func (e *encoder) snapshot() []byte {
	e.flush()
	if mb, ok := e.h.(encoding.BinaryMarshaler); ok {
		if st, err := mb.MarshalBinary(); err == nil {
			return st
		}
	}
	return nil
}

// restore sets the hash to a snapshot's state and reports whether it did.
// On false the hash is fresh and the caller writes the stream itself.
func (e *encoder) restore(state []byte) bool {
	if state != nil {
		if ub, ok := e.h.(encoding.BinaryUnmarshaler); ok && ub.UnmarshalBinary(state) == nil {
			return true
		}
		e.h.Reset()
	}
	return false
}

// flush hands the buffered stream to the hash.
func (e *encoder) flush() {
	e.h.Write(e.buf)
	e.buf = e.buf[:0]
}

// sum flushes the stream and returns the hex digest.
func (e *encoder) sum() string {
	e.flush()
	var dst [2 * sha256.Size]byte
	hex.Encode(dst[:], e.h.Sum(e.out[:0]))
	return string(dst[:])
}

func (e *encoder) int(v int64) {
	if len(e.buf)+8 > encoderChunk {
		e.flush()
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v))
}

// list writes len(vals) and then every value. A list that fits in a chunk
// goes in under one room check; a longer one is split across flushes, so
// the buffer never grows past a chunk.
func (e *encoder) list(vals []int32) {
	if len(e.buf)+8*(1+len(vals)) > encoderChunk {
		e.flush()
	}
	buf := binary.LittleEndian.AppendUint64(e.buf, uint64(len(vals)))
	for {
		k := min(len(vals), (encoderChunk-len(buf))/8)
		for _, v := range vals[:k] {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		if vals = vals[k:]; len(vals) == 0 {
			break
		}
		e.h.Write(buf)
		buf = buf[:0]
	}
	e.buf = buf
}

func (e *encoder) float(f float64) {
	e.int(int64(math.Float64bits(f)))
}

func (e *encoder) string(s string) {
	e.int(int64(len(s)))
	if len(e.buf)+len(s) > encoderChunk {
		e.flush()
		e.h.Write([]byte(s))
		return
	}
	e.buf = append(e.buf, s...)
}
