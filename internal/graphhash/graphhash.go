// Package graphhash computes a canonical digest of a scheduling problem:
// the task graph's structure, the platform power model, the deadline, the
// processor cap and the approach name. Two problems with equal digests are
// guaranteed to produce identical scheduling results, which makes the digest
// safe to use as a cache key for memoising results across requests.
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
	writePrefix(e, p.Graph, p.Model, p.Platform, p.FaultsK, p.FaultsPolicy)
	writeCell(e, p.Deadline, p.MaxProcs, p.Approach)
	return e.sum()
}

// writePrefix encodes the cell-independent part of a problem: the version
// string, the graph structure and the power model — followed, for platform
// problems only, by a tagged platform block (class names and model
// constants in class order, then the processor-to-class assignment). A nil
// platform writes nothing extra, so every pre-platform digest — and the
// golden files and persistent stores keyed by them — is unchanged; the tag
// plus framing guarantees no platform stream can collide with a
// non-platform one. A fault-tolerance request (faultsK > 0) appends its own
// tagged block under the same rules: K=0 streams are byte-identical to
// pre-fault ones.
func writePrefix(e *encoder, g *dag.Graph, m *power.Model, pf *power.Platform, faultsK int, faultsPolicy string) {
	e.string(Version)

	e.int(int64(g.NumTasks()))
	for v := 0; v < g.NumTasks(); v++ {
		e.int(g.Weight(v))
	}
	// Adjacency: successor lists are sorted by the dag builder, so iterating
	// tasks in index order yields a canonical edge enumeration.
	e.int(int64(g.NumEdges()))
	for v := 0; v < g.NumTasks(); v++ {
		succs := g.Succs(v)
		e.int(int64(len(succs)))
		for _, s := range succs {
			e.int(int64(s))
		}
	}

	if m == nil {
		m = defaultModel()
	}
	writeModel(e, m)

	if pf != nil {
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

	if faultsK > 0 {
		e.string("faults")
		e.int(int64(faultsK))
		e.string(faultsPolicy)
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

// Hasher derives the digests of many problems sharing one graph and power
// model — the cells of a sweep grid. The shared prefix (version, graph
// structure, model constants) is hashed once and its state snapshot reused,
// so each cell key costs O(1) instead of re-encoding the whole graph.
// Hasher.Cell and Sum are guaranteed to agree: both write through the same
// encoder functions.
type Hasher struct {
	graph        *dag.Graph
	model        *power.Model
	platform     *power.Platform
	faultsK      int
	faultsPolicy string
	state        []byte // marshaled sha256 state after the prefix; nil = recompute
}

// NewHasher returns a Hasher for problems over the given graph and model
// (nil model selects power.Default70nm()).
func NewHasher(g *dag.Graph, m *power.Model) *Hasher {
	return newHasher(g, m, nil, 0, "")
}

// NewPlatformHasher returns a Hasher for problems over the given graph and
// heterogeneous platform; its cells agree with Sum of the equivalent
// Problem{Platform: pf}.
func NewPlatformHasher(g *dag.Graph, pf *power.Platform) *Hasher {
	return newHasher(g, nil, pf, 0, "")
}

// NewProblemHasher returns a Hasher sharing p's whole cell-independent
// prefix — graph, model or platform, and fault-tolerance request. Deadline,
// MaxProcs and Approach on p are ignored; Cell supplies them. Its cells
// agree with Sum of the equivalent Problem.
func NewProblemHasher(p Problem) *Hasher {
	return newHasher(p.Graph, p.Model, p.Platform, p.FaultsK, p.FaultsPolicy)
}

func newHasher(g *dag.Graph, m *power.Model, pf *power.Platform, faultsK int, faultsPolicy string) *Hasher {
	hr := &Hasher{graph: g, model: m, platform: pf, faultsK: faultsK, faultsPolicy: faultsPolicy}
	e := getEncoder()
	defer encoderPool.Put(e)
	writePrefix(e, g, m, pf, faultsK, faultsPolicy)
	e.flush()
	if mb, ok := e.h.(encoding.BinaryMarshaler); ok {
		if st, err := mb.MarshalBinary(); err == nil {
			hr.state = st
		}
	}
	return hr
}

// Cell returns the digest of the problem {graph, model, deadline, maxProcs,
// approach}, identical to Sum of the equivalent Problem.
func (hr *Hasher) Cell(deadline float64, maxProcs int, approach string) string {
	e := getEncoder()
	defer encoderPool.Put(e)
	restored := false
	if hr.state != nil {
		if ub, ok := e.h.(encoding.BinaryUnmarshaler); ok {
			restored = ub.UnmarshalBinary(hr.state) == nil
		}
	}
	if !restored {
		e.h.Reset()
		writePrefix(e, hr.graph, hr.model, hr.platform, hr.faultsK, hr.faultsPolicy)
	}
	writeCell(e, deadline, maxProcs, approach)
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
