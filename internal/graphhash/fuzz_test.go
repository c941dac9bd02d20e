package graphhash

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"lamps/internal/dag"
	"lamps/internal/power"
)

// FuzzSumMatchesReference pins the chunked encoder to a plain reference:
// for a graph decoded from the fuzz bytes, Sum must equal the hex SHA-256
// of the stream refProblem writes value by value, and ScheduleKey the
// SHA-256 of refScheduleKey's stream, on one class and on an LP/HP
// machine. ScheduleKey must also ignore the graph's name and labels and
// tell the two timing shapes apart. The seeds are a random graph whose
// stream spans several chunks and a star whose one successor list is
// longer than a chunk.
func FuzzSumMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	random := dag.NewBuilder("random")
	for v := 0; v < 300; v++ {
		random.AddTask(1 + rng.Int63n(1000))
	}
	for v := 0; v < 300; v++ {
		for s := v + 1; s < 300; s++ {
			if rng.Float64() < 0.05 {
				random.AddEdge(v, s)
			}
		}
	}
	star := dag.NewBuilder("star")
	star.AddTask(7)
	for v := 1; v <= 2000; v++ {
		star.AddTask(int64(v))
		star.AddEdge(0, v)
	}
	for _, b := range []*dag.Builder{random, star} {
		g, err := b.Build()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(graphBytes(g), "LAMPS+PS")
	}
	f.Add([]byte{3, 5, 6, 7, 2, 0, 0}, "S&S")
	f.Add([]byte{}, "")

	one, err := power.Homogeneous(8, power.Default70nm())
	if err != nil {
		f.Fatal(err)
	}
	lphp := makePlatform(f, "lp", 0.85, []int{0, 0, 0, 0, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte, approach string) {
		g := decodeGraph(t, data, "fuzz", "")
		p := Problem{Graph: g, Deadline: 1.5, MaxProcs: 4, Approach: approach}
		want := refDigest(refProblem(p))
		if got := Sum(p); got != want {
			t.Fatalf("Sum = %s, reference %s", got, want)
		}
		if got := NewGraphState(g).Sum(p); got != want {
			t.Fatalf("GraphState.Sum = %s, reference %s", got, want)
		}
		for _, pf := range []*power.Platform{one, lphp} {
			if got, want := ScheduleKey(g, pf), sha256.Sum256(refScheduleKey(g, pf)); got != want {
				t.Fatalf("%d classes: ScheduleKey = %x, reference %x", pf.NumClasses(), got, want)
			}
		}
		if ScheduleKey(decodeGraph(t, data, "renamed", "label"), one) != ScheduleKey(g, one) {
			t.Fatal("a name or label change moved ScheduleKey")
		}
		if ScheduleKey(g, one) == ScheduleKey(g, lphp) {
			t.Fatal("ScheduleKey ignores the timing shape")
		}
	})
}

// fuzzMaxTasks and fuzzMaxEdges bound a decoded graph.
const (
	fuzzMaxTasks = 4096
	fuzzMaxEdges = 1 << 14
)

// decodeGraph reads a graph from fuzz bytes as uvarints: the task count
// (1 plus the first value, mod fuzzMaxTasks), every task's weight minus
// one, then for every task its successor count and the gaps between its
// successors, the first counted from the task itself. Exhausted input
// reads as zeros and successors stop at the last task, so every input
// decodes to an acyclic graph. Every task is labelled label.
func decodeGraph(t *testing.T, data []byte, name, label string) *dag.Graph {
	next := func() uint64 {
		v, k := binary.Uvarint(data)
		if k <= 0 {
			data = nil
			return 0
		}
		data = data[k:]
		return v
	}
	n := 1 + int(next()%fuzzMaxTasks)
	b := dag.NewBuilder(name)
	for v := 0; v < n; v++ {
		b.AddLabeledTask(1+int64(next()%(1<<32)), label)
	}
	edges := 0
	for v := 0; v < n && edges < fuzzMaxEdges; v++ {
		s := v
		for c := next(); c > 0 && edges < fuzzMaxEdges; c-- {
			gap := next()
			if gap >= uint64(n-1-s) {
				break
			}
			s += 1 + int(gap)
			b.AddEdge(v, s)
			edges++
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("decoded graph does not build: %v", err)
	}
	return g
}

// graphBytes is decodeGraph's inverse, for seeds.
func graphBytes(g *dag.Graph) []byte {
	out := binary.AppendUvarint(nil, uint64(g.NumTasks()-1))
	for v := 0; v < g.NumTasks(); v++ {
		out = binary.AppendUvarint(out, uint64(g.Weight(v)-1))
	}
	for v := 0; v < g.NumTasks(); v++ {
		succs := g.Succs(v)
		out = binary.AppendUvarint(out, uint64(len(succs)))
		prev := v
		for _, s := range succs {
			out = binary.AppendUvarint(out, uint64(int(s)-prev-1))
			prev = int(s)
		}
	}
	return out
}

// ref is a plain reference stream: every value appended as it comes.
type ref []byte

func (r ref) int(v int64) ref     { return binary.LittleEndian.AppendUint64(r, uint64(v)) }
func (r ref) float(f float64) ref { return r.int(int64(math.Float64bits(f))) }
func (r ref) string(s string) ref { return append(r.int(int64(len(s))), s...) }

func refDigest(r ref) string {
	d := sha256.Sum256(r)
	return hex.EncodeToString(d[:])
}

// refProblem writes a problem on the default model with no platform and
// no fault tolerance: the version, the graph, the model constants, then
// the deadline, processor cap and approach.
func refProblem(p Problem) ref {
	r := refGraph(ref(nil).string(Version), p.Graph)
	m := power.Default70nm()
	for _, f := range []float64{
		m.K1, m.K2, m.K3, m.K4, m.K5, m.K6, m.K7,
		m.Vdd0, m.Vbs, m.Alpha, m.Vth1, m.Ij, m.Ceff, m.Ld, m.Lg,
		m.Activity, m.POn, m.PSleep, m.EOverhead,
		m.VddMax, m.VddMin, m.VddStep,
	} {
		r = r.float(f)
	}
	return r.float(p.Deadline).int(int64(p.MaxProcs)).string(p.Approach)
}

// refScheduleKey writes the tag, the graph and the timing shape: the class
// count, and on more than one class the processor count, every
// processor's class and every class's Scale bits.
func refScheduleKey(g *dag.Graph, pf *power.Platform) ref {
	r := refGraph(ref(nil).string(scheduleKeyTag), g).int(int64(pf.NumClasses()))
	if pf.NumClasses() > 1 {
		r = r.int(int64(pf.NumProcs()))
		for p := 0; p < pf.NumProcs(); p++ {
			r = r.int(int64(pf.ClassOf(p)))
		}
		for c := 0; c < pf.NumClasses(); c++ {
			r = r.float(pf.Scale(c))
		}
	}
	return r
}

// refGraph writes the task count and weights, then the edge count and
// every task's successor count and successors.
func refGraph(r ref, g *dag.Graph) ref {
	r = r.int(int64(g.NumTasks()))
	for v := 0; v < g.NumTasks(); v++ {
		r = r.int(g.Weight(v))
	}
	r = r.int(int64(g.NumEdges()))
	for v := 0; v < g.NumTasks(); v++ {
		r = r.int(int64(len(g.Succs(v))))
		for _, s := range g.Succs(v) {
			r = r.int(int64(s))
		}
	}
	return r
}
