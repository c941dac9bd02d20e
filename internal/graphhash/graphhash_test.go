package graphhash

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lamps/internal/dag"
	"lamps/internal/mpeg"
	"lamps/internal/power"
	"lamps/internal/stg"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.golden")

// corpus returns the fixed set of (name, problem) pairs whose digests are
// pinned in testdata/digests.golden. The STG files in testdata/ plus the
// built-in MPEG GOP cover chains, diamonds, fork-joins, layered and
// series-parallel random graphs, several deadlines, processor caps and
// approaches, and a non-default power model.
func corpus(t *testing.T) map[string]Problem {
	t.Helper()
	graphs := map[string]*dag.Graph{"mpeg": mpeg.Fig9()}
	files, err := filepath.Glob(filepath.Join("testdata", "*.stg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no .stg files in testdata/")
	}
	for _, f := range files {
		r, err := os.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		g, err := stg.Parse(r, strings.TrimSuffix(filepath.Base(f), ".stg"))
		r.Close()
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		graphs[strings.TrimSuffix(filepath.Base(f), ".stg")] = g
	}

	leaky := power.Default70nm()
	leaky.Lg *= 2 // double the leakage gates: a distinct, valid model
	if err := leaky.Build(); err != nil {
		t.Fatal(err)
	}

	problems := make(map[string]Problem)
	for name, g := range graphs {
		problems[name+"/lamps-d2"] = Problem{Graph: g, Deadline: 2, Approach: "LAMPS"}
		problems[name+"/ss+ps-d0.5"] = Problem{Graph: g, Deadline: 0.5, Approach: "S&S+PS"}
		problems[name+"/lamps+ps-d2-p4"] = Problem{Graph: g, Deadline: 2, MaxProcs: 4, Approach: "LAMPS+PS"}
		problems[name+"/lamps-d2-leaky"] = Problem{Graph: g, Model: leaky, Deadline: 2, Approach: "LAMPS"}
	}
	return problems
}

// TestGolden pins every corpus digest. A failure means the canonical
// encoding changed: any deployed result cache keyed by these digests would
// be silently poisoned. If the change is intentional, bump Version in
// graphhash.go and regenerate with `go test ./internal/graphhash -update`.
func TestGolden(t *testing.T) {
	problems := corpus(t)
	got := make(map[string]string, len(problems))
	for name, p := range problems {
		got[name] = Sum(p)
	}

	goldenPath := filepath.Join("testdata", "digests.golden")
	if *update {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		var sb strings.Builder
		sb.WriteString("# pinned canonical digests — regenerate with: go test ./internal/graphhash -update\n")
		for _, n := range names {
			fmt.Fprintf(&sb, "%s %s\n", n, got[n])
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("open golden file (regenerate with -update): %v", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d digests, corpus has %d", len(want), len(got))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: in golden file but not in corpus", name)
		} else if g != w {
			t.Errorf("%s: digest %s, golden %s — canonical encoding changed; see TestGolden doc", name, g, w)
		}
	}
}

// TestNameAndLabelsExcluded asserts that presentation metadata does not
// influence the digest, so structurally identical graphs share cache
// entries.
func TestNameAndLabelsExcluded(t *testing.T) {
	g := mpeg.Fig9()
	p := Problem{Graph: g, Deadline: 1, Approach: "LAMPS"}
	q := p
	q.Graph = g.Rename("something else entirely")
	if Sum(p) != Sum(q) {
		t.Error("renaming the graph changed the digest")
	}

	// Rebuild the same structure without labels.
	b := dag.NewBuilder("x")
	for v := 0; v < g.NumTasks(); v++ {
		b.AddTask(g.Weight(v))
	}
	for v := 0; v < g.NumTasks(); v++ {
		for _, s := range g.Succs(v) {
			b.AddEdge(v, int(s))
		}
	}
	unlabeled, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	q.Graph = unlabeled
	if Sum(p) != Sum(q) {
		t.Error("stripping labels changed the digest")
	}
}

// TestSensitivity asserts that every semantic input perturbs the digest.
func TestSensitivity(t *testing.T) {
	build := func(weights []int64, edges [][2]int) *dag.Graph {
		b := dag.NewBuilder("")
		for _, w := range weights {
			b.AddTask(w)
		}
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	base := Problem{
		Graph:    build([]int64{10, 20, 30}, [][2]int{{0, 1}, {0, 2}}),
		Deadline: 2,
		MaxProcs: 0,
		Approach: "LAMPS",
	}
	ref := Sum(base)

	leaky := power.Default70nm()
	leaky.POn *= 2
	if err := leaky.Build(); err != nil {
		t.Fatal(err)
	}

	variants := map[string]Problem{
		"weight":   {Graph: build([]int64{10, 20, 31}, [][2]int{{0, 1}, {0, 2}}), Deadline: 2, Approach: "LAMPS"},
		"edge":     {Graph: build([]int64{10, 20, 30}, [][2]int{{0, 1}, {1, 2}}), Deadline: 2, Approach: "LAMPS"},
		"deadline": {Graph: base.Graph, Deadline: 2.5, Approach: "LAMPS"},
		"maxprocs": {Graph: base.Graph, Deadline: 2, MaxProcs: 2, Approach: "LAMPS"},
		"approach": {Graph: base.Graph, Deadline: 2, Approach: "LAMPS+PS"},
		"model":    {Graph: base.Graph, Model: leaky, Deadline: 2, Approach: "LAMPS"},
	}
	for what, p := range variants {
		if Sum(p) == ref {
			t.Errorf("changing %s did not change the digest", what)
		}
	}

	// Nil model must hash identically to the explicit default model.
	explicit := base
	explicit.Model = power.Default70nm()
	if Sum(explicit) != ref {
		t.Error("explicit default model hashes differently from nil model")
	}
}

// TestFraming guards against length-extension-style ambiguity: moving a
// weight across the task/edge boundary must not collide.
func TestFraming(t *testing.T) {
	b1 := dag.NewBuilder("")
	b1.AddTask(7)
	b1.AddTask(7)
	g1, err := b1.Build()
	if err != nil {
		t.Fatal(err)
	}
	b2 := dag.NewBuilder("")
	b2.AddTask(7)
	b2.AddTask(7)
	b2.AddEdge(0, 1)
	g2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	p1 := Problem{Graph: g1, Deadline: 1, Approach: "S&S"}
	p2 := Problem{Graph: g2, Deadline: 1, Approach: "S&S"}
	if Sum(p1) == Sum(p2) {
		t.Error("independent pair and chain hash identically")
	}
}

// TestHasherMatchesSum pins the sweep fast path to the canonical encoding:
// for every corpus problem, the per-cell digest derived from the shared
// graph+model prefix must equal Sum of the full problem, whatever cell
// fields the prefix problem carries. A divergence here would silently split
// the result cache between the schedule and sweep endpoints.
func TestHasherMatchesSum(t *testing.T) {
	for name, p := range corpus(t) {
		h := NewProblemHasher(p)
		if got, want := h.Cell(p.Deadline, p.MaxProcs, p.Approach), Sum(p); got != want {
			t.Errorf("%s: Hasher.Cell = %s, Sum = %s", name, got, want)
		}
		// Deriving more cells from the same hasher must not corrupt the
		// shared prefix state.
		for i, d := range []float64{0.001, 0.5, 8} {
			q := p
			q.Deadline, q.MaxProcs = d, i
			if got, want := h.Cell(d, i, p.Approach), Sum(q); got != want {
				t.Errorf("%s cell %d: Hasher.Cell = %s, Sum = %s", name, i, got, want)
			}
		}
	}
}

// TestHasherWithoutSnapshot exercises the recompute fallback used when the
// hash state cannot be marshaled.
func TestHasherWithoutSnapshot(t *testing.T) {
	for name, p := range corpus(t) {
		h := NewProblemHasher(p)
		h.state = nil // force the slow path
		if got, want := h.Cell(p.Deadline, p.MaxProcs, p.Approach), Sum(p); got != want {
			t.Errorf("%s: fallback Cell = %s, Sum = %s", name, got, want)
		}
	}
}
