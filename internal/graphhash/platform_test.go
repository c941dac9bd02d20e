package graphhash

import (
	"testing"

	"lamps/internal/dag"
	"lamps/internal/power"
)

// platformProblems builds a small fixed graph plus a heterogeneous LP/HP
// platform for the digest tests.
func platformGraph(t *testing.T) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("")
	b.AddTask(10)
	b.AddTask(20)
	b.AddTask(30)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func makePlatform(t testing.TB, lpName string, lpVddMax float64, procs []int) *power.Platform {
	t.Helper()
	lp := *power.Default70nm()
	lp.VddMax = lpVddMax
	lp.POn = 0.04
	if err := lp.Build(); err != nil {
		t.Fatal(err)
	}
	pf, err := power.NewPlatform(
		[]power.CoreClass{{Name: lpName, Model: &lp}, {Name: "hp", Model: power.Default70nm()}},
		procs,
	)
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

// TestPlatformSensitivity asserts that the platform block perturbs the
// digest exactly when it should: presence, class constants, class names,
// the processor-to-class assignment and the machine size must all be
// distinguished, while nil-platform digests are byte-identical to the
// pre-platform encoding (the same encoder path with nothing appended).
func TestPlatformSensitivity(t *testing.T) {
	g := platformGraph(t)
	base := Problem{
		Graph:    g,
		Platform: makePlatform(t, "lp", 0.85, []int{0, 0, 0, 1}),
		Deadline: 2,
		Approach: "LAMPS",
	}
	ref := Sum(base)

	bare := base
	bare.Platform = nil
	if Sum(bare) == ref {
		t.Error("adding a platform did not change the digest")
	}

	variants := map[string]*power.Platform{
		"class constants":  makePlatform(t, "lp", 0.90, []int{0, 0, 0, 1}),
		"class name":       makePlatform(t, "little", 0.85, []int{0, 0, 0, 1}),
		"class assignment": makePlatform(t, "lp", 0.85, []int{0, 0, 1, 0}),
		"class mix":        makePlatform(t, "lp", 0.85, []int{0, 0, 1, 1}),
		"machine size":     makePlatform(t, "lp", 0.85, []int{0, 0, 0, 1, 1}),
	}
	for what, pf := range variants {
		p := base
		p.Platform = pf
		if Sum(p) == ref {
			t.Errorf("changing the platform's %s did not change the digest", what)
		}
	}

	// A homogeneous single-class platform is scheduled exactly like its bare
	// model (core normalises it away), but it is a distinct request shape and
	// may hash distinctly; what matters is determinism.
	hom, err := power.Homogeneous(4, power.Default70nm())
	if err != nil {
		t.Fatal(err)
	}
	p := base
	p.Platform = hom
	if Sum(p) != Sum(p) {
		t.Error("platform digest is not deterministic")
	}
}

// TestPlatformDigestIndependentOfModelField: when a platform is set the
// Model field is documented as ignored; the digest must not smuggle it in,
// or equal problems would split the result cache.
func TestPlatformDigestIndependentOfModelField(t *testing.T) {
	g := platformGraph(t)
	pf := makePlatform(t, "lp", 0.85, []int{0, 0, 0, 1})
	withNil := Problem{Graph: g, Platform: pf, Deadline: 2, Approach: "LAMPS"}
	withDefault := withNil
	withDefault.Model = power.Default70nm()
	if Sum(withNil) != Sum(withDefault) {
		t.Error("explicit default Model changes a platform problem's digest")
	}
}

// TestPlatformHasherMatchesSum pins the sweep fast path for platform
// problems: NewProblemHasher's cells must agree with Sum, both on the
// snapshot-restore path and the recompute fallback.
func TestPlatformHasherMatchesSum(t *testing.T) {
	g := platformGraph(t)
	pf := makePlatform(t, "lp", 0.85, []int{0, 0, 0, 1})
	h := NewProblemHasher(Problem{Graph: g, Platform: pf})
	for i, d := range []float64{0.001, 0.5, 2, 8} {
		p := Problem{Graph: g, Platform: pf, Deadline: d, MaxProcs: i, Approach: "LAMPS+PS"}
		if got, want := h.Cell(d, i, "LAMPS+PS"), Sum(p); got != want {
			t.Errorf("cell %d: Hasher.Cell = %s, Sum = %s", i, got, want)
		}
	}
	h.state = nil // force the recompute fallback
	p := Problem{Graph: g, Platform: pf, Deadline: 1, Approach: "S&S"}
	if got, want := h.Cell(1, 0, "S&S"), Sum(p); got != want {
		t.Errorf("fallback Cell = %s, Sum = %s", got, want)
	}
}
