package dag

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// buildPaperExample constructs the task graph of Fig. 4a in the paper:
// five tasks with weights T1=2, T2=6, T3=4, T4=4, T5=2 and edges
// T1->T2, T1->T3, T1->T4, T2->T5, T3->T5.
func buildPaperExample(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("fig4a")
	t1 := b.AddLabeledTask(2, "T1")
	t2 := b.AddLabeledTask(6, "T2")
	t3 := b.AddLabeledTask(4, "T3")
	t4 := b.AddLabeledTask(4, "T4")
	t5 := b.AddLabeledTask(2, "T5")
	b.AddEdge(t1, t2)
	b.AddEdge(t1, t3)
	b.AddEdge(t1, t4)
	b.AddEdge(t2, t5)
	b.AddEdge(t3, t5)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestPaperExampleAnalysis(t *testing.T) {
	g := buildPaperExample(t)
	if got, want := g.NumTasks(), 5; got != want {
		t.Errorf("NumTasks = %d, want %d", got, want)
	}
	if got, want := g.NumEdges(), 5; got != want {
		t.Errorf("NumEdges = %d, want %d", got, want)
	}
	if got, want := g.TotalWork(), int64(18); got != want {
		t.Errorf("TotalWork = %d, want %d", got, want)
	}
	// Critical path is T1 -> T2 -> T5 with length 2+6+2 = 10.
	if got, want := g.CriticalPathLength(), int64(10); got != want {
		t.Errorf("CPL = %d, want %d", got, want)
	}
	wantB := []int64{10, 8, 6, 4, 2}
	wantT := []int64{0, 2, 2, 2, 8}
	for v := 0; v < 5; v++ {
		if g.BottomLevel(v) != wantB[v] {
			t.Errorf("BottomLevel(%d) = %d, want %d", v, g.BottomLevel(v), wantB[v])
		}
		if g.TopLevel(v) != wantT[v] {
			t.Errorf("TopLevel(%d) = %d, want %d", v, g.TopLevel(v), wantT[v])
		}
	}
	if got := g.Parallelism(); got != 1.8 {
		t.Errorf("Parallelism = %v, want 1.8", got)
	}
	// T2, T3, T4 all overlap on an unbounded machine.
	if got, want := g.MaxWidth(), 3; got != want {
		t.Errorf("MaxWidth = %d, want %d", got, want)
	}
	if got := g.Sources(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Sources = %v, want [0]", got)
	}
	if got := g.Sinks(); len(got) != 2 {
		t.Errorf("Sinks = %v, want T4 and T5", got)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name  string
		build func(*Builder)
		want  error
	}{
		{"empty", func(b *Builder) {}, ErrEmpty},
		{"zero weight", func(b *Builder) { b.AddTask(0) }, ErrBadWeight},
		{"negative weight", func(b *Builder) { b.AddTask(-3) }, ErrBadWeight},
		{"self edge", func(b *Builder) {
			v := b.AddTask(1)
			b.AddEdge(v, v)
		}, ErrSelfEdge},
		{"edge out of range", func(b *Builder) {
			v := b.AddTask(1)
			b.AddEdge(v, 7)
		}, ErrBadTask},
		{"negative edge endpoint", func(b *Builder) {
			v := b.AddTask(1)
			b.AddEdge(-1, v)
		}, ErrBadTask},
		// Endpoints that narrow to valid int32 indices must still be rejected:
		// 1<<32 would otherwise alias task 0, and 1<<32+1 task 1.
		{"source wraps past int32", func(b *Builder) {
			_, v := b.AddTask(1), b.AddTask(1)
			b.AddEdge(int(wide(0)), v)
		}, ErrBadTask},
		{"target wraps past int32", func(b *Builder) {
			u, _ := b.AddTask(1), b.AddTask(1)
			b.AddEdge(u, int(wide(1)))
		}, ErrBadTask},
		{"duplicate edge", func(b *Builder) {
			u, v := b.AddTask(1), b.AddTask(1)
			b.AddEdge(u, v)
			b.AddEdge(u, v)
		}, ErrDupEdge},
		{"two cycle", func(b *Builder) {
			u, v := b.AddTask(1), b.AddTask(1)
			b.AddEdge(u, v)
			b.AddEdge(v, u)
		}, ErrCycle},
		{"three cycle", func(b *Builder) {
			u, v, w := b.AddTask(1), b.AddTask(1), b.AddTask(1)
			b.AddEdge(u, v)
			b.AddEdge(v, w)
			b.AddEdge(w, u)
		}, ErrCycle},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(tc.name)
			tc.build(b)
			_, err := b.Build()
			if !errors.Is(err, tc.want) {
				t.Errorf("Build err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestSingleTask(t *testing.T) {
	b := NewBuilder("single")
	b.AddTask(7)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.CriticalPathLength() != 7 || g.TotalWork() != 7 {
		t.Errorf("CPL=%d work=%d, want 7 and 7", g.CriticalPathLength(), g.TotalWork())
	}
	if g.MaxWidth() != 1 {
		t.Errorf("MaxWidth = %d, want 1", g.MaxWidth())
	}
	if g.Parallelism() != 1 {
		t.Errorf("Parallelism = %v, want 1", g.Parallelism())
	}
}

func TestChainGraph(t *testing.T) {
	b := NewBuilder("chain")
	const n = 50
	prev := -1
	for i := 0; i < n; i++ {
		v := b.AddTask(int64(i + 1))
		if prev >= 0 {
			b.AddEdge(prev, v)
		}
		prev = v
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	want := int64(n * (n + 1) / 2)
	if g.CriticalPathLength() != want {
		t.Errorf("CPL = %d, want %d", g.CriticalPathLength(), want)
	}
	if g.Parallelism() != 1 {
		t.Errorf("chain parallelism = %v, want 1", g.Parallelism())
	}
	if g.MaxWidth() != 1 {
		t.Errorf("chain MaxWidth = %d, want 1", g.MaxWidth())
	}
}

func TestIndependentTasks(t *testing.T) {
	b := NewBuilder("indep")
	for i := 0; i < 10; i++ {
		b.AddTask(5)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.CriticalPathLength() != 5 {
		t.Errorf("CPL = %d, want 5", g.CriticalPathLength())
	}
	if g.MaxWidth() != 10 {
		t.Errorf("MaxWidth = %d, want 10", g.MaxWidth())
	}
	if g.Parallelism() != 10 {
		t.Errorf("Parallelism = %v, want 10", g.Parallelism())
	}
}

func TestScaleWeights(t *testing.T) {
	g := buildPaperExample(t)
	s, err := g.ScaleWeights(3100000)
	if err != nil {
		t.Fatalf("ScaleWeights: %v", err)
	}
	if got, want := s.CriticalPathLength(), int64(10*3100000); got != want {
		t.Errorf("scaled CPL = %d, want %d", got, want)
	}
	if got, want := s.TotalWork(), int64(18*3100000); got != want {
		t.Errorf("scaled work = %d, want %d", got, want)
	}
	if s.Parallelism() != g.Parallelism() {
		t.Errorf("scaling changed parallelism: %v != %v", s.Parallelism(), g.Parallelism())
	}
	for v := 0; v < g.NumTasks(); v++ {
		if s.Weight(v) != g.Weight(v)*3100000 {
			t.Errorf("weight %d not scaled", v)
		}
		if s.BottomLevel(v) != g.BottomLevel(v)*3100000 {
			t.Errorf("blevel %d not scaled", v)
		}
	}
	// Original untouched.
	if g.Weight(0) != 2 {
		t.Errorf("original graph mutated")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("scaled Validate: %v", err)
	}
	if _, err := g.ScaleWeights(0); !errors.Is(err, ErrBadWeight) {
		t.Errorf("ScaleWeights(0) err = %v, want ErrBadWeight", err)
	}
}

func TestRename(t *testing.T) {
	g := buildPaperExample(t)
	r := g.Rename("other")
	if r.Name() != "other" || g.Name() != "fig4a" {
		t.Errorf("Rename got %q/%q", r.Name(), g.Name())
	}
}

func TestWriteDOT(t *testing.T) {
	g := buildPaperExample(t)
	var sb strings.Builder
	if err := g.WriteDOT(&sb); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "T1", "n0 -> n1", "w=6"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

// randomDAG builds a random DAG where edges always go from lower to higher
// index, guaranteeing acyclicity by construction.
func randomDAG(rng *rand.Rand, n int, p float64) *Graph {
	b := NewBuilder("random")
	for i := 0; i < n; i++ {
		b.AddTask(int64(rng.Intn(300) + 1))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(i, j)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestPropertyRandomDAGInvariants(t *testing.T) {
	f := func(seed int64, rawN uint8, rawP uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN%60) + 1
		p := float64(rawP%100) / 100
		g := randomDAG(rng, n, p)
		if err := g.Validate(); err != nil {
			t.Logf("Validate: %v", err)
			return false
		}
		// Topological positions respect every edge.
		pos := make([]int, n)
		for i, v := range g.TopoOrder() {
			pos[v] = i
		}
		var maxB, work int64
		for v := 0; v < n; v++ {
			work += g.Weight(v)
			if g.BottomLevel(v) > maxB {
				maxB = g.BottomLevel(v)
			}
			// blevel(v) = w(v) + max succ blevel.
			var succMax int64
			for _, s := range g.Succs(v) {
				if pos[v] >= pos[int(s)] {
					t.Logf("edge %d->%d violates topo order", v, s)
					return false
				}
				if g.BottomLevel(int(s)) > succMax {
					succMax = g.BottomLevel(int(s))
				}
				// tlevel(s) >= tlevel(v)+w(v) for every edge.
				if g.TopLevel(int(s)) < g.TopLevel(v)+g.Weight(v) {
					t.Logf("tlevel inconsistent on edge %d->%d", v, s)
					return false
				}
			}
			if g.BottomLevel(v) != g.Weight(v)+succMax {
				t.Logf("blevel recurrence fails at %d", v)
				return false
			}
			if g.TopLevel(v)+g.BottomLevel(v) > g.CriticalPathLength() {
				t.Logf("tlevel+blevel exceeds CPL at %d", v)
				return false
			}
		}
		if work != g.TotalWork() {
			return false
		}
		if maxB != g.CriticalPathLength() {
			return false
		}
		if g.MaxWidth() < 1 || g.MaxWidth() > n {
			return false
		}
		// Parallelism is between 1 and n.
		par := g.Parallelism()
		return par >= 1-1e-9 && par <= float64(n)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPropertyScaleCommutesWithAnalysis(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawN%40) + 1
		g := randomDAG(rng, n, 0.15)
		s, err := g.ScaleWeights(31)
		if err != nil {
			return false
		}
		return s.CriticalPathLength() == 31*g.CriticalPathLength() &&
			s.TotalWork() == 31*g.TotalWork() &&
			s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBuild1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bld := NewBuilder("bench")
	for i := 0; i < 1000; i++ {
		bld.AddTask(int64(rng.Intn(300) + 1))
	}
	seen := make(map[[2]int]bool)
	for i := 0; i < 1000; i++ {
		for k := 0; k < 4; k++ {
			j := i + 1 + rng.Intn(200)
			if j < 1000 && !seen[[2]int{i, j}] {
				seen[[2]int{i, j}] = true
				bld.AddEdge(i, j)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bld.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// wide returns 1<<32 + v: an index that truncates to v in an int32.
func wide(v int64) int64 { return 1<<32 + v }
