package dag_test

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"lamps/internal/dag"
	"lamps/internal/taskgen"
)

// maxWidthEventSweep is the width computation the merge sweep replaced,
// kept as the differential oracle: one event per window start (+1) and
// end (−1), sorted by time with ends before starts, summed in order.
func maxWidthEventSweep(g *dag.Graph) int {
	type event struct {
		t     int64
		delta int
	}
	var events []event
	for v := 0; v < g.NumTasks(); v++ {
		events = append(events,
			event{g.TopLevel(v), +1},
			event{g.TopLevel(v) + g.Weight(v), -1})
	}
	slices.SortFunc(events, func(a, b event) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		return cmp.Compare(a.delta, b.delta)
	})
	cur, best := 0, 0
	for _, e := range events {
		cur += e.delta
		best = max(best, cur)
	}
	return best
}

// TestMaxWidthMatchesEventSweep holds MaxWidth to the event sweep on random
// taskgen graphs of every family and on layered graphs of equal weights,
// where whole layers share one top level and every window of a layer ends
// exactly when the next layer's windows open.
func TestMaxWidthMatchesEventSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	check := func(g *dag.Graph) {
		t.Helper()
		if got, want := g.MaxWidth(), maxWidthEventSweep(g); got != want {
			t.Fatalf("%s (%d tasks): MaxWidth %d, event sweep %d", g.Name(), g.NumTasks(), got, want)
		}
	}
	for iter := 0; iter < 80; iter++ {
		g, err := taskgen.Member(1+rng.Intn(400), iter%4, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		check(g)
	}
	for iter := 0; iter < 40; iter++ {
		layers, width := 1+rng.Intn(8), 1+rng.Intn(12)
		b := dag.NewBuilder("equal-levels")
		w := int64(1 + rng.Intn(3))
		for l := 0; l < layers; l++ {
			for i := 0; i < width; i++ {
				v := b.AddTask(w)
				// A task left without a predecessor in the layer before
				// starts at 0, so windows of unequal depth overlap.
				if l > 0 && rng.Intn(4) > 0 {
					b.AddEdge((l-1)*width+rng.Intn(width), v)
				}
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		check(g)
	}
}
