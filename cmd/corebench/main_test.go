package main

import (
	"context"
	"strings"
	"testing"

	"lamps/internal/core"
	"lamps/internal/power"
	"lamps/internal/taskgen"
	"lamps/internal/workpool"
)

// TestBatchWorkloadMix pins the RunBatch case's batch: 64 requests cycling
// an 18-request mix of three sizes and three approaches, built the same way
// every time, with the graph size changing between neighbours.
func TestBatchWorkloadMix(t *testing.T) {
	a, err := batchWorkload(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := batchWorkload(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 64 || len(b) != 64 {
		t.Fatalf("batch lengths %d and %d, want 64", len(a), len(b))
	}
	sizes := map[int]bool{}
	approaches := map[string]bool{}
	varied := false
	for i := range a {
		if a[i].Approach != b[i].Approach || a[i].Graph.Name() != b[i].Graph.Name() ||
			a[i].Config.Deadline != b[i].Config.Deadline {
			t.Fatalf("request %d differs between builds: %s/%s vs %s/%s",
				i, a[i].Approach, a[i].Graph.Name(), b[i].Approach, b[i].Graph.Name())
		}
		if m := a[i%18]; a[i].Approach != m.Approach || a[i].Graph != m.Graph {
			t.Fatalf("request %d does not repeat request %d of the 18-request mix", i, i%18)
		}
		sizes[a[i].Graph.NumTasks()] = true
		approaches[a[i].Approach] = true
		if i > 0 && a[i].Graph.NumTasks() != a[i-1].Graph.NumTasks() {
			varied = true
		}
	}
	if len(sizes) != 3 || len(approaches) != 3 {
		t.Errorf("batch spans %d sizes and %d approaches, want 3 and 3", len(sizes), len(approaches))
	}
	if !varied {
		t.Error("batch never changes graph size between consecutive requests")
	}
}

// TestBatchCaseIdentityCheck runs the RunBatch case on the real batch and
// requires it to pass, then perturbs one parallel result and requires the
// identity check to name that slot.
func TestBatchCaseIdentityCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole batch several times")
	}
	batch, err := batchWorkload(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := batchCase(batch, 2, workpool.NewPool(2), 1)
	if err != nil {
		t.Fatalf("batchCase: %v", err)
	}
	if c.Tasks == 0 || c.EnergyJ <= 0 || c.Schedules == 0 || c.SerialMs <= 0 || c.ParallelMs <= 0 {
		t.Errorf("implausible case report %+v", c)
	}

	ctx := context.Background()
	serial := (&core.Engine{Pool: workpool.NewPool(1)}).RunBatch(ctx, batch)
	parallel := (&core.Engine{Pool: workpool.NewPool(2)}).RunBatch(ctx, batch)
	if err := sameBatch(batch, serial, parallel); err != nil {
		t.Fatalf("identical runs: %v", err)
	}
	perturbed := *parallel[5].Result
	perturbed.Energy.Active *= 1 + 1e-15
	parallel[5].Result = &perturbed
	if err := sameBatch(batch, serial, parallel); err == nil || !strings.Contains(err.Error(), "slot 5") {
		t.Fatalf("perturbed slot 5: err %v, want a slot 5 divergence", err)
	}
}

// TestBatchCaseRejectsErrors requires the RunBatch case to fail, rather
// than time, a batch whose requests error.
func TestBatchCaseRejectsErrors(t *testing.T) {
	g, err := taskgen.Member(24, 0, 24000)
	if err != nil {
		t.Fatal(err)
	}
	g = taskgen.Coarse.Scale(g)
	infeasible := []core.BatchRequest{{
		Approach: core.ApproachLAMPS,
		Graph:    g,
		Config:   core.DeadlineFactor(g, power.Default70nm(), 0.01),
	}}
	if _, err := batchCase(infeasible, 0.01, workpool.NewPool(2), 1); err == nil {
		t.Fatal("batchCase timed a batch whose every request fails")
	}
}

// TestMedian: the RunBatch case reports the middle value of its samples.
func TestMedian(t *testing.T) {
	if got := median([]float64{1.08, 2.02, 0.99, 1.95, 2.10, 1.87, 2.01}); got != 1.95 {
		t.Errorf("median = %v, want 1.95", got)
	}
}
