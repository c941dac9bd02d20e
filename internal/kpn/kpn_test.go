package kpn

import (
	"errors"
	"testing"

	"lamps/internal/sched"
	"lamps/internal/verify"
)

func TestFig1Unroll(t *testing.T) {
	n := Fig1Example(10, 20, 30)
	const copies = 3
	g, dl, err := n.Unroll(copies, 100, 50)
	if err != nil {
		t.Fatalf("Unroll: %v", err)
	}
	if g.NumTasks() != copies*3 {
		t.Fatalf("NumTasks = %d, want %d", g.NumTasks(), copies*3)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Edges per the paper's Fig. 1b construction:
	//   self edges: 3 processes x 2 = 6
	//   T1 -> T2 per copy: 3
	//   T3 -> T2 per copy: 3
	//   T2 -> T3 delayed:  2 (copies 0->1, 1->2)
	if g.NumEdges() != 6+3+3+2 {
		t.Errorf("NumEdges = %d, want 14", g.NumEdges())
	}
	// Deadlines: only T2 copies carry one, spaced by the period.
	id := func(proc, copy int) int { return copy*3 + proc }
	for c := 0; c < copies; c++ {
		if got, want := dl[id(1, c)], int64(100+50*c); got != want {
			t.Errorf("T2#%d deadline = %d, want %d", c, got, want)
		}
		for _, p := range []int{0, 2} {
			if dl[id(p, c)] != sched.NoDeadline {
				t.Errorf("process %d copy %d has unexpected deadline", p, c)
			}
		}
	}
	// Labels carry the copy index.
	if g.Label(id(0, 1)) != "T1#1" {
		t.Errorf("label = %q", g.Label(id(0, 1)))
	}
}

func TestUnrollSchedulable(t *testing.T) {
	n := Fig1Example(10, 20, 30)
	g, dl, err := n.Unroll(5, 1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListEDFWithDeadlines(g, 2, dl)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Schedule(g, s); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
	// Every deadline is loose enough here; all output tasks must meet them.
	for v, d := range dl {
		if d != sched.NoDeadline && s.Finish[v] > d {
			t.Errorf("task %d finishes at %d after deadline %d", v, s.Finish[v], d)
		}
	}
}

func TestUnrollCopiesOne(t *testing.T) {
	n := Fig1Example(5, 5, 5)
	g, _, err := n.Unroll(1, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 3 {
		t.Errorf("NumTasks = %d", g.NumTasks())
	}
	// Single copy: delayed channel contributes no edge; self edges absent.
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2 (T1->T2, T3->T2)", g.NumEdges())
	}
}

func TestUnrollErrors(t *testing.T) {
	good := Fig1Example(1, 1, 1)
	if _, _, err := good.Unroll(0, 10, 10); !errors.Is(err, ErrBadUnroll) {
		t.Errorf("copies=0 err = %v", err)
	}
	if _, _, err := good.Unroll(2, 0, 10); !errors.Is(err, ErrBadUnroll) {
		t.Errorf("deadline=0 err = %v", err)
	}
	if _, _, err := good.Unroll(2, 10, -1); !errors.Is(err, ErrBadUnroll) {
		t.Errorf("period<0 err = %v", err)
	}

	empty := New()
	if _, _, err := empty.Unroll(2, 10, 10); !errors.Is(err, ErrBadProcess) {
		t.Errorf("empty network err = %v", err)
	}

	zeroCycles := New()
	zeroCycles.AddProcess(Process{Name: "bad", Cycles: 0})
	if _, _, err := zeroCycles.Unroll(2, 10, 10); !errors.Is(err, ErrBadProcess) {
		t.Errorf("zero cycles err = %v", err)
	}

	badChan := New()
	p := badChan.AddProcess(Process{Name: "p", Cycles: 1})
	badChan.AddChannel(Channel{From: p, To: 99})
	if _, _, err := badChan.Unroll(2, 10, 10); !errors.Is(err, ErrBadChannel) {
		t.Errorf("bad endpoint err = %v", err)
	}

	negDelay := New()
	a := negDelay.AddProcess(Process{Name: "a", Cycles: 1})
	bb := negDelay.AddProcess(Process{Name: "b", Cycles: 1})
	negDelay.AddChannel(Channel{From: a, To: bb, Delay: -1})
	if _, _, err := negDelay.Unroll(2, 10, 10); !errors.Is(err, ErrBadChannel) {
		t.Errorf("negative delay err = %v", err)
	}

	selfLoop := New()
	c := selfLoop.AddProcess(Process{Name: "c", Cycles: 1})
	selfLoop.AddChannel(Channel{From: c, To: c, Delay: 0})
	if _, _, err := selfLoop.Unroll(2, 10, 10); !errors.Is(err, ErrBadChannel) {
		t.Errorf("self loop err = %v", err)
	}
}

func TestSelfChannelWithDelayIsFine(t *testing.T) {
	// A process feeding itself with one token of delay is the same as the
	// implicit self edge; it must be accepted and produce a valid DAG. The
	// duplicate of the implicit copy-to-copy edge is the only subtlety.
	n := New()
	a := n.AddProcess(Process{Name: "a", Cycles: 2, Output: true})
	bpid := n.AddProcess(Process{Name: "b", Cycles: 3})
	n.AddChannel(Channel{From: a, To: bpid, Delay: 0})
	n.AddChannel(Channel{From: bpid, To: a, Delay: 2})
	g, _, err := n.Unroll(4, 100, 10)
	if err != nil {
		t.Fatalf("Unroll: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if g.NumTasks() != 8 {
		t.Errorf("NumTasks = %d", g.NumTasks())
	}
}

func TestNumProcesses(t *testing.T) {
	n := Fig1Example(1, 2, 3)
	if n.NumProcesses() != 3 {
		t.Errorf("NumProcesses = %d", n.NumProcesses())
	}
}
