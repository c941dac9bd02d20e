package sched_test

import (
	"errors"
	"strings"
	"testing"

	"lamps/internal/sched"
	"lamps/internal/taskgen"
	"lamps/internal/verify"
)

// FuzzReadJSON feeds arbitrary bytes to the schedule deserialiser: it must
// never panic, and every schedule it restores is well-formed enough for the
// independent verifier to judge — verify.Schedule accepts it or reports an
// ErrViolation, and never panics or fails any other way.
func FuzzReadJSON(f *testing.F) {
	f.Add(`{"name":"x","num_procs":1,"makespan_cycles":5,"tasks":[{"id":0,"weight_cycles":5,"proc":0,"start_cycles":0,"finish_cycles":5}]}`)
	f.Add(`{"name":"","num_procs":2,"makespan_cycles":0,"tasks":[]}`)
	f.Add(`{`)
	f.Add(`[]`)
	f.Add(`{"tasks":[{"id":0,"preds":[0]}]}`)
	f.Add(`{"name":"x","num_procs":1,"makespan_cycles":8,"tasks":[{"id":0,"weight_cycles":5,"proc":0,"start_cycles":0,"finish_cycles":8}]}`)
	f.Add(`{"name":"x","num_procs":1000000000000000000,"makespan_cycles":5,"tasks":[{"id":0,"weight_cycles":5,"proc":0,"start_cycles":0,"finish_cycles":5}]}`)
	f.Fuzz(func(t *testing.T, in string) {
		s, err := sched.ReadJSON(strings.NewReader(in))
		if err != nil {
			return
		}
		if verr := verify.Schedule(s.Graph, s); verr != nil && !errors.Is(verr, verify.ErrViolation) {
			t.Fatalf("restored schedule cannot be judged: %v", verr)
		}
	})
}

// FuzzListScheduleReleases drives the scheduling kernel with arbitrary
// release times. The seed corpus deliberately includes non-empty release
// data so the pending-heap admission path — tasks whose predecessors have
// finished but whose release time has not arrived — is exercised from the
// very first run, not only after the fuzzer mutates its way there. For every
// input the schedule must pass the verifier with its release times and
// keep the finish-order contract, and a reused Scheduler scratch must
// reproduce the one-shot result exactly.
func FuzzListScheduleReleases(f *testing.F) {
	f.Add(uint16(1), uint8(0), int64(1), uint8(1), []byte(nil))
	f.Add(uint16(12), uint8(0), int64(7), uint8(3), []byte{5, 0, 200, 17, 42})
	f.Add(uint16(30), uint8(1), int64(99), uint8(2), []byte{255, 1, 1, 90})
	f.Add(uint16(50), uint8(2), int64(1234), uint8(4), []byte{10, 10, 10, 10, 10, 10, 10, 10})
	f.Add(uint16(25), uint8(3), int64(-5), uint8(8), []byte{0, 128, 3, 77, 200, 1})
	f.Fuzz(func(t *testing.T, rawSize uint16, rawVariant uint8, seed int64, rawProcs uint8, relData []byte) {
		size := 1 + int(rawSize)%100
		g, err := taskgen.Member(size, int(rawVariant)%4, seed)
		if err != nil {
			return // generator rejects some (size, variant) combinations
		}
		n := g.NumTasks()
		nprocs := 1 + int(rawProcs)%16
		prio := sched.EDFPriorities(g, 0)
		var release []int64
		if len(relData) > 0 {
			release = make([]int64, n)
			for v := range release {
				release[v] = int64(relData[v%len(relData)]) * 31
			}
		}
		s, err := sched.ListScheduleReleases(g, nprocs, prio, release)
		if err != nil {
			t.Fatalf("ListScheduleReleases: %v", err)
		}
		if err := verify.ScheduleWithin(g, s, verify.ScheduleOptions{Release: release}); err != nil {
			t.Fatal(err)
		}
		if err := checkFinishOrder(s); err != nil {
			t.Fatal(err)
		}
		// A reused kernel must be deterministic and identical to the one-shot
		// wrapper, including the per-processor dispatch lists.
		var k sched.Scheduler
		var r sched.Schedule
		for round := 0; round < 2; round++ {
			if err := k.ScheduleInto(&r, g, nprocs, prio, release); err != nil {
				t.Fatalf("ScheduleInto round %d: %v", round, err)
			}
			if r.Makespan != s.Makespan {
				t.Fatalf("round %d: makespan %d != %d", round, r.Makespan, s.Makespan)
			}
			for v := 0; v < n; v++ {
				if r.Proc[v] != s.Proc[v] || r.Start[v] != s.Start[v] || r.Finish[v] != s.Finish[v] {
					t.Fatalf("round %d: task %d diverges from one-shot result", round, v)
				}
			}
			for p := 0; p < nprocs; p++ {
				a, b := r.TasksOn(p), s.TasksOn(p)
				if len(a) != len(b) {
					t.Fatalf("round %d: proc %d list length diverges", round, p)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("round %d: proc %d slot %d diverges", round, p, i)
					}
				}
			}
		}
	})
}
