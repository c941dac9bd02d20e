package core

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/taskgen"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/homogeneous.golden")

// goldenGraphs is the homogeneous golden corpus: the paper's Fig. 4a
// example, the three Table 2 application graphs and three taskgen members,
// all at coarse grain.
func goldenGraphs(t *testing.T) []*dag.Graph {
	t.Helper()
	gs := []*dag.Graph{buildFig4a(t, coarseWeight)}
	for _, g := range taskgen.Applications() {
		gs = append(gs, taskgen.Coarse.Scale(g))
	}
	for _, n := range []int{24, 64, 160} {
		g, err := taskgen.Member(n, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, taskgen.Coarse.Scale(g))
	}
	return gs
}

// goldenHasher accumulates the fixed-width encoding of the integer and
// float arrays a result carries.
type goldenHasher struct{ h hash.Hash }

func (g goldenHasher) ints32(xs []int32) {
	for _, x := range xs {
		binary.Write(g.h, binary.LittleEndian, x)
	}
}

func (g goldenHasher) ints64(xs ...int64) {
	for _, x := range xs {
		binary.Write(g.h, binary.LittleEndian, x)
	}
}

func (g goldenHasher) floats(xs []float64) {
	for _, x := range xs {
		binary.Write(g.h, binary.LittleEndian, math.Float64bits(x))
	}
}

func (g goldenHasher) schedule(s *sched.Schedule) {
	if s == nil {
		return
	}
	g.ints32(s.Proc)
	g.ints64(s.Start...)
	g.ints64(s.Finish...)
}

func (g goldenHasher) sum() string { return fmt.Sprintf("%x", g.h.Sum(nil))[:32] }

func breakdownFields(b energy.Breakdown) string {
	return fmt.Sprintf("e=%x/%x/%x/%x/%x/%x/%x sd=%d",
		math.Float64bits(b.Active), math.Float64bits(b.Idle), math.Float64bits(b.Sleep),
		math.Float64bits(b.Overhead), math.Float64bits(b.ActiveTime), math.Float64bits(b.IdleTime),
		math.Float64bits(b.SleepTime), b.Shutdowns)
}

func statsFields(s Stats) string {
	return fmt.Sprintf("st=%d/%d", s.SchedulesBuilt, s.LevelsEvaluated)
}

// errorClass names the sentinels err matches, so the golden file pins how
// an infeasible case fails without pinning message text.
func errorClass(err error) string {
	var cls []string
	for _, s := range []struct {
		name string
		err  error
	}{
		{"bad-config", ErrBadConfig},
		{"infeasible", ErrInfeasible},
		{"deadline", energy.ErrDeadline},
		{"backup", sched.ErrBackupInfeasible},
	} {
		if errors.Is(err, s.err) {
			cls = append(cls, s.name)
		}
	}
	if len(cls) == 0 {
		return "err=other"
	}
	return "err=" + strings.Join(cls, "+")
}

// goldenLines runs the homogeneous corpus and renders one line per case.
func goldenLines(t *testing.T) map[string]string {
	t.Helper()
	m := power.Default70nm()
	ctx := context.Background()
	out := make(map[string]string)
	for _, g := range goldenGraphs(t) {
		for _, factor := range []float64{1.2, 2, 4} {
			for _, maxProcs := range []int{0, 3} {
				base := DeadlineFactor(g, m, factor)
				base.MaxProcs = maxProcs
				prefix := fmt.Sprintf("%s/n%d/d%g/p%d", g.Name(), g.NumTasks(), factor, maxProcs)

				type faultCase struct {
					name   string
					faults *FaultConfig
				}
				plain := []faultCase{{"plain", nil}}
				ft := plain
				for _, k := range []int{0, 1} {
					for _, pol := range []FaultPolicy{FaultBackupAnywhere, FaultPrimaryHPBackupLP} {
						ft = append(ft, faultCase{fmt.Sprintf("k%d-%s", k, pol), &FaultConfig{K: k, Policy: pol}})
					}
				}
				for _, approach := range Approaches {
					cases := plain
					if approach != ApproachLimitSF && approach != ApproachLimitMF {
						cases = ft
					}
					for _, fc := range cases {
						cfg := base
						cfg.Faults = fc.faults
						res, err := (&Engine{Config: cfg}).Run(ctx, approach, g)
						key := fmt.Sprintf("%s/%s/%s", prefix, approach, fc.name)
						if err != nil {
							out[key] = errorClass(err)
							continue
						}
						h := goldenHasher{sha256.New()}
						h.schedule(res.Schedule)
						if b := res.Backups; b != nil {
							h.ints32(b.Proc)
							h.ints64(b.Start...)
							h.ints64(b.Finish...)
							h.ints64(b.RecoveryMakespan)
						}
						out[key] = fmt.Sprintf("lvl=%d procs=%d %s %s h=%s",
							res.Level.Index, res.NumProcs, breakdownFields(res.Energy), statsFields(res.Stats), h.sum())
					}
				}
				for _, ps := range []bool{false, true} {
					eng := &Engine{Config: base}
					key := fmt.Sprintf("%s/%s/ps=%t", prefix, ApproachPerTask, ps)
					if res, err := eng.PerTask(ctx, g, ps); err != nil {
						out[key] = errorClass(err)
					} else {
						h := goldenHasher{sha256.New()}
						h.schedule(res.Schedule)
						for _, l := range res.Levels {
							h.ints64(int64(l.Index))
						}
						h.floats(res.StartSec)
						h.floats(res.FinishSec)
						out[key] = fmt.Sprintf("procs=%d %s %s h=%s",
							res.NumProcs, breakdownFields(res.Energy), statsFields(res.Stats), h.sum())
					}
					key = fmt.Sprintf("%s/%s/ps=%t", prefix, ApproachIslands, ps)
					if res, err := eng.Islands(ctx, g, ps); err != nil {
						out[key] = errorClass(err)
					} else {
						h := goldenHasher{sha256.New()}
						h.schedule(res.Schedule)
						for _, l := range res.ProcLevels {
							h.ints64(int64(l.Index))
						}
						h.floats(res.StartSec)
						h.floats(res.FinishSec)
						out[key] = fmt.Sprintf("procs=%d %s %s h=%s",
							res.NumProcs, breakdownFields(res.Energy), statsFields(res.Stats), h.sum())
					}
				}
			}
		}
	}
	return out
}

// TestHomogeneousGolden pins every homogeneous (Config.Model) result bit
// for bit: energy breakdown fields as float64 bits, the operating level,
// processor count, search effort, and a SHA-256 over the schedule and the
// backup plan, for every approach and extension across the corpus. It is
// the oracle the single platform evaluation path is held to. Regenerate
// with `go test ./internal/core -run TestHomogeneousGolden -update` only
// for an intentional behaviour change.
func TestHomogeneousGolden(t *testing.T) {
	got := goldenLines(t)
	goldenPath := filepath.Join("testdata", "homogeneous.golden")
	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		sb.WriteString("# homogeneous results, bit for bit — regenerate with: go test ./internal/core -run TestHomogeneousGolden -update\n")
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
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
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[key] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, corpus produced %d", len(want), len(got))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: missing from corpus", k)
		} else if g != w {
			t.Errorf("%s:\n got %s\nwant %s", k, g, w)
		}
	}
}
