// Command lampsbench is the end-to-end benchmark of lampsd. It builds inputs
// from a seed, starts a real lampsd with its deployment flags (defaults plus
// -store-dir in a scratch directory), drives it over loopback HTTP in rounds
// that alternate a closed-loop and an open-loop segment, checks every output,
// and prints the end-to-end metrics. With -trace 1 it instead runs the
// per-layer ladder: traced HTTP requests, then the same problems replayed
// in-process through the handler, dag, graphhash, core, sched, energy and
// store layers.
//
//	lampsbench -lampsd .bench_build/lampsd -workload solve-plain -seed 1 -seconds 50 -trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics with their units. Human-readable detail (sample
// counts, shape guards, the run's stamp) precedes it. A run whose workload
// shape drifts, or whose lampsd fails to start or drain cleanly, exits 1
// without a result.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// config is the parsed command line.
type config struct {
	workload  workload
	seed      int64
	seconds   float64
	trace     bool
	lampsdBin string
	workDir   string // scratch space inside the checkout
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var name string
	var trace int
	flag.StringVar(&name, "workload", "", "workload name: solve-plain or solve-ft")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed sends the same requests")
	flag.Float64Var(&cfg.seconds, "seconds", 50, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end run")
	flag.StringVar(&cfg.lampsdBin, "lampsd", ".bench_build/lampsd", "lampsd binary built from this tree")
	flag.StringVar(&cfg.workDir, "work", ".bench_build/tmp", "scratch directory for stores and traces")
	flag.Parse()
	w, ok := workloads[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "lampsbench: unknown workload %q\n", name)
		os.Exit(2)
	}
	cfg.workload, cfg.trace = w, trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lampsbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lampsbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one benchmark run in a fresh scratch directory.
func run(ctx context.Context, cfg config) (*result, error) {
	printStamp(cfg)
	pf, err := loadPlatform(platformFile)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(cfg.lampsdBin); err != nil {
		return nil, fmt.Errorf("lampsd binary: %w", err)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, cfg.workload.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{cfg: cfg, pf: pf, dir: dir}
	if cfg.trace {
		return b.traced(ctx)
	}
	return b.endToEnd(ctx)
}

// printStamp records what produced the numbers.
func printStamp(cfg config) {
	stamp := map[string]any{
		"workload":   cfg.workload.name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"multicore":  runtime.GOMAXPROCS(0) > 1,
		"go":         runtime.Version(),
		"commit":     commit(),
	}
	b, _ := json.Marshal(stamp)
	fmt.Println("stamp:", string(b))
}

// commit identifies the code under test: the git revision when the tree is
// a clean repository; otherwise a digest of every Go source file and go.mod,
// prefixed with the revision and "-dirty" when uncommitted changes exist.
func commit() string {
	rev := ""
	if _, err := os.Stat(".git"); err == nil {
		out, err := exec.Command("git", "rev-parse", "HEAD").Output()
		if err == nil {
			rev = strings.TrimSpace(string(out))
		}
		status, err := exec.Command("git", "status", "--porcelain").Output()
		if rev != "" && err == nil && len(status) == 0 {
			return rev
		}
		if rev != "" {
			rev += "-dirty+"
		}
	}
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return rev + "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// Phase shares of a run's measured seconds.
const (
	closedShare = 0.3 // closed-loop phase (end-to-end run)
	openShare   = 0.7 // open-loop phase: the longer one, as it has fewer requests a second
	rounds      = 10  // closed/open segment pairs an end-to-end run alternates
	minSamples  = 1000
	setupRuns   = 21 // lampsd start-ups whose median is setup_s
	checkEvery  = 40
)
