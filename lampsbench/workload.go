package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"sync"

	"lamps/internal/core"
	"lamps/internal/dag"
	"lamps/internal/power"
	"lamps/internal/taskgen"
	"lamps/internal/workpool"
)

// conns is how many connections the benchmark opens to lampsd, in both
// phases: one per core of the two-core machines it is sized for.
const conns = 2

// workload is one traffic mix: its fixed open-loop arrival rate and the
// request stream it sends.
type workload struct {
	name     string
	openRate float64 // open-loop arrivals per second, well below the closed-loop throughput
}

// workloads are the traffic mixes the benchmark knows, by name. The reasons
// for each are recorded in BENCHMARK.json.
var workloads = map[string]workload{
	"solve-plain": {name: "solve-plain", openRate: 200},
	"solve-ft":    {name: "solve-ft", openRate: 60},
}

// Graph kinds: taskgen sizes (coarse-scaled seeded members) and the three
// Table 2 application profiles regenerated from a seed.
var (
	plainKinds = []string{"24", "64", "160", "1000", "fpppp", "robot", "sparse"}
	sweepKinds = []string{"64", "160", "robot", "sparse", "fpppp"}
	approaches = []string{"lamps", "lamps+ps", "ss+ps"}
)

// Problem shape constants.
const (
	membersPerKind  = 4   // corpus graphs per kind, one per taskgen family
	corpusSeed      = 1   // seed of the graph corpus, fixed so every run schedules the same graphs
	heavyTasks      = 512 // lampsd's heavy admission class threshold
	sweepFactors    = 8   // deadline factors per sweep
	platformFactor  = 4.0 // lowest deadline factor on the 8-processor platform
	plainFactor     = 1.5 // lowest deadline factor of a fault-free problem
	ftFactor        = 3.0 // lowest deadline factor of a K=1 problem on the default machine
	platformMachine = "lp6hp2"
	// platformFile holds the lp and hp class models of the 8-processor
	// machine, relative to the repository root the benchmark runs from.
	platformFile = "examples/platforms/lp3hp1.json"
)

var sweepProcs = []int{0, 8}

// graphInput is one generated task graph with its pre-encoded request form.
type graphInput struct {
	kind string
	g    *dag.Graph
	json []byte // {"tasks":[...],"edges":[...]}
}

// genGraph builds the graph of the given kind from seed: the taskgen group
// member of the given family (0-3) for numeric kinds, the Table 2 profile
// generator otherwise; both scaled to coarse-grain cycles.
func genGraph(kind string, family int, seed int64) (*graphInput, error) {
	var g *dag.Graph
	var err error
	if n, aerr := strconv.Atoi(kind); aerr == nil {
		g, err = taskgen.Member(n, family, seed)
	} else {
		var p *taskgen.Profile
		for i := range taskgen.Table2Profiles {
			if taskgen.Table2Profiles[i].Name == kind {
				p = &taskgen.Table2Profiles[i]
			}
		}
		if p == nil {
			return nil, fmt.Errorf("unknown graph kind %q", kind)
		}
		g, err = p.Generate(seed)
	}
	if err != nil {
		return nil, fmt.Errorf("generating %s graph: %w", kind, err)
	}
	g = taskgen.Coarse.Scale(g)
	return &graphInput{kind: kind, g: g, json: graphJSON(g)}, nil
}

// graphJSON encodes g in the request's inline graph form, without a name.
func graphJSON(g *dag.Graph) []byte {
	var b bytes.Buffer
	b.WriteString(`{"tasks":[`)
	for v := 0; v < g.NumTasks(); v++ {
		if v > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"weight_cycles":%d}`, g.Weight(v))
	}
	b.WriteString(`],"edges":[`)
	first := true
	for u := 0; u < g.NumTasks(); u++ {
		for _, v := range g.Succs(u) {
			if !first {
				b.WriteByte(',')
			}
			first = false
			fmt.Fprintf(&b, "[%d,%d]", u, v)
		}
	}
	b.WriteString("]}")
	return b.Bytes()
}

// problem is one /v1/schedule problem, or one /v1/sweep grid when factors
// is set.
type problem struct {
	graph    *graphInput
	approach string    // API name; empty for a sweep
	machine  string    // "default" or platformMachine
	k        int       // tolerated faults
	policy   string    // fault policy, empty = server default
	factor   float64   // deadline factor of a single-shot problem
	factors  []float64 // sweep deadline axis
}

// combo names the size × approach × machine × K × policy class a problem
// belongs to; output checks cover every combo.
func (p *problem) combo() string {
	return fmt.Sprintf("%s/%s/%s/k%d/%s", p.graph.kind, p.approach, p.machine, p.k, p.policy)
}

// heavy reports whether lampsd classes the problem as heavy.
func (p *problem) heavy() bool { return p.factors == nil && p.graph.g.NumTasks() >= heavyTasks }

// cells is the number of scheduling problems the request carries.
func (p *problem) cells() int {
	if p.factors == nil {
		return 1
	}
	return len(approaches) * len(p.factors) * len(sweepProcs)
}

func (p *problem) path() string {
	if p.factors != nil {
		return "/v1/sweep"
	}
	return "/v1/schedule"
}

// body encodes the request; platformJSON is the compact request platform
// block used when the problem runs on the 8-processor platform.
func (p *problem) body(platformJSON []byte) []byte {
	b := make([]byte, 0, len(p.graph.json)+len(platformJSON)+256)
	if p.factors != nil {
		b = append(b, `{"approaches":["lamps","lamps+ps","ss+ps"],"deadline_factors":[`...)
		for i, f := range p.factors {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, f, 'g', -1, 64)
		}
		b = append(b, `],"max_procs":[`...)
		for i, mp := range sweepProcs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(mp), 10)
		}
		b = append(b, ']')
	} else {
		b = append(b, `{"approach":"`...)
		b = append(b, p.approach...)
		b = append(b, `","deadline_factor":`...)
		b = strconv.AppendFloat(b, p.factor, 'g', -1, 64)
	}
	if p.k > 0 {
		b = append(b, `,"faults":{"k":`...)
		b = strconv.AppendInt(b, int64(p.k), 10)
		if p.policy != "" {
			b = append(b, `,"policy":"`...)
			b = append(b, p.policy...)
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	if p.machine == platformMachine {
		b = append(b, `,"platform":`...)
		b = append(b, platformJSON...)
	}
	b = append(b, `,"graph":`...)
	b = append(b, p.graph.json...)
	return append(b, "}\n"...)
}

// request is one generated request of a stream.
type request struct {
	seq  int // position in the stream
	prob *problem
	body []byte
}

// generator produces a workload's deterministic request stream: the same
// seed yields the same sequence of request bodies. Safe for concurrent use;
// concurrent callers share the one sequence.
type generator struct {
	platform *power.Platform
	pfJSON   []byte

	mu    sync.Mutex
	rng   *rand.Rand
	seq   int
	slots []slot // one block of combo slots
	order []int  // current block's slot permutation
	block int    // blocks started so far
}

// slot is one entry of a balanced block: every block visits each slot once,
// in a seeded order, so workload shares hold exactly per block.
type slot struct {
	kind, approach, machine string
	k                       int
	policy                  string
	members                 []*graphInput // corpus graphs feasible at the slot's lowest factor
	offset                  int           // seeded start of the slot's member rotation
}

// newGenerator builds the stream for w from seed. The platform is the
// 8-processor 6×lp + 2×hp machine built from the lp3hp1 class models.
func newGenerator(w workload, seed int64, platform *power.Platform) (*generator, error) {
	var b, c bytes.Buffer
	if err := platform.WriteJSON(&b); err != nil {
		return nil, err
	}
	if err := json.Compact(&c, b.Bytes()); err != nil {
		return nil, err
	}
	gen := &generator{platform: platform, pfJSON: c.Bytes(), rng: rand.New(rand.NewSource(seed))}
	switch {
	case w.name == "solve-ft":
		for _, kind := range plainKinds {
			for _, a := range approaches {
				// Half the requests on the default machine, the other half
				// on the platform, alternating between the two policies.
				gen.slots = append(gen.slots,
					slot{kind: kind, approach: a, machine: "default", k: 1},
					slot{kind: kind, approach: a, machine: "default", k: 1},
					slot{kind: kind, approach: a, machine: platformMachine, k: 1, policy: "backup-anywhere"},
					slot{kind: kind, approach: a, machine: platformMachine, k: 1, policy: "primary-hp-backup-lp"})
			}
		}
	default:
		for _, kind := range plainKinds {
			for _, a := range approaches {
				gen.slots = append(gen.slots, slot{kind: kind, approach: a, machine: "default"})
			}
		}
	}
	// The graph corpus is the same for every seed: the seed varies the
	// problems posed on it (deadlines, member rotation, order), so runs with
	// different seeds differ in their digests but not in the graphs whose
	// size and shape set most of a request's cost.
	pools := map[string][]*graphInput{}
	for ki, kind := range plainKinds {
		for m := 0; m < membersPerKind; m++ {
			gi, err := genGraph(kind, m, corpusSeed*7919+int64(ki*membersPerKind+m))
			if err != nil {
				return nil, err
			}
			pools[kind] = append(pools[kind], gi)
		}
	}
	if err := gen.dropInfeasible(pools); err != nil {
		return nil, err
	}
	for i := range gen.slots {
		gen.slots[i].offset = gen.rng.Intn(len(gen.slots[i].members))
	}
	return gen, nil
}

// next returns the stream's next request: the next slot of the current
// balanced block, on the slot's next corpus graph, with a fresh seeded
// deadline factor so every problem has a new digest.
func (gen *generator) next() *request {
	gen.mu.Lock()
	defer gen.mu.Unlock()
	if len(gen.order) == 0 {
		gen.order = gen.rng.Perm(len(gen.slots))
		gen.block++
	}
	s := &gen.slots[gen.order[0]]
	gen.order = gen.order[1:]
	// Members rotate per block, so every run sends each graph equally often.
	g := s.members[(gen.block+s.offset)%len(s.members)]
	p := &problem{graph: g, approach: s.approach, machine: s.machine, k: s.k, policy: s.policy}
	p.factor = gen.floor(p) * (1 + 0.6*gen.rng.Float64())
	r := &request{seq: gen.seq, prob: p, body: p.body(gen.pfJSON)}
	gen.seq++
	return r
}

// floor is the lowest deadline factor drawn for p's graph, machine and K.
func (gen *generator) floor(p *problem) float64 {
	switch {
	case p.machine == platformMachine:
		return platformFloor(p.graph.g, gen.platform)
	case p.k > 0:
		return ftFactor
	}
	return plainFactor
}

// dropInfeasible fills every slot with the pool graphs whose problem is
// feasible at the slot's lowest deadline factor (so, the deadline only
// growing from there, at every factor drawn), and fails when a slot keeps
// none: every combination must stay covered.
func (gen *generator) dropInfeasible(pools map[string][]*graphInput) error {
	pool := workpool.NewPool(0)
	dropped := 0
	for i := range gen.slots {
		s := &gen.slots[i]
		for _, g := range pools[s.kind] {
			p := &problem{graph: g, approach: s.approach, machine: s.machine, k: s.k, policy: s.policy}
			p.factor = gen.floor(p)
			eng := core.Engine{Config: p.config(gen.platform), Pool: pool}
			_, err := eng.Run(context.Background(), canonical[p.approach], g.g)
			switch {
			case err == nil:
				s.members = append(s.members, g)
			case errors.Is(err, core.ErrInfeasible):
				dropped++
			default:
				return fmt.Errorf("set-up run of %s: %w", p.combo(), err)
			}
		}
		if len(s.members) == 0 {
			return fmt.Errorf("no feasible graph left for %s", s.kind+"/"+s.approach+"/"+s.machine+"/"+s.policy)
		}
	}
	if dropped > 0 {
		fmt.Printf("set-up: dropped %d infeasible slot graphs\n", dropped)
	}
	return nil
}

// sweepOver builds a /v1/sweep grid over gi: the three approaches, eight
// deadline factors and two processor caps. The deadline axis starts at a
// floor under which the 8-processor cap could not meet the deadline.
func sweepOver(gi *graphInput, rng *rand.Rand) *problem {
	g := gi.g
	lo := math.Max(plainFactor, 1.25*g.Parallelism()/float64(sweepProcs[1]))
	factors := make([]float64, sweepFactors)
	for i := range factors {
		factors[i] = lo * (1 + 0.25*float64(i) + 0.2*rng.Float64())
	}
	return &problem{graph: gi, machine: "default", factors: factors}
}

// platformFloor is the lowest deadline factor drawn for g on the platform:
// at least platformFactor, and enough that the platform's summed capacity,
// with a backup slot reserved beside every task, fits the work.
func platformFloor(g *dag.Graph, pf *power.Platform) float64 {
	capacity := 0.0
	for p := 0; p < pf.NumProcs(); p++ {
		capacity += pf.ModelOf(p).FMax() / pf.RefFMax()
	}
	need := 4 * float64(g.TotalWork()) / float64(g.CriticalPathLength()) / capacity
	return math.Max(platformFactor, need)
}

// loadPlatform builds the 8-processor 6×lp + 2×hp platform from the class
// models of the committed lp3hp1 example.
func loadPlatform(path string) (*power.Platform, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base, err := power.LoadPlatformJSON(f)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	classes := make([]power.CoreClass, base.NumClasses())
	lp, hp := -1, -1
	for c := range classes {
		classes[c] = base.Class(c)
		switch classes[c].Name {
		case "lp":
			lp = c
		case "hp":
			hp = c
		}
	}
	if lp < 0 || hp < 0 {
		return nil, fmt.Errorf("%s: want classes lp and hp", path)
	}
	return power.NewPlatform(classes, []int{lp, lp, lp, lp, lp, lp, hp, hp})
}
