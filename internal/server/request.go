package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"

	"lamps/internal/core"
	"lamps/internal/dag"
	"lamps/internal/graphhash"
	"lamps/internal/power"
	"lamps/internal/stg"
)

// scheduleRequest is the body of POST /schedule. Exactly one of Graph and
// STG supplies the task graph, and exactly one of DeadlineSec and
// DeadlineFactor supplies the deadline.
type scheduleRequest struct {
	// Approach selects the heuristic. Both the short forms of the API
	// ("ss", "lamps", "ss+ps", "lamps+ps", "limit-sf", "limit-mf") and the
	// paper's names ("S&S", "LAMPS+PS", …) are accepted, case-insensitively.
	Approach string `json:"approach"`

	// Graph is the task graph in inline JSON form.
	Graph *graphSpec `json:"graph,omitempty"`
	// STG is the task graph in Standard Task Graph Set text format.
	STG string `json:"stg,omitempty"`

	// DeadlineSec is the absolute deadline in seconds.
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
	// DeadlineFactor expresses the deadline as a multiple of the graph's
	// critical path length at maximum frequency, the parametric form of the
	// paper's evaluation.
	DeadlineFactor float64 `json:"deadline_factor,omitempty"`

	// MaxProcs optionally caps the processor count (0 = graph parallelism).
	MaxProcs int `json:"max_procs,omitempty"`

	// Platform optionally describes a heterogeneous machine for this request
	// in the power.Platform JSON form ({"classes": [{"name", "model"}...],
	// "procs": ["name"...]}); it overrides the server's default platform and
	// model. Omitted: the server's platform (lampsd -platform) or, failing
	// that, its single power model applies.
	Platform json.RawMessage `json:"platform,omitempty"`

	// Faults optionally requests k-fault tolerance: the schedule additionally
	// reserves a backup slot for every task and the deadline must cover the
	// worst-case recovery. {"k": 0} (or omitting the block) is exactly the
	// non-tolerant problem — same digest, same bytes.
	Faults *faultsSpec `json:"faults,omitempty"`
}

// faultsSpec is the fault-tolerance request block shared by /v1/schedule,
// each /v1/batch line and /v1/sweep.
type faultsSpec struct {
	// K is the number of transient faults to tolerate (0 = off).
	K int `json:"k"`
	// Policy selects backup placement: "backup-anywhere" (default) or
	// "primary-hp-backup-lp".
	Policy string `json:"policy,omitempty"`
}

// faultPolicyAliases maps lowercase API names onto canonical policies.
var faultPolicyAliases = map[string]core.FaultPolicy{
	"":                     core.FaultBackupAnywhere,
	"backup-anywhere":      core.FaultBackupAnywhere,
	"primary-hp-backup-lp": core.FaultPrimaryHPBackupLP,
}

// canonicalFaultPolicy resolves a fault policy name or returns a 400 error.
func canonicalFaultPolicy(name string) (core.FaultPolicy, error) {
	if p, ok := faultPolicyAliases[strings.ToLower(strings.TrimSpace(name))]; ok {
		return p, nil
	}
	return "", badRequest("unknown fault policy %q (one of: backup-anywhere, primary-hp-backup-lp)", name)
}

// faultConfig validates a faults block and resolves it onto the core form,
// the one place /v1/schedule, /v1/batch lines and /v1/sweep do either: nil
// when fault tolerance is off (no block, or k 0), otherwise K plus the
// canonical policy (never empty, so digests are stable across request
// spellings). A negative k or an unknown policy is a 400 whatever k is.
func faultConfig(spec *faultsSpec) (*core.FaultConfig, error) {
	if spec == nil {
		return nil, nil
	}
	if spec.K < 0 {
		return nil, badRequest("faults.k must be non-negative, got %d", spec.K)
	}
	policy, err := canonicalFaultPolicy(spec.Policy)
	if err != nil || spec.K == 0 {
		return nil, err
	}
	return &core.FaultConfig{K: spec.K, Policy: policy}, nil
}

// graphSpec is the inline JSON task-graph representation.
type graphSpec struct {
	Name  string     `json:"name,omitempty"`
	Tasks []taskSpec `json:"tasks"`
	Edges []edgeSpec `json:"edges,omitempty"`
}

// edgeSpec is one dependence edge, [from, to]. encoding/json would
// silently truncate a longer array into a bare [2]int and zero-fill a
// shorter one; edgeSpec rejects both with an UnmarshalTypeError, which
// keeps a bad edge a per-line error on /v1/batch.
type edgeSpec [2]int

func (e *edgeSpec) UnmarshalJSON(data []byte) error {
	if s := (scanner{b: data}); s.edge(e) {
		s.space()
		if s.i == len(data) {
			return nil
		}
	}
	var ends []int
	if err := json.Unmarshal(data, &ends); err != nil {
		return err
	}
	if ends == nil {
		return nil // null is a no-op, as encoding/json treats it for any non-pointer
	}
	if len(ends) != 2 {
		return &json.UnmarshalTypeError{
			Value: fmt.Sprintf("array of %d integers", len(ends)),
			Type:  reflect.TypeFor[edgeSpec](),
		}
	}
	*e = edgeSpec{ends[0], ends[1]}
	return nil
}

type taskSpec struct {
	WeightCycles int64  `json:"weight_cycles"`
	Label        string `json:"label,omitempty"`
}

// approachAliases maps lowercase API names onto canonical approach names.
var approachAliases = map[string]string{
	"ss":       core.ApproachSS,
	"s&s":      core.ApproachSS,
	"lamps":    core.ApproachLAMPS,
	"ss+ps":    core.ApproachSSPS,
	"s&s+ps":   core.ApproachSSPS,
	"lamps+ps": core.ApproachLAMPSPS,
	"limit-sf": core.ApproachLimitSF,
	"limit-mf": core.ApproachLimitMF,
}

// canonicalApproach resolves an approach name or returns a 400 error.
func canonicalApproach(name string) (string, error) {
	if a, ok := approachAliases[strings.ToLower(strings.TrimSpace(name))]; ok {
		return a, nil
	}
	return "", badRequest("unknown approach %q (one of: ss, lamps, ss+ps, lamps+ps, limit-sf, limit-mf)", name)
}

// validate checks the structural invariants of a scheduleRequest that
// decoding leaves open; prepare runs it first.
func (req *scheduleRequest) validate() error {
	if (req.Graph == nil) == (req.STG == "") {
		return badRequest("exactly one of \"graph\" and \"stg\" must be set")
	}
	if (req.DeadlineSec > 0) == (req.DeadlineFactor > 0) {
		return badRequest("exactly one of \"deadline_sec\" and \"deadline_factor\" must be positive")
	}
	if req.MaxProcs < 0 {
		return badRequest("max_procs must be non-negative, got %d", req.MaxProcs)
	}
	return nil
}

// prepared is one scheduling problem resolved from its request: the
// canonical approach, the built graph, the core config and the digest the
// result cache is keyed by.
type prepared struct {
	approach string
	g        *dag.Graph
	cfg      core.Config
	key      string
}

// prepare resolves one request into its problem: validate, faults,
// approach, graph, machine, deadline, digest, in that order, so the first
// fault found is the one reported. /v1/schedule and every /v1/batch line
// run this one step, so they agree on every derived value and on every
// error.
func (s *Server) prepare(req *scheduleRequest) (prepared, error) {
	if err := req.validate(); err != nil {
		return prepared{}, err
	}
	faults, err := faultConfig(req.Faults)
	if err != nil {
		return prepared{}, err
	}
	approach, err := canonicalApproach(req.Approach)
	if err != nil {
		return prepared{}, err
	}
	g, err := s.buildGraph(req.Graph, req.STG)
	if err != nil {
		return prepared{}, err
	}
	cfg, err := s.machine(req.Platform, faults)
	if err != nil {
		return prepared{}, err
	}
	cfg.Deadline = deadline(&cfg, g, req.DeadlineSec, req.DeadlineFactor)
	cfg.MaxProcs = req.MaxProcs
	return prepared{approach, g, cfg, graphhash.Sum(problem(approach, g, cfg))}, nil
}

// buildGraph materialises a task graph from exactly one of an inline spec
// and STG text, enforcing the server's task-count limit. Structural errors
// (cycles, self edges, bad weights, malformed STG) map to 400, oversized
// graphs to 413. Shared by the schedule and sweep decoders.
func (s *Server) buildGraph(spec *graphSpec, stgText string) (*dag.Graph, error) {
	if stgText != "" {
		if int64(len(stgText)) > s.opts.MaxBodyBytes {
			return nil, tooLarge("stg text exceeds the %d-byte limit", s.opts.MaxBodyBytes)
		}
		g, err := stg.Parse(strings.NewReader(stgText), "stg-request")
		if err != nil {
			return nil, err
		}
		if g.NumTasks() > s.opts.MaxTasks {
			return nil, tooLarge("graph has %d tasks, limit is %d", g.NumTasks(), s.opts.MaxTasks)
		}
		return g, nil
	}
	if len(spec.Tasks) == 0 {
		return nil, badRequest("graph has no tasks")
	}
	if len(spec.Tasks) > s.opts.MaxTasks {
		return nil, tooLarge("graph has %d tasks, limit is %d", len(spec.Tasks), s.opts.MaxTasks)
	}
	name := spec.Name
	if name == "" {
		name = "request"
	}
	b := dag.NewBuilder(name)
	b.Grow(len(spec.Tasks), len(spec.Edges))
	for _, tk := range spec.Tasks {
		b.AddLabeledTask(tk.WeightCycles, tk.Label)
	}
	for _, e := range spec.Edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// machine starts a request's core.Config: the machine it is scheduled on —
// its own platform block, else the server's default platform, else the
// server's single model — plus the faults and self-check settings. With a
// platform, Config.Model stays nil so the digest and the engine agree on
// which machine description is authoritative. A malformed platform block
// is a 400; /v1/sweep has none and passes nil.
func (s *Server) machine(platform json.RawMessage, faults *core.FaultConfig) (core.Config, error) {
	cfg := core.Config{Model: s.opts.Model, Platform: s.opts.Platform, Faults: faults, SelfCheck: s.opts.SelfCheck}
	if len(platform) > 0 {
		pf, err := power.LoadPlatformJSON(bytes.NewReader(platform))
		if err != nil {
			return core.Config{}, badRequest("invalid platform: %v", err)
		}
		cfg.Platform = pf
	}
	if cfg.Platform != nil {
		cfg.Model = nil
	}
	return cfg, nil
}

// deadline converts the two deadline forms onto absolute seconds on cfg's
// machine: sec as-is, or a positive factor times the graph's critical path
// length at full speed (the platform's reference frequency, else the
// model's maximum), the paper's parametric form. Every endpoint resolves
// its deadlines here, so they agree bit for bit.
func deadline(cfg *core.Config, g *dag.Graph, sec, factor float64) float64 {
	switch {
	case factor <= 0:
		return sec
	case cfg.Platform != nil:
		return core.DeadlineFactorPlatform(g, cfg.Platform, factor).Deadline
	default:
		return core.DeadlineFactor(g, cfg.Model, factor).Deadline
	}
}

// problem maps one resolved (approach, graph, config) triple onto its
// canonical graphhash problem — the single place the serving layer decides
// what enters a digest, shared by /v1/schedule, /v1/batch and /v1/sweep so
// all three agree on every key.
func problem(approach string, g *dag.Graph, cfg core.Config) graphhash.Problem {
	p := graphhash.Problem{
		Graph:    g,
		Model:    cfg.Model,
		Platform: cfg.Platform,
		Deadline: cfg.Deadline,
		MaxProcs: cfg.MaxProcs,
		Approach: approach,
	}
	if cfg.Faults != nil {
		p.FaultsK = cfg.Faults.K
		p.FaultsPolicy = string(cfg.Faults.Policy)
	}
	return p
}

// scheduleResponse is the body of a successful POST /schedule. Platform is
// present only for heterogeneous-platform results; every homogeneous
// response stays byte-identical to the pre-platform encoding.
type scheduleResponse struct {
	Approach string           `json:"approach"`
	Key      string           `json:"key"`
	Graph    graphSummary     `json:"graph"`
	NumProcs int              `json:"num_procs"`
	Level    levelJSON        `json:"level"`
	Platform *platformSummary `json:"platform,omitempty"`
	Energy   energyJSON       `json:"energy"`
	Deadline float64          `json:"deadline_sec"`
	Makespan float64          `json:"makespan_sec"`
	Faults   *faultsSummary   `json:"faults,omitempty"`
	Tasks    []placedTask     `json:"placement,omitempty"`
	Stats    statsJSON        `json:"stats"`
}

// faultsSummary reports the fault-tolerance outcome: the tolerated fault
// count and resolved policy echoed back, the worst-case recovery makespan
// (every ≤K-fault pattern completes by then), and the reserved backup
// capacity — slot count and total cycles — whose idle energy is already
// included in the energy block. Present only on fault-tolerant results;
// every K=0 response stays byte-identical to the pre-fault encoding.
type faultsSummary struct {
	K                   int     `json:"k"`
	Policy              string  `json:"policy"`
	RecoveryMakespanSec float64 `json:"recovery_makespan_sec"`
	BackupSlots         int     `json:"backup_slots"`
	ReservedCycles      int64   `json:"reserved_cycles"`
}

// platformSummary reports the heterogeneous machine and the winning
// operating point: one realising ladder level per core class, plus the
// processor-to-class assignment (class indices) and the shared timeline
// frequency the placement cycles convert at.
type platformSummary struct {
	Classes        []platformClassJSON `json:"classes"`
	Procs          []int               `json:"procs"`
	RefClass       int                 `json:"ref_class"`
	TimelineFreqHz float64             `json:"timeline_freq_hz"`
}

type platformClassJSON struct {
	Name  string    `json:"name"`
	Level levelJSON `json:"level"`
}

type graphSummary struct {
	Name        string  `json:"name"`
	Tasks       int     `json:"tasks"`
	Edges       int     `json:"edges"`
	CPLCycles   int64   `json:"cpl_cycles"`
	WorkCycles  int64   `json:"work_cycles"`
	Parallelism float64 `json:"parallelism"`
}

type levelJSON struct {
	Index  int     `json:"index"`
	Vdd    float64 `json:"vdd"`
	FreqHz float64 `json:"freq_hz"`
	Norm   float64 `json:"f_over_fmax"`
}

type energyJSON struct {
	TotalJ    float64 `json:"total_j"`
	ActiveJ   float64 `json:"active_j"`
	IdleJ     float64 `json:"idle_j"`
	SleepJ    float64 `json:"sleep_j"`
	OverheadJ float64 `json:"overhead_j"`
	Shutdowns int     `json:"shutdowns"`
}

type placedTask struct {
	Task         int    `json:"task"`
	Label        string `json:"label,omitempty"`
	Proc         int32  `json:"proc"`
	StartCycles  int64  `json:"start_cycles"`
	FinishCycles int64  `json:"finish_cycles"`
}

type statsJSON struct {
	SchedulesBuilt  int `json:"schedules_built"`
	LevelsEvaluated int `json:"levels_evaluated"`
}

// renderResult converts a core result into the response body. The encoding
// is deterministic (encoding/json with fixed struct order), so equal
// results render to identical bytes — the property the byte-cache relies
// on. Assembly happens in a pooled renderScratch and the JSON bytes are
// produced in a pooled buffer; only the exact-size copy handed to the
// cache (and the caller) is a fresh allocation.
func renderResult(key string, cfg core.Config, r *core.Result) ([]byte, error) {
	rs := renderPool.Get().(*renderScratch)
	defer rs.release()
	resp := &rs.resp
	*resp = scheduleResponse{
		Approach: r.Approach,
		Key:      key,
		Graph: graphSummary{
			Name:        r.Graph.Name(),
			Tasks:       r.Graph.NumTasks(),
			Edges:       r.Graph.NumEdges(),
			CPLCycles:   r.Graph.CriticalPathLength(),
			WorkCycles:  r.Graph.TotalWork(),
			Parallelism: r.Graph.Parallelism(),
		},
		NumProcs: r.NumProcs,
		Level: levelJSON{
			Index:  r.Level.Index,
			Vdd:    r.Level.Vdd,
			FreqHz: r.Level.Freq,
			Norm:   r.Level.Norm,
		},
		Energy: energyJSON{
			TotalJ:    r.Energy.Total(),
			ActiveJ:   r.Energy.Active,
			IdleJ:     r.Energy.Idle,
			SleepJ:    r.Energy.Sleep,
			OverheadJ: r.Energy.Overhead,
			Shutdowns: r.Energy.Shutdowns,
		},
		Deadline: cfg.Deadline,
		Makespan: r.MakespanSec(),
		Stats: statsJSON{
			SchedulesBuilt:  r.Stats.SchedulesBuilt,
			LevelsEvaluated: r.Stats.LevelsEvaluated,
		},
	}
	if pf := r.Platform; pf != nil {
		rs.classes = grown(rs.classes, pf.NumClasses())
		rs.procs = grown(rs.procs, pf.NumProcs())
		ps := &rs.ps
		*ps = platformSummary{
			Classes:        rs.classes,
			Procs:          rs.procs,
			RefClass:       pf.RefClass(),
			TimelineFreqHz: r.Point.TimelineFreq,
		}
		for c := 0; c < pf.NumClasses(); c++ {
			cl := platformClassJSON{Name: pf.Class(c).Name}
			if c < len(r.Point.Levels) {
				l := r.Point.Levels[c]
				cl.Level = levelJSON{Index: l.Index, Vdd: l.Vdd, FreqHz: l.Freq, Norm: l.Norm}
			}
			ps.Classes[c] = cl
		}
		for p := 0; p < pf.NumProcs(); p++ {
			ps.Procs[p] = pf.ClassOf(p)
		}
		resp.Platform = ps
	}
	if bp := r.Backups; bp != nil && cfg.Faults != nil {
		rs.fs = faultsSummary{
			K:                   cfg.Faults.K,
			Policy:              string(bp.Policy),
			RecoveryMakespanSec: r.RecoveryMakespanSec(),
			BackupSlots:         len(bp.Proc),
			ReservedCycles:      bp.ReservedCycles(),
		}
		resp.Faults = &rs.fs
	}
	if r.Schedule != nil {
		rs.tasks = grown(rs.tasks, r.Graph.NumTasks())
		for v := 0; v < r.Graph.NumTasks(); v++ {
			rs.tasks[v] = placedTask{
				Task:         v,
				Label:        r.Graph.Label(v),
				Proc:         r.Schedule.Proc[v],
				StartCycles:  r.Schedule.Start[v],
				FinishCycles: r.Schedule.Finish[v],
			}
		}
		resp.Tasks = rs.tasks
	}
	// Encoder.Encode == Marshal + '\n' byte for byte; the cache retains the
	// result, so copy out of the pooled buffer at exact size.
	e := getEncoder()
	defer e.put()
	if err := e.enc.Encode(resp); err != nil {
		return nil, fmt.Errorf("encoding response: %w", err)
	}
	out := make([]byte, e.buf.Len())
	copy(out, e.buf.Bytes())
	return out, nil
}
