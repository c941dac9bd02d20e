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

// faultConfig resolves the request's faults block onto the core form: nil
// when fault tolerance is off, otherwise K plus the canonical policy (never
// empty, so digests are stable across request spellings).
func (req *scheduleRequest) faultConfig() (*core.FaultConfig, error) {
	if req.Faults == nil || req.Faults.K == 0 {
		return nil, nil
	}
	policy, err := canonicalFaultPolicy(req.Faults.Policy)
	if err != nil {
		return nil, err
	}
	return &core.FaultConfig{K: req.Faults.K, Policy: policy}, nil
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

// validate checks the structural invariants shared by every surface that
// accepts a scheduleRequest — the single-shot endpoint and each line of a
// /v1/batch stream — so the two reject malformed requests identically.
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
	if req.Faults != nil {
		if req.Faults.K < 0 {
			return badRequest("faults.k must be non-negative, got %d", req.Faults.K)
		}
		if _, err := canonicalFaultPolicy(req.Faults.Policy); err != nil {
			return err
		}
	}
	return nil
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

// config assembles the core.Config for the request's graph. A platform —
// the request's own, or else the server default — replaces the single
// model: Config.Model stays nil so the digest and the engine agree on which
// machine description is authoritative. A malformed request platform maps
// to 400.
func (s *Server) config(req *scheduleRequest, g *dag.Graph) (core.Config, error) {
	pf := s.opts.Platform
	if len(req.Platform) > 0 {
		var err error
		pf, err = power.LoadPlatformJSON(bytes.NewReader(req.Platform))
		if err != nil {
			return core.Config{}, badRequest("invalid platform: %v", err)
		}
	}
	faults, err := req.faultConfig()
	if err != nil {
		return core.Config{}, err
	}
	if pf != nil {
		return core.Config{
			Platform:  pf,
			Deadline:  s.resolveDeadlineAt(g, req.DeadlineSec, req.DeadlineFactor, pf.RefFMax()),
			MaxProcs:  req.MaxProcs,
			Faults:    faults,
			SelfCheck: s.opts.SelfCheck,
		}, nil
	}
	return core.Config{
		Model:     s.opts.Model,
		Deadline:  s.resolveDeadline(g, req.DeadlineSec, req.DeadlineFactor),
		MaxProcs:  req.MaxProcs,
		Faults:    faults,
		SelfCheck: s.opts.SelfCheck,
	}, nil
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

// resolveDeadline converts the two request deadline forms onto absolute
// seconds: sec is used as-is; a positive factor takes precedence and is
// interpreted as a multiple of the graph's critical path length at maximum
// frequency (the paper's parametric form). Shared by the schedule and sweep
// paths so the two agree bit-for-bit on derived deadlines.
func (s *Server) resolveDeadline(g *dag.Graph, sec, factor float64) float64 {
	return s.resolveDeadlineAt(g, sec, factor, s.opts.Model.FMax())
}

// resolveDeadlineAt is resolveDeadline against an explicit full-speed
// frequency — the platform's reference frequency on the heterogeneous path.
func (s *Server) resolveDeadlineAt(g *dag.Graph, sec, factor, fmax float64) float64 {
	if factor > 0 {
		return factor * float64(g.CriticalPathLength()) / fmax
	}
	return sec
}

// sweepDeadline resolves a sweep deadline factor against the server's
// default machine: the platform's reference frequency when one is set,
// otherwise the single model's maximum frequency.
func (s *Server) sweepDeadline(g *dag.Graph, factor float64) float64 {
	if s.opts.Platform != nil {
		return s.resolveDeadlineAt(g, 0, factor, s.opts.Platform.RefFMax())
	}
	return s.resolveDeadline(g, 0, factor)
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
