package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"

	"lamps/internal/graphhash"
)

// sweepRequest is the body of POST /v1/sweep: one task graph plus a grid of
// {approaches × deadlines × processor caps}. Exactly one of Graph and STG
// supplies the graph, and exactly one of DeadlineSecs and DeadlineFactors
// supplies the deadline axis.
type sweepRequest struct {
	// Approaches lists the heuristics to evaluate; same aliases as the
	// schedule endpoint's "approach" field.
	Approaches []string `json:"approaches"`

	// Graph is the task graph in inline JSON form.
	Graph *graphSpec `json:"graph,omitempty"`
	// STG is the task graph in Standard Task Graph Set text format.
	STG string `json:"stg,omitempty"`

	// DeadlineSecs are absolute deadlines in seconds.
	DeadlineSecs []float64 `json:"deadline_secs,omitempty"`
	// DeadlineFactors express deadlines as multiples of the graph's
	// critical path length at maximum frequency — the axis of the paper's
	// Figs. 6–9 sweeps.
	DeadlineFactors []float64 `json:"deadline_factors,omitempty"`

	// MaxProcs lists processor caps (0 = bounded only by graph
	// parallelism). Empty means the single cap 0.
	MaxProcs []int `json:"max_procs,omitempty"`

	// Faults optionally requests k-fault tolerance for every cell; same
	// block as the schedule endpoint. {"k": 0} or omission is the
	// non-tolerant sweep with unchanged cell digests.
	Faults *faultsSpec `json:"faults,omitempty"`
}

// sweepCell identifies one grid cell in the response stream. Cells are
// indexed in row-major order: approaches outermost, then deadlines, then
// processor caps.
type sweepCell struct {
	Index          int     `json:"index"`
	Approach       string  `json:"approach"`
	DeadlineSec    float64 `json:"deadline_sec"`
	DeadlineFactor float64 `json:"deadline_factor,omitempty"`
	MaxProcs       int     `json:"max_procs"`
}

// decodeSweepRequest parses and validates a sweep body up to its faults
// block, which handleSweep resolves next. Like a schedule body it is read
// whole first, so any body over the byte limit is a 413.
func decodeSweepRequest(body io.Reader) (*sweepRequest, error) {
	buf, err := readBody(body)
	if err != nil {
		return nil, err
	}
	defer putBody(buf)
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	var req sweepRequest
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("decoding sweep request: %v", err)
	}
	if dec.More() {
		return nil, badRequest("trailing data after request object")
	}
	if (req.Graph == nil) == (req.STG == "") {
		return nil, badRequest("exactly one of \"graph\" and \"stg\" must be set")
	}
	if len(req.Approaches) == 0 {
		return nil, badRequest("\"approaches\" must list at least one approach")
	}
	if (len(req.DeadlineSecs) == 0) == (len(req.DeadlineFactors) == 0) {
		return nil, badRequest("exactly one of \"deadline_secs\" and \"deadline_factors\" must be non-empty")
	}
	for _, d := range req.DeadlineSecs {
		if d <= 0 {
			return nil, badRequest("deadline_secs entries must be positive, got %g", d)
		}
	}
	for _, f := range req.DeadlineFactors {
		if f <= 0 {
			return nil, badRequest("deadline_factors entries must be positive, got %g", f)
		}
	}
	for _, p := range req.MaxProcs {
		if p < 0 {
			return nil, badRequest("max_procs entries must be non-negative, got %d", p)
		}
	}
	return &req, nil
}

// handleSweep serves POST /v1/sweep: it resolves every cell of the grid up
// front and answers them through stream, the pipeline /v1/batch shares —
// one NDJSON line per cell as it completes (completion order, identified by
// the cell coordinates), then a summary line. Cached cells are served from
// the LRU via the same per-cell digests the schedule endpoint uses, so a
// cell's "result" field is byte-identical to the body an individual
// /v1/schedule request for the same problem would return. Per-cell
// failures (infeasible deadlines, panicking heuristics) are reported in
// their cell line and do not abort the remaining cells.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	req, err := decodeSweepRequest(r.Body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	faults, err := faultConfig(req.Faults)
	if err != nil {
		s.writeError(w, err)
		return
	}
	approaches := make([]string, len(req.Approaches))
	for i, a := range req.Approaches {
		if approaches[i], err = canonicalApproach(a); err != nil {
			s.writeError(w, err)
			return
		}
	}
	g, err := s.buildGraph(req.Graph, req.STG)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// Every cell runs on the server's default machine with the sweep-wide
	// faults, exactly as a single-shot request with the same block would.
	base := s.machine(nil, faults)

	type axis struct {
		sec    float64
		factor float64 // 0 when the deadline was given in seconds
	}
	deadlines := make([]axis, 0, len(req.DeadlineSecs)+len(req.DeadlineFactors))
	for _, sec := range req.DeadlineSecs {
		deadlines = append(deadlines, axis{sec: sec})
	}
	for _, f := range req.DeadlineFactors {
		sec := deadline(&base, g, 0, f)
		// A huge factor overflows to +Inf, which no cell line can encode;
		// refuse it before the stream starts.
		if math.IsInf(sec, 1) {
			s.writeError(w, badRequest("deadline factor %g resolves to a non-finite deadline", f))
			return
		}
		deadlines = append(deadlines, axis{sec: sec, factor: f})
	}
	procs := req.MaxProcs
	if len(procs) == 0 {
		procs = []int{0}
	}

	n := len(approaches) * len(deadlines) * len(procs)
	if n > s.opts.SweepMaxCells {
		s.writeError(w, tooLarge("sweep grid has %d cells, limit is %d", n, s.opts.SweepMaxCells))
		return
	}

	// Enumerate the grid and derive each cell's cache key from the shared
	// graph+machine hash prefix, so sweep cells and single-shot requests
	// agree on every digest.
	cells := make([]sweepCell, n)
	items := make([]streamItem, n)
	hasher := graphhash.NewProblemHasher(problem("", g, base))
	i := 0
	for _, a := range approaches {
		for _, d := range deadlines {
			for _, p := range procs {
				cells[i] = sweepCell{Index: i, Approach: a, DeadlineSec: d.sec, DeadlineFactor: d.factor, MaxProcs: p}
				cfg := base
				cfg.Deadline, cfg.MaxProcs = d.sec, p
				items[i] = streamItem{prepared: prepared{a, g, cfg, hasher.Cell(d.sec, p, a)}, cell: &cells[i]}
				i++
			}
		}
	}
	s.stream(w, r, items, &s.metrics.sweepCells, streamSummary{Cells: n})
}
