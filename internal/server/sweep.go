package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"lamps/internal/core"
	"lamps/internal/graphhash"
	"lamps/internal/workpool"
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

// sweepLine is one NDJSON line of the response stream: either a cell result
// or the trailing summary.
type sweepLine struct {
	Cell   *sweepCell      `json:"cell,omitempty"`
	Status int             `json:"status,omitempty"`
	Cache  string          `json:"cache,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`

	Summary *sweepSummary `json:"summary,omitempty"`
}

// sweepSummary is the final line of every sweep stream.
type sweepSummary struct {
	Cells     int  `json:"cells"`
	Completed int  `json:"completed"`
	OK        int  `json:"ok"`
	Errors    int  `json:"errors"`
	CacheHits int  `json:"cache_hits"`
	Coalesced int  `json:"coalesced"`
	TimedOut  bool `json:"timed_out,omitempty"`
}

// decodeSweepRequest parses and validates a sweep body. Like a schedule
// body it is read whole first, so any body over the byte limit is a 413.
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
	if req.Faults != nil {
		if req.Faults.K < 0 {
			return nil, badRequest("faults.k must be non-negative, got %d", req.Faults.K)
		}
		if _, err := canonicalFaultPolicy(req.Faults.Policy); err != nil {
			return nil, err
		}
	}
	return &req, nil
}

// handleSweep serves POST /v1/sweep: it evaluates every cell of the grid in
// parallel on the shared worker pool and streams one NDJSON line per cell
// as it completes (completion order, identified by the cell coordinates),
// followed by a summary line. Cached cells are served from the LRU via the
// same per-cell digests the schedule endpoint uses, so a cell's "result"
// field is byte-identical to the body an individual /v1/schedule request
// for the same problem would return. Per-cell failures (infeasible
// deadlines, panicking heuristics) are reported in their cell line and do
// not abort the remaining cells.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	req, err := decodeSweepRequest(r.Body)
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

	type axis struct {
		sec    float64
		factor float64 // 0 when the deadline was given in seconds
	}
	deadlines := make([]axis, 0, len(req.DeadlineSecs)+len(req.DeadlineFactors))
	for _, sec := range req.DeadlineSecs {
		deadlines = append(deadlines, axis{sec: sec})
	}
	for _, f := range req.DeadlineFactors {
		deadlines = append(deadlines, axis{sec: s.sweepDeadline(g, f), factor: f})
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

	// Resolve the sweep-wide fault-tolerance request once; every cell
	// shares it, exactly as a single-shot request with the same block
	// would. The policy was validated during decode.
	var faults *core.FaultConfig
	if req.Faults != nil && req.Faults.K > 0 {
		policy, perr := canonicalFaultPolicy(req.Faults.Policy)
		if perr != nil {
			s.writeError(w, perr)
			return
		}
		faults = &core.FaultConfig{K: req.Faults.K, Policy: policy}
	}

	// Enumerate the grid and derive each cell's cache key from the shared
	// graph+machine hash prefix (platform-tagged when the server default
	// machine is heterogeneous, faults-tagged when tolerance is on, so
	// sweep cells and single-shot requests agree on every digest).
	cells := make([]sweepCell, 0, n)
	cfgs := make([]core.Config, 0, n)
	keys := make([]string, 0, n)
	baseCfg := core.Config{Model: s.opts.Model, Faults: faults, SelfCheck: s.opts.SelfCheck}
	if s.opts.Platform != nil {
		baseCfg.Model, baseCfg.Platform = nil, s.opts.Platform
	}
	hasher := graphhash.NewProblemHasher(problem("", g, baseCfg))
	for _, a := range approaches {
		for _, d := range deadlines {
			for _, p := range procs {
				cells = append(cells, sweepCell{
					Index:          len(cells),
					Approach:       a,
					DeadlineSec:    d.sec,
					DeadlineFactor: d.factor,
					MaxProcs:       p,
				})
				cfg := baseCfg
				cfg.Deadline, cfg.MaxProcs = d.sec, p
				cfgs = append(cfgs, cfg)
				keys = append(keys, hasher.Cell(d.sec, p, a))
			}
		}
	}

	ctx, cancel := s.requestCtx(r)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	var (
		wmu     sync.Mutex
		sum     = sweepSummary{Cells: n}
		encFail error
	)
	writeLine := func(line sweepLine) {
		// Pooled encoding: Encoder.Encode emits Marshal + '\n' byte for
		// byte, so the wire stream is unchanged — one Write per line, no
		// per-line marshal buffer.
		e := getEncoder()
		defer e.put()
		err := e.enc.Encode(&line)
		wmu.Lock()
		defer wmu.Unlock()
		if err != nil {
			// Unreachable for these types; recorded rather than swallowed.
			encFail = err
			return
		}
		w.Write(e.buf.Bytes())
		if flusher != nil {
			flusher.Flush()
		}
	}

	workers := s.pool.Cap()
	mapErr := workpool.MapCtx(ctx, n, workers, func(i int) error {
		res := s.execute(ctx, keys[i], cells[i].Approach, g, cfgs[i])
		line := sweepLine{Cell: &cells[i], Cache: res.source}
		wmu.Lock()
		sum.Completed++
		wmu.Unlock()
		if res.err != nil {
			ae := classify(res.err)
			line.Status, line.Error = ae.status, ae.msg
			s.metrics.recordSweepCell(false)
			wmu.Lock()
			sum.Errors++
			wmu.Unlock()
		} else {
			// The schedule body carries a trailing newline for curl
			// friendliness; the embedded raw message drops it and nothing
			// else, so byte-for-byte comparisons against /v1/schedule only
			// need to re-append it.
			line.Status = res.status
			line.Result = json.RawMessage(trimNewline(res.body))
			s.metrics.recordSweepCell(true)
			wmu.Lock()
			sum.OK++
			switch res.source {
			case "hit":
				sum.CacheHits++
			case "shared":
				sum.Coalesced++
			}
			wmu.Unlock()
		}
		writeLine(line)
		return nil // cell failures never abort the sweep
	})
	// The cell callback never returns an error, so mapErr is necessarily
	// the context expiring mid-grid; cells that were never dispatched are
	// reflected by Completed < Cells.
	if mapErr != nil {
		sum.TimedOut = true
	}
	if encFail != nil {
		s.log.Error("encoding sweep line", "err", encFail)
	}
	writeLine(sweepLine{Summary: &sum})
}

func trimNewline(b []byte) []byte {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return b[:len(b)-1]
	}
	return b
}
