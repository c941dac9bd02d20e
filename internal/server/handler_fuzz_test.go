package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lamps/internal/dag"
	"lamps/internal/power"
	"lamps/internal/sched"
	"lamps/internal/server"
	"lamps/internal/stg"
	"lamps/internal/verify"
)

// FuzzScheduleHandler drives arbitrary bodies through the in-process
// /v1/schedule handler with SelfCheck on, so every schedule and breakdown
// the server would return is also re-derived by the independent verifier.
// The property: a request is answered 200, 400, 413 or 422 — never a 500 or
// a panic, whatever the body — and a 200 repeated verbatim is a cache hit
// with a byte-identical body. The seeds in testdata/fuzz/FuzzScheduleHandler
// cover homogeneous, platform and fault-tolerant requests and a platform
// whose slot stretch takes a small graph past the cycle envelope.
func FuzzScheduleHandler(f *testing.F) {
	h := server.New(server.Options{
		MaxTasks:     16,
		MaxBodyBytes: 16 << 10,
		SelfCheck:    true,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	}).Handler()
	serve := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		first := serve(body)
		switch first.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			return
		default:
			t.Fatalf("status %d for %q: %s", first.Code, body, first.Body.Bytes())
		}
		again := serve(body)
		if again.Code != http.StatusOK || again.Header().Get(server.CacheHeader) != "hit" {
			t.Fatalf("repeat of a 200 answered %d (%s %q) for %q",
				again.Code, server.CacheHeader, again.Header().Get(server.CacheHeader), body)
		}
		if !bytes.Equal(first.Body.Bytes(), again.Body.Bytes()) {
			t.Fatalf("cache hit body differs for %q:\nfirst %s\nhit   %s", body, first.Body.Bytes(), again.Body.Bytes())
		}
	})
}

// FuzzSweepHandler drives arbitrary bodies through the in-process /v1/sweep
// handler with SelfCheck on. The property: a body is refused with 400 or 413
// before the stream starts, or answered 200 with a well-formed NDJSON
// stream (checkSweepStream) — never a 500 or a panic. The seeds in
// testdata/fuzz/FuzzSweepHandler cover homogeneous and fault-tolerant
// grids, a partly infeasible deadline axis and a deadline factor whose
// deadline overflows to +Inf.
func FuzzSweepHandler(f *testing.F) {
	h := server.New(server.Options{
		MaxTasks:      16,
		MaxBodyBytes:  16 << 10,
		SweepMaxCells: 64,
		SelfCheck:     true,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			checkSweepStream(t, rec.Body.Bytes())
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body.Bytes())
		}
	})
}

// checkSweepStream requires a 200 sweep body to be a well-formed stream:
// every line decodes, the last and only the last is the summary, there is
// one cell line per completed cell, and every cell answered 200, 400, 413 or
// 422. A cell line that fails to encode is dropped from the wire, so the
// count catches it.
func checkSweepStream(t *testing.T, stream []byte) {
	t.Helper()
	var cells int
	var sum *sweepSummary
	for _, raw := range bytes.Split(bytes.TrimSuffix(stream, []byte("\n")), []byte("\n")) {
		if sum != nil {
			t.Fatalf("line after the summary: %s", raw)
		}
		var line struct {
			Cell    *struct{}     `json:"cell"`
			Status  int           `json:"status"`
			Summary *sweepSummary `json:"summary"`
		}
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("undecodable line %q: %v", raw, err)
		}
		switch {
		case line.Summary != nil:
			sum = line.Summary
		case line.Cell == nil:
			t.Fatalf("line is neither a cell nor a summary: %s", raw)
		default:
			cells++
			switch line.Status {
			case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			default:
				t.Fatalf("cell status %d: %s", line.Status, raw)
			}
		}
	}
	if sum == nil {
		t.Fatalf("stream has no summary:\n%s", stream)
	}
	if cells != sum.Completed {
		t.Fatalf("%d cell lines for %d completed cells:\n%s", cells, sum.Completed, stream)
	}
}

// sweepSummary is the trailing line of a sweep stream.
type sweepSummary struct {
	Cells     int `json:"cells"`
	Completed int `json:"completed"`
	OK        int `json:"ok"`
	Errors    int `json:"errors"`
}

// FuzzBatchHandler drives arbitrary bodies through the in-process /v1/batch
// handler with SelfCheck on, on one worker. The property: the whole body is
// refused with 400 or 413 before any line, or answered 200 with a stream
// that holds exactly one decodable line per input index — each answered
// 200, 400, 413 or 422 — and then one summary. Every 200 line's result has
// passed the server's self-check; on the identical-processor machine its
// placement is also re-checked here by the independent verifier against
// the graph of its input line, and its makespan against its deadline.
// Replaying the batch answers every index with the same status and a
// byte-identical result (its "cache" field flips from miss to hit, and
// lines arrive in completion order, so only these are compared). The seeds
// in testdata/fuzz/FuzzBatchHandler cover mixed valid, schema-invalid,
// unknown-approach and infeasible lines, fault-tolerant, platform and STG
// lines, a repeated line, a deadline factor that overflows to +Inf and
// whole-batch refusals.
func FuzzBatchHandler(f *testing.F) {
	h := server.New(server.Options{
		Workers:       1,
		MaxTasks:      16,
		MaxBodyBytes:  16 << 10,
		BatchMaxItems: 8,
		SelfCheck:     true,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	}).Handler()
	serve := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		first := serve(body)
		switch first.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("status %d for %q: %s", first.Code, body, first.Body.Bytes())
		}
		lines := checkBatchStream(t, first.Body.Bytes())
		inputs := splitValues(t, body, len(lines))
		for i, l := range lines {
			if l.Status == http.StatusOK {
				if err := verifyBatchResult(inputs[i], l.Result); err != nil {
					t.Fatalf("line %d of %q: %v\nresult %s", i, body, err, l.Result)
				}
			}
		}
		again := checkBatchStream(t, serve(body).Body.Bytes())
		for i := range lines {
			if again[i].Status != lines[i].Status || !bytes.Equal(again[i].Result, lines[i].Result) {
				t.Fatalf("replay of line %d of %q differs:\nfirst  %d %s\nreplay %d %s",
					i, body, lines[i].Status, lines[i].Result, again[i].Status, again[i].Result)
			}
		}
	})
}

// checkBatchStream requires a 200 batch body to be a well-formed stream —
// every line decodes, one line per index from 0 to the summary's request
// count, every status 200, 400, 413 or 422, and the summary last — and
// returns the lines by index.
func checkBatchStream(t *testing.T, stream []byte) map[int]batchLine {
	t.Helper()
	var lines []batchLine
	for _, raw := range bytes.Split(bytes.TrimSuffix(stream, []byte("\n")), []byte("\n")) {
		var l batchLine
		if err := json.Unmarshal(raw, &l); err != nil {
			t.Fatalf("undecodable line %q: %v", raw, err)
		}
		lines = append(lines, l)
	}
	sum := lines[len(lines)-1].Summary
	if sum == nil {
		t.Fatalf("stream does not end in a summary:\n%s", stream)
	}
	byIndex, _ := splitBatch(t, lines, sum.Requests)
	if sum.Completed != sum.Requests {
		t.Fatalf("%d of %d requests completed:\n%s", sum.Completed, sum.Requests, stream)
	}
	for i, l := range byIndex {
		if i < 0 || i >= sum.Requests {
			t.Fatalf("line index %d outside [0,%d):\n%s", i, sum.Requests, stream)
		}
		switch l.Status {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("line status %d: %+v", l.Status, l)
		}
	}
	return byIndex
}

// splitValues splits a batch body into its n top-level JSON values, the
// input lines the stream's indices refer to.
func splitValues(t *testing.T, body []byte, n int) []json.RawMessage {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	vals := make([]json.RawMessage, 0, n)
	for dec.More() {
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("splitting an accepted batch %q: %v", body, err)
		}
		vals = append(vals, v)
	}
	if len(vals) != n {
		t.Fatalf("%d values in a batch answered with %d lines: %q", len(vals), n, body)
	}
	return vals
}

// verifyBatchResult re-checks a 200 line's result against its input line:
// the makespan meets the deadline, and the placement is a legal schedule of
// the input graph on the line's machine — verify.ScheduleWithin on the
// platform loaded from the line's platform block, which fixes every
// class-stretched slot length, if the line has one.
func verifyBatchResult(input, result json.RawMessage) error {
	var in struct {
		Graph *struct {
			Tasks []struct {
				WeightCycles int64 `json:"weight_cycles"`
			} `json:"tasks"`
			Edges [][2]int `json:"edges"`
		} `json:"graph"`
		STG      string          `json:"stg"`
		Platform json.RawMessage `json:"platform"`
	}
	var out struct {
		NumProcs  int     `json:"num_procs"`
		Deadline  float64 `json:"deadline_sec"`
		Makespan  float64 `json:"makespan_sec"`
		Placement []struct {
			Proc   int32 `json:"proc"`
			Start  int64 `json:"start_cycles"`
			Finish int64 `json:"finish_cycles"`
		} `json:"placement"`
	}
	if err := json.Unmarshal(input, &in); err != nil {
		return fmt.Errorf("decoding the input line: %v", err)
	}
	if err := json.Unmarshal(result, &out); err != nil {
		return fmt.Errorf("decoding the result: %v", err)
	}
	if out.Makespan > out.Deadline*(1+1e-9) {
		return fmt.Errorf("makespan %g s past the deadline %g s", out.Makespan, out.Deadline)
	}
	if len(out.Placement) == 0 {
		return nil // LIMIT bounds have no placement
	}
	var pf *power.Platform
	var err error
	if len(in.Platform) > 0 {
		if pf, err = power.LoadPlatformJSON(bytes.NewReader(in.Platform)); err != nil {
			return fmt.Errorf("loading the input platform: %v", err)
		}
		// A platform S&S result reports the processors it uses, which can be
		// fewer than its highest processor index plus one.
		out.NumProcs = pf.NumProcs()
	}
	var g *dag.Graph
	if in.Graph != nil {
		b := dag.NewBuilder("input")
		for _, tk := range in.Graph.Tasks {
			b.AddTask(tk.WeightCycles)
		}
		for _, e := range in.Graph.Edges {
			b.AddEdge(e[0], e[1])
		}
		g, err = b.Build()
	} else {
		g, err = stg.Parse(strings.NewReader(in.STG), "input")
	}
	if err != nil {
		return fmt.Errorf("rebuilding the input graph: %v", err)
	}
	if len(out.Placement) != g.NumTasks() {
		return fmt.Errorf("%d placements for %d tasks", len(out.Placement), g.NumTasks())
	}
	// sched.ReadJSON restores the per-processor lists verify cross-checks.
	type taskJSON struct {
		ID     int     `json:"id"`
		Weight int64   `json:"weight_cycles"`
		Preds  []int32 `json:"preds,omitempty"`
		Proc   int32   `json:"proc"`
		Start  int64   `json:"start_cycles"`
		Finish int64   `json:"finish_cycles"`
	}
	doc := struct {
		Name     string     `json:"name"`
		NumProcs int        `json:"num_procs"`
		Makespan int64      `json:"makespan_cycles"`
		Tasks    []taskJSON `json:"tasks"`
	}{Name: "result", NumProcs: out.NumProcs}
	for v, p := range out.Placement {
		doc.Tasks = append(doc.Tasks, taskJSON{v, g.Weight(v), g.Preds(v), p.Proc, p.Start, p.Finish})
		doc.Makespan = max(doc.Makespan, p.Finish)
	}
	raw, err := json.Marshal(&doc)
	if err != nil {
		return err
	}
	s, err := sched.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	return verify.ScheduleWithin(s.Graph, s, verify.ScheduleOptions{Platform: pf})
}
