package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lamps/internal/core"
	"lamps/internal/dag"
	"lamps/internal/server"
)

// sweepLine mirrors the NDJSON stream lines for assertions.
type sweepLine struct {
	Cell *struct {
		Index          int     `json:"index"`
		Approach       string  `json:"approach"`
		DeadlineSec    float64 `json:"deadline_sec"`
		DeadlineFactor float64 `json:"deadline_factor"`
		MaxProcs       int     `json:"max_procs"`
	} `json:"cell"`
	Status  int             `json:"status"`
	Cache   string          `json:"cache"`
	Result  json.RawMessage `json:"result"`
	Error   string          `json:"error"`
	Summary *struct {
		Cells     int  `json:"cells"`
		Completed int  `json:"completed"`
		OK        int  `json:"ok"`
		Errors    int  `json:"errors"`
		CacheHits int  `json:"cache_hits"`
		Coalesced int  `json:"coalesced"`
		TimedOut  bool `json:"timed_out"`
	} `json:"summary"`
}

// postSweep sends a /v1/sweep request and parses the NDJSON stream.
func postSweep(t *testing.T, ts *httptest.Server, reqBody any) (int, []sweepLine, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(reqBody); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, raw
	}
	var lines []sweepLine
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line sweepLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("parsing sweep line %q: %v", sc.Bytes(), err)
		}
		lines = append(lines, line)
	}
	return resp.StatusCode, lines, raw
}

func sweepReq(graph map[string]any, approaches []string, factors []float64, procs []int) map[string]any {
	req := map[string]any{
		"approaches":       approaches,
		"graph":            graph,
		"deadline_factors": factors,
	}
	if procs != nil {
		req["max_procs"] = procs
	}
	return req
}

// TestSweepMatchesScheduleBitForBit is the acceptance test of the sweep
// engine: a 48-cell grid must return, for every cell, exactly the bytes an
// individual /v1/schedule request for the same problem returns — and a
// second, fully cached sweep must reproduce them byte for byte.
func TestSweepMatchesScheduleBitForBit(t *testing.T) {
	ts := newTestServer(t, server.Options{})
	approaches := []string{"ss", "lamps", "ss+ps", "lamps+ps", "limit-sf", "limit-mf"}
	factors := []float64{1.5, 2, 4, 8}
	procs := []int{0, 2}

	status, cold, raw := postSweep(t, ts, sweepReq(diamondGraph(), approaches, factors, procs))
	if status != http.StatusOK {
		t.Fatalf("sweep: status %d, body %s", status, raw)
	}
	wantCells := len(approaches) * len(factors) * len(procs)
	if len(cold) != wantCells+1 {
		t.Fatalf("sweep returned %d lines, want %d cells + summary", len(cold), wantCells)
	}
	sum := cold[len(cold)-1].Summary
	if sum == nil {
		t.Fatal("stream did not end with a summary line")
	}
	if sum.Cells != wantCells || sum.Completed != wantCells || sum.OK != wantCells || sum.Errors != 0 || sum.TimedOut {
		t.Errorf("cold summary %+v, want %d clean cells", *sum, wantCells)
	}

	// Each cell must match an individual /v1/schedule call bit for bit.
	seen := make(map[int]bool)
	for _, line := range cold[:len(cold)-1] {
		if line.Cell == nil {
			t.Fatal("non-summary line without a cell")
		}
		if seen[line.Cell.Index] {
			t.Errorf("cell %d reported twice", line.Cell.Index)
		}
		seen[line.Cell.Index] = true
		if line.Status != http.StatusOK {
			t.Errorf("cell %d: status %d (%s)", line.Cell.Index, line.Status, line.Error)
			continue
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(map[string]any{
			"approach":        line.Cell.Approach,
			"graph":           diamondGraph(),
			"deadline_factor": line.Cell.DeadlineFactor,
			"max_procs":       line.Cell.MaxProcs,
		}); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cell %d via /v1/schedule: status %d, body %s", line.Cell.Index, resp.StatusCode, body)
		}
		if want := bytes.TrimSuffix(body, []byte("\n")); !bytes.Equal(line.Result, want) {
			t.Errorf("cell %d diverges from /v1/schedule:\n%s\nvs\n%s", line.Cell.Index, line.Result, want)
		}
	}

	// The warm sweep must be served entirely from the cache with identical
	// per-cell bytes.
	status, warm, raw := postSweep(t, ts, sweepReq(diamondGraph(), approaches, factors, procs))
	if status != http.StatusOK {
		t.Fatalf("warm sweep: status %d, body %s", status, raw)
	}
	warmSum := warm[len(warm)-1].Summary
	if warmSum == nil || warmSum.CacheHits != wantCells {
		t.Errorf("warm summary %+v, want %d cache hits", warmSum, wantCells)
	}
	coldByIndex := make(map[int]json.RawMessage)
	for _, line := range cold[:len(cold)-1] {
		coldByIndex[line.Cell.Index] = line.Result
	}
	for _, line := range warm[:len(warm)-1] {
		if line.Cache != "hit" {
			t.Errorf("warm cell %d served from %q, want hit", line.Cell.Index, line.Cache)
		}
		if !bytes.Equal(line.Result, coldByIndex[line.Cell.Index]) {
			t.Errorf("warm cell %d is not byte-identical to the cold cell:\n%s\nvs\n%s",
				line.Cell.Index, line.Result, coldByIndex[line.Cell.Index])
		}
	}
}

// TestSweepPartialFailure: infeasible cells fail with 422 in their own line
// while the rest of the grid completes.
func TestSweepPartialFailure(t *testing.T) {
	ts := newTestServer(t, server.Options{})
	req := map[string]any{
		"approaches":    []string{"lamps"},
		"graph":         diamondGraph(),
		"deadline_secs": []float64{1e-9, 0.05}, // first infeasible, second fine
	}
	status, lines, raw := postSweep(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, raw)
	}
	sum := lines[len(lines)-1].Summary
	if sum == nil || sum.OK != 1 || sum.Errors != 1 {
		t.Fatalf("summary %+v, want 1 ok + 1 error", sum)
	}
	for _, line := range lines[:len(lines)-1] {
		switch line.Cell.DeadlineSec {
		case 1e-9:
			if line.Status != http.StatusUnprocessableEntity || line.Error == "" {
				t.Errorf("infeasible cell: status %d, error %q", line.Status, line.Error)
			}
		default:
			if line.Status != http.StatusOK {
				t.Errorf("feasible cell: status %d (%s)", line.Status, line.Error)
			}
		}
	}
}

func TestSweepValidation(t *testing.T) {
	ts := newTestServer(t, server.Options{SweepMaxCells: 4})
	cases := map[string]struct {
		req  map[string]any
		want int
	}{
		"no approaches": {map[string]any{
			"graph": diamondGraph(), "deadline_factors": []float64{2},
		}, http.StatusBadRequest},
		"unknown approach": {map[string]any{
			"approaches": []string{"warp-drive"}, "graph": diamondGraph(),
			"deadline_factors": []float64{2},
		}, http.StatusBadRequest},
		"no deadlines": {map[string]any{
			"approaches": []string{"ss"}, "graph": diamondGraph(),
		}, http.StatusBadRequest},
		"both deadline axes": {map[string]any{
			"approaches": []string{"ss"}, "graph": diamondGraph(),
			"deadline_secs": []float64{1}, "deadline_factors": []float64{2},
		}, http.StatusBadRequest},
		"non-positive deadline": {map[string]any{
			"approaches": []string{"ss"}, "graph": diamondGraph(),
			"deadline_secs": []float64{0},
		}, http.StatusBadRequest},
		"negative procs": {map[string]any{
			"approaches": []string{"ss"}, "graph": diamondGraph(),
			"deadline_factors": []float64{2}, "max_procs": []int{-1},
		}, http.StatusBadRequest},
		"no graph": {map[string]any{
			"approaches": []string{"ss"}, "deadline_factors": []float64{2},
		}, http.StatusBadRequest},
		"edge with one endpoint": {map[string]any{
			"approaches": []string{"ss"}, "deadline_factors": []float64{2},
			"graph": map[string]any{
				"tasks": []map[string]any{{"weight_cycles": 1}, {"weight_cycles": 2}},
				"edges": [][]int{{1}},
			},
		}, http.StatusBadRequest},
		"total work overflows": {map[string]any{
			"approaches": []string{"ss"}, "deadline_factors": []float64{2},
			"graph": map[string]any{
				"tasks": []map[string]any{{"weight_cycles": int64(1) << 62}, {"weight_cycles": int64(1) << 62}},
			},
		}, http.StatusBadRequest},
		"chain overflows": {map[string]any{
			"approaches": []string{"ss"}, "deadline_factors": []float64{2},
			"graph": map[string]any{
				"tasks": []map[string]any{{"weight_cycles": int64(1) << 62}, {"weight_cycles": int64(1) << 62}},
				"edges": [][2]int{{0, 1}},
			},
		}, http.StatusBadRequest},
		"grid too large": {map[string]any{
			"approaches": []string{"ss", "lamps", "ss+ps"}, "graph": diamondGraph(),
			"deadline_factors": []float64{1.5, 2}, // 6 cells > limit 4
		}, http.StatusRequestEntityTooLarge},
	}
	for name, c := range cases {
		status, _, raw := postSweep(t, ts, c.req)
		if status != c.want {
			t.Errorf("%s: status %d, want %d; body %s", name, status, c.want, raw)
		}
	}
}

// panickyRunner returns a Runner that panics for the given approach and
// delegates to core.RunCtx otherwise.
func panickyRunner(approach string, block chan struct{}) func(context.Context, string, *dag.Graph, core.Config) (*core.Result, error) {
	return func(ctx context.Context, a string, g *dag.Graph, cfg core.Config) (*core.Result, error) {
		if a == approach {
			if block != nil {
				<-block
			}
			panic("injected scheduler panic")
		}
		return core.RunCtx(ctx, a, g, cfg)
	}
}

// TestSchedulePanicIsolation is the acceptance check for panic hardening: a
// panicking approach yields a 500 on the first request and a non-hanging
// 500 (not a deadlock) on a concurrent duplicate, the panic counter
// increments, and the server keeps serving other work afterwards.
func TestSchedulePanicIsolation(t *testing.T) {
	release := make(chan struct{})
	ts := newTestServer(t, server.Options{Runner: panickyRunner(core.ApproachSS, release)})
	req := scheduleReq("ss", diamondGraph(), 2)

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	do := func() {
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(req)
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", &buf)
		if err != nil {
			t.Error(err)
			results <- result{}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		results <- result{resp.StatusCode, body}
	}
	go do()                           // leader: will panic inside the runner
	time.Sleep(50 * time.Millisecond) // let the leader enter the flight
	go do()                           // duplicate: coalesces onto the flight
	time.Sleep(50 * time.Millisecond) // let the duplicate block on the flight
	close(release)                    // unleash the panic

	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if r.status != http.StatusInternalServerError {
				t.Errorf("request %d: status %d, want 500; body %s", i, r.status, r.body)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("request hung after the panic: the singleflight deadlock is back")
		}
	}

	if v := metricValue(t, ts, "lampsd_panics_total"); v < 1 {
		t.Errorf("lampsd_panics_total = %g, want >= 1", v)
	}
	// The server must still serve healthy approaches.
	status, body, _ := post(t, ts, scheduleReq("lamps", diamondGraph(), 2))
	if status != http.StatusOK {
		t.Errorf("post-panic request: status %d, body %s", status, body)
	}
}

// TestSweepPanicIsolation: a panicking approach poisons only its own cells;
// the rest of the grid completes and the panics are counted.
func TestSweepPanicIsolation(t *testing.T) {
	ts := newTestServer(t, server.Options{Runner: panickyRunner(core.ApproachSS, nil)})
	req := sweepReq(diamondGraph(), []string{"ss", "lamps"}, []float64{1.5, 2, 4}, nil)
	status, lines, raw := postSweep(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, raw)
	}
	sum := lines[len(lines)-1].Summary
	if sum == nil || sum.OK != 3 || sum.Errors != 3 {
		t.Fatalf("summary %+v, want 3 ok + 3 errors", sum)
	}
	for _, line := range lines[:len(lines)-1] {
		switch line.Cell.Approach {
		case core.ApproachSS:
			if line.Status != http.StatusInternalServerError || !strings.Contains(line.Error, "panic") {
				t.Errorf("ss cell: status %d, error %q, want a 500 panic report", line.Status, line.Error)
			}
		default:
			if line.Status != http.StatusOK {
				t.Errorf("lamps cell: status %d (%s)", line.Status, line.Error)
			}
		}
	}
	if v := metricValue(t, ts, "lampsd_panics_total"); v < 3 {
		t.Errorf("lampsd_panics_total = %g, want >= 3", v)
	}
	if v := metricValue(t, ts, `lampsd_sweep_cells_total{outcome="ok"}`); v != 3 {
		t.Errorf(`lampsd_sweep_cells_total{outcome="ok"} = %g, want 3`, v)
	}
}

// slowRunner delegates to core.RunCtx after a fixed delay. The delay
// ignores ctx deliberately: the timeout tests use it to pin the worker slot
// past the request deadline, proving the server classifies correctly even
// for an uncooperative heuristic.
func slowRunner(d time.Duration) func(context.Context, string, *dag.Graph, core.Config) (*core.Result, error) {
	return func(ctx context.Context, a string, g *dag.Graph, cfg core.Config) (*core.Result, error) {
		time.Sleep(d)
		return core.RunCtx(ctx, a, g, cfg)
	}
}

// TestRequestTimeout exercises both deadline mappings: a run that outlives
// the request timeout returns 504, and a request stuck behind it in the
// queue returns 503 — both with Retry-After and without occupying the
// client for longer than the timeout plus scheduling slack.
func TestRequestTimeout(t *testing.T) {
	ts := newTestServer(t, server.Options{
		Workers:        1,
		CacheSize:      -1,
		RequestTimeout: 150 * time.Millisecond,
		Runner:         slowRunner(2 * time.Second),
	})

	type result struct {
		status     int
		retryAfter string
	}
	do := func(req map[string]any) result {
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(req)
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", &buf)
		if err != nil {
			t.Error(err)
			return result{}
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return result{resp.StatusCode, resp.Header.Get("Retry-After")}
	}

	first := make(chan result, 1)
	go func() { first <- do(scheduleReq("ss", diamondGraph(), 2)) }()
	time.Sleep(50 * time.Millisecond) // let the first request take the only slot

	// Different problem → different key → no coalescing: it queues.
	queued := do(scheduleReq("ss", diamondGraph(), 4))
	if queued.status != http.StatusServiceUnavailable {
		t.Errorf("queued request: status %d, want 503", queued.status)
	}
	if queued.retryAfter == "" {
		t.Error("queued request: missing Retry-After header")
	}

	select {
	case r := <-first:
		if r.status != http.StatusGatewayTimeout {
			t.Errorf("overlong run: status %d, want 504", r.status)
		}
		if r.retryAfter == "" {
			t.Error("overlong run: missing Retry-After header")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("first request never returned")
	}
}

// TestSweepTimeout: a sweep that cannot finish inside the request deadline
// terminates with a summary marked timed_out instead of hanging.
func TestSweepTimeout(t *testing.T) {
	ts := newTestServer(t, server.Options{
		Workers:        1,
		CacheSize:      -1,
		RequestTimeout: 100 * time.Millisecond,
		Runner:         slowRunner(500 * time.Millisecond),
	})
	req := sweepReq(diamondGraph(), []string{"ss"}, []float64{1.5, 2, 4, 8}, nil)
	start := time.Now()
	status, lines, raw := postSweep(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, raw)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("sweep took %v despite a 100ms deadline", elapsed)
	}
	if len(lines) == 0 {
		t.Fatal("empty sweep stream")
	}
	sum := lines[len(lines)-1].Summary
	if sum == nil {
		t.Fatal("stream did not end with a summary line")
	}
	if !sum.TimedOut {
		t.Errorf("summary %+v, want timed_out", *sum)
	}
	if sum.Completed >= sum.Cells {
		t.Errorf("summary reports %d/%d cells completed despite the timeout", sum.Completed, sum.Cells)
	}
}

// TestScheduleV1Alias: /schedule and /v1/schedule serve identical bytes for
// identical problems (one warms the cache for the other).
func TestScheduleV1Alias(t *testing.T) {
	ts := newTestServer(t, server.Options{})
	req := scheduleReq("lamps", diamondGraph(), 2)
	var bodies [][]byte
	for _, path := range []string{"/schedule", "/v1/schedule"} {
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(req)
		resp, err := http.Post(ts.URL+path, "application/json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", path, resp.StatusCode, body)
		}
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("/schedule and /v1/schedule diverge:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
}

// TestSweepConcurrentWithSchedules drives a sweep and individual schedule
// requests for overlapping problems at the same time; under -race this
// proves the shared execute path (cache + singleflight + pool + metrics) is
// data-race free, and every response must still be correct.
func TestSweepConcurrentWithSchedules(t *testing.T) {
	ts := newTestServer(t, server.Options{Workers: 4})
	approaches := []string{"ss", "lamps", "lamps+ps"}
	factors := []float64{1.5, 2, 4, 8}

	var bad int32
	done := make(chan struct{}, 2)
	go func() {
		defer func() { done <- struct{}{} }()
		status, lines, raw := postSweep(t, ts, sweepReq(diamondGraph(), approaches, factors, nil))
		if status != http.StatusOK {
			t.Errorf("sweep status %d, body %s", status, raw)
			atomic.AddInt32(&bad, 1)
			return
		}
		sum := lines[len(lines)-1].Summary
		if sum == nil || sum.Errors != 0 {
			t.Errorf("sweep summary %+v", sum)
			atomic.AddInt32(&bad, 1)
		}
	}()
	go func() {
		defer func() { done <- struct{}{} }()
		for i := 0; i < 24; i++ {
			a := approaches[i%len(approaches)]
			f := factors[i%len(factors)]
			status, body, _ := post(t, ts, scheduleReq(a, diamondGraph(), f))
			if status != http.StatusOK {
				t.Errorf("schedule %s/%g: status %d, body %s", a, f, status, body)
				atomic.AddInt32(&bad, 1)
			}
		}
	}()
	<-done
	<-done
	if bad != 0 {
		t.Fatalf("%d failures under concurrent mixed load", bad)
	}
}
