package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lamps/internal/core"
	"lamps/internal/dag"
	"lamps/internal/server"
)

// batchLine mirrors the /v1/batch NDJSON stream lines for assertions.
type batchLine struct {
	Index   *int            `json:"index"`
	Status  int             `json:"status"`
	Cache   string          `json:"cache"`
	Result  json.RawMessage `json:"result"`
	Error   string          `json:"error"`
	Summary *struct {
		Requests  int  `json:"requests"`
		Completed int  `json:"completed"`
		OK        int  `json:"ok"`
		Errors    int  `json:"errors"`
		Invalid   int  `json:"invalid"`
		CacheHits int  `json:"cache_hits"`
		Coalesced int  `json:"coalesced"`
		TimedOut  bool `json:"timed_out"`
	} `json:"summary"`
}

// ndjsonBody renders a sequence of request objects (or raw strings) as an
// NDJSON request body.
func ndjsonBody(t *testing.T, lines ...any) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	for _, l := range lines {
		switch v := l.(type) {
		case string:
			buf.WriteString(v)
			buf.WriteByte('\n')
		default:
			if err := json.NewEncoder(&buf).Encode(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return &buf
}

// postBatch sends a /v1/batch request and parses the NDJSON stream.
func postBatch(t *testing.T, ts *httptest.Server, body io.Reader) (int, []batchLine, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", body)
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
	var lines []batchLine
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line batchLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("parsing batch line %q: %v", sc.Bytes(), err)
		}
		lines = append(lines, line)
	}
	return resp.StatusCode, lines, raw
}

// splitBatch separates result lines (indexed by input line) from the
// trailing summary, checking stream shape along the way.
func splitBatch(t *testing.T, lines []batchLine, wantN int) (map[int]batchLine, batchLine) {
	t.Helper()
	if len(lines) == 0 {
		t.Fatal("empty batch stream")
	}
	last := lines[len(lines)-1]
	if last.Summary == nil {
		t.Fatalf("last line is not a summary: %+v", last)
	}
	byIndex := make(map[int]batchLine, len(lines)-1)
	for _, l := range lines[:len(lines)-1] {
		if l.Summary != nil {
			t.Fatal("summary line in the middle of the stream")
		}
		if l.Index == nil {
			t.Fatalf("result line without index: %+v", l)
		}
		if _, dup := byIndex[*l.Index]; dup {
			t.Fatalf("duplicate line for index %d", *l.Index)
		}
		byIndex[*l.Index] = l
	}
	if len(byIndex) != wantN {
		t.Fatalf("%d result lines, want %d", len(byIndex), wantN)
	}
	return byIndex, last
}

// chainGraph returns a small inline graph distinct from diamondGraph so
// batches can mix several graphs.
func chainGraph(n int) map[string]any {
	tasks := make([]map[string]any, n)
	for i := range tasks {
		tasks[i] = map[string]any{"weight_cycles": 3_100_000 * (1 + i%3)}
	}
	edges := make([][2]int, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return map[string]any{"name": fmt.Sprintf("chain%d", n), "tasks": tasks, "edges": edges}
}

// TestBatchMatchesScheduleBytes: every OK line of a mixed batch must carry
// exactly the bytes /v1/schedule returns for the same problem (modulo the
// trailing newline), whether computed by the batch or served from the cache
// the batch itself warmed.
func TestBatchMatchesScheduleBytes(t *testing.T) {
	ts := newTestServer(t, server.Options{Workers: 4})
	reqs := []any{
		scheduleReq(core.ApproachLAMPS, diamondGraph(), 2),
		scheduleReq(core.ApproachSSPS, chainGraph(6), 4),
		scheduleReq(core.ApproachLimitMF, diamondGraph(), 2),
		scheduleReq(core.ApproachLAMPSPS, chainGraph(9), 1.5),
	}
	status, lines, raw := postBatch(t, ts, ndjsonBody(t, reqs...))
	if status != 200 {
		t.Fatalf("batch status %d: %s", status, raw)
	}
	byIndex, last := splitBatch(t, lines, len(reqs))
	if last.Summary.OK != len(reqs) || last.Summary.Errors != 0 {
		t.Fatalf("summary %+v, want %d ok and 0 errors", last.Summary, len(reqs))
	}
	for i, req := range reqs {
		line := byIndex[i]
		if line.Status != 200 {
			t.Fatalf("line %d: status %d (%s)", i, line.Status, line.Error)
		}
		// The single-shot endpoint for the same problem: a cache hit on the
		// entry this batch run just stored, byte-identical by contract.
		st, body, src := post(t, ts, req)
		if st != 200 {
			t.Fatalf("single-shot %d: status %d (%s)", i, st, body)
		}
		if src != "hit" {
			t.Errorf("single-shot %d: cache %q, want \"hit\" — the batch did not warm the cache", i, src)
		}
		if !bytes.Equal(append([]byte(nil), line.Result...), bytes.TrimSuffix(body, []byte("\n"))) {
			t.Errorf("line %d: batch result differs from /v1/schedule body\nbatch:    %s\nschedule: %s",
				i, line.Result, body)
		}
	}

	// Second identical batch: all hits, still byte-identical.
	status, lines, raw = postBatch(t, ts, ndjsonBody(t, reqs...))
	if status != 200 {
		t.Fatalf("second batch status %d: %s", status, raw)
	}
	byIndex2, last2 := splitBatch(t, lines, len(reqs))
	if last2.Summary.CacheHits != len(reqs) {
		t.Errorf("second batch cache hits = %d, want %d", last2.Summary.CacheHits, len(reqs))
	}
	for i := range reqs {
		if !bytes.Equal(byIndex2[i].Result, byIndex[i].Result) {
			t.Errorf("line %d: cached batch result differs from computed one", i)
		}
		if byIndex2[i].Cache != "hit" {
			t.Errorf("line %d: cache %q, want \"hit\"", i, byIndex2[i].Cache)
		}
	}
}

// TestBatchMixedValidInvalid: invalid lines — wrong shape, unknown
// approach, malformed graph, weights past the cycle envelope, infeasible
// deadline — fail alone with their
// proper statuses while the valid lines complete.
func TestBatchMixedValidInvalid(t *testing.T) {
	ts := newTestServer(t, server.Options{Workers: 2})
	tight := scheduleReq(core.ApproachLAMPS, diamondGraph(), 2)
	tight["deadline_factor"] = 0.25 // infeasible: below the critical path
	reqs := []any{
		scheduleReq(core.ApproachLAMPS, diamondGraph(), 2), // 0: ok
		`{"approach":"lamps","unknown_field":1}`,           // 1: 400 wrong shape
		scheduleReq("warp-drive", diamondGraph(), 2),       // 2: 400 unknown approach
		map[string]any{ // 3: 400 cyclic graph
			"approach": "lamps", "deadline_factor": 2.0,
			"graph": map[string]any{
				"tasks": []map[string]any{{"weight_cycles": 1}, {"weight_cycles": 1}},
				"edges": [][2]int{{0, 1}, {1, 0}},
			},
		},
		tight, // 4: 422 infeasible
		scheduleReq(core.ApproachSS, chainGraph(5), 4), // 5: ok
		// 6: 400 an edge with three endpoints fails its own line only.
		`{"approach":"lamps","deadline_factor":2,"graph":{"tasks":[{"weight_cycles":1},{"weight_cycles":1}],"edges":[[0,1,7]]}}`,
		scheduleReq(core.ApproachLAMPS, diamondGraph(), 3), // 7: ok
		// 8: 400 a 2^62-cycle chain overflows the cycle envelope.
		`{"approach":"lamps","deadline_factor":2,"graph":{"tasks":[{"weight_cycles":4611686018427387904},{"weight_cycles":4611686018427387904}],"edges":[[0,1]]}}`,
		// 9: 400 a platform slot stretch of 1e12 takes it past the envelope;
		// the engine's config check rejects it, so it is an error line but
		// not one of the lines rejected before execution (invalid).
		envelopeRequest(t),
	}
	status, lines, raw := postBatch(t, ts, ndjsonBody(t, reqs...))
	if status != 200 {
		t.Fatalf("batch status %d: %s", status, raw)
	}
	byIndex, last := splitBatch(t, lines, len(reqs))
	wantStatus := map[int]int{0: 200, 1: 400, 2: 400, 3: 400, 4: 422, 5: 200, 6: 400, 7: 200, 8: 400, 9: 400}
	for i, want := range wantStatus {
		if byIndex[i].Status != want {
			t.Errorf("line %d: status %d (%s), want %d", i, byIndex[i].Status, byIndex[i].Error, want)
		}
	}
	if last.Summary.OK != 3 || last.Summary.Errors != 7 || last.Summary.Invalid != 5 {
		t.Errorf("summary %+v, want ok=3 errors=7 invalid=5", last.Summary)
	}
	if last.Summary.Completed != len(reqs) {
		t.Errorf("completed = %d, want %d", last.Summary.Completed, len(reqs))
	}
}

// TestBatchWholeRequestErrors: whole-batch failures — empty stream,
// malformed JSON that desynchronises it, too many lines — reject the batch
// with one error response instead of a partial stream.
func TestBatchWholeRequestErrors(t *testing.T) {
	ts := newTestServer(t, server.Options{Workers: 1, BatchMaxItems: 4})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty", "", 400},
		{"malformed", "{\"approach\": \"lamps\",\n", 400},
		{"too-many", strings.Repeat(`{"approach":"lamps","deadline_factor":2,"graph":{"tasks":[{"weight_cycles":1}]}}`+"\n", 5), 413},
	}
	for _, tc := range cases {
		status, _, raw := postBatch(t, ts, strings.NewReader(tc.body))
		if status != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, status, raw, tc.want)
		}
	}
}

// TestBatchPanicIsolation: a heuristic panicking on one line yields a 500
// for that line only; the rest of the batch completes and the panic is
// counted.
func TestBatchPanicIsolation(t *testing.T) {
	ts := newTestServer(t, server.Options{
		Workers: 2,
		Runner: func(ctx context.Context, a string, g *dag.Graph, cfg core.Config) (*core.Result, error) {
			if a == core.ApproachSS {
				panic("batch bomb")
			}
			return core.RunCtx(ctx, a, g, cfg)
		},
	})
	reqs := []any{
		scheduleReq(core.ApproachLAMPS, diamondGraph(), 2),
		scheduleReq(core.ApproachSS, diamondGraph(), 2), // panics
		scheduleReq(core.ApproachLAMPSPS, chainGraph(4), 2),
	}
	status, lines, raw := postBatch(t, ts, ndjsonBody(t, reqs...))
	if status != 200 {
		t.Fatalf("batch status %d: %s", status, raw)
	}
	byIndex, last := splitBatch(t, lines, len(reqs))
	if byIndex[1].Status != 500 || !strings.Contains(byIndex[1].Error, "panic") {
		t.Errorf("panicking line: status %d error %q, want 500 mentioning the panic", byIndex[1].Status, byIndex[1].Error)
	}
	for _, i := range []int{0, 2} {
		if byIndex[i].Status != 200 {
			t.Errorf("line %d: status %d (%s), want 200 despite the neighbouring panic", i, byIndex[i].Status, byIndex[i].Error)
		}
	}
	if last.Summary.OK != 2 || last.Summary.Errors != 1 {
		t.Errorf("summary %+v, want ok=2 errors=1", last.Summary)
	}
	if got := metricValue(t, ts, "lampsd_panics_total"); got < 1 {
		t.Errorf("lampsd_panics_total = %g, want >= 1", got)
	}
}

// TestBatchDisconnectCancelsUnstartedLines: when the client disconnects
// mid-batch, lines that have not been dispatched yet must never start. A
// single worker plus a runner that blocks until released serialises the
// batch so the test can observe exactly how many lines ran.
func TestBatchDisconnectCancelsUnstartedLines(t *testing.T) {
	const n = 8
	var started atomic.Int32
	release := make(chan struct{})
	var releaseOnce sync.Once
	firstRunning := make(chan struct{})
	ts := newTestServer(t, server.Options{
		Workers: 1,
		Runner: func(ctx context.Context, a string, g *dag.Graph, cfg core.Config) (*core.Result, error) {
			if started.Add(1) == 1 {
				close(firstRunning)
			}
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil, ctx.Err()
		},
	})

	// Distinct problems (different deadline factors) so no two lines
	// coalesce onto one flight.
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		if err := json.NewEncoder(&buf).Encode(scheduleReq(core.ApproachLAMPS, diamondGraph(), 2+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/batch", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	<-firstRunning
	cancel() // client walks away while line 0 is still executing
	resp.Body.Close()
	releaseOnce.Do(func() { close(release) })

	// The server tears the batch down asynchronously; wait for the dispatch
	// loop to quiesce, then assert nothing new started.
	deadline := time.After(2 * time.Second)
	for {
		n1 := started.Load()
		select {
		case <-deadline:
			t.Fatalf("batch did not quiesce; %d lines started", n1)
		case <-time.After(100 * time.Millisecond):
		}
		if started.Load() == n1 {
			break
		}
	}
	if got := started.Load(); got >= n {
		t.Fatalf("all %d lines ran despite the disconnect; unstarted lines must be cancelled", got)
	} else {
		t.Logf("%d of %d lines started before the disconnect took effect", got, n)
	}
}
