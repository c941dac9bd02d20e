package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lamps/internal/core"
	"lamps/internal/mpeg"
	"lamps/internal/power"
	"lamps/internal/server"
)

// newTestServer starts an httptest server around a fresh Server with quiet
// logging.
func newTestServer(t *testing.T, opts server.Options) *httptest.Server {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ts := httptest.NewServer(server.New(opts).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// post sends a /schedule request and returns status, body and the cache
// header.
func post(t *testing.T, ts *httptest.Server, reqBody any) (int, []byte, string) {
	t.Helper()
	var buf bytes.Buffer
	switch b := reqBody.(type) {
	case string:
		buf.WriteString(b)
	default:
		if err := json.NewEncoder(&buf).Encode(reqBody); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+"/schedule", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get(server.CacheHeader)
}

// scheduleResp mirrors the response JSON for assertions.
type scheduleResp struct {
	Approach string `json:"approach"`
	Key      string `json:"key"`
	Graph    struct {
		Name  string `json:"name"`
		Tasks int    `json:"tasks"`
		Edges int    `json:"edges"`
	} `json:"graph"`
	NumProcs int `json:"num_procs"`
	Level    struct {
		Index  int     `json:"index"`
		Vdd    float64 `json:"vdd"`
		FreqHz float64 `json:"freq_hz"`
		Norm   float64 `json:"f_over_fmax"`
	} `json:"level"`
	Energy struct {
		TotalJ    float64 `json:"total_j"`
		ActiveJ   float64 `json:"active_j"`
		Shutdowns int     `json:"shutdowns"`
	} `json:"energy"`
	Deadline float64 `json:"deadline_sec"`
	Makespan float64 `json:"makespan_sec"`
	Tasks    []struct {
		Task         int    `json:"task"`
		Label        string `json:"label,omitempty"`
		Proc         int32  `json:"proc"`
		StartCycles  int64  `json:"start_cycles"`
		FinishCycles int64  `json:"finish_cycles"`
	} `json:"placement"`
	Stats struct {
		SchedulesBuilt  int `json:"schedules_built"`
		LevelsEvaluated int `json:"levels_evaluated"`
	} `json:"stats"`
}

func decodeResp(t *testing.T, body []byte) scheduleResp {
	t.Helper()
	var r scheduleResp
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("decoding response %q: %v", body, err)
	}
	return r
}

// diamondGraph is a small well-formed inline graph: a -> {b, c} -> d, with
// millisecond-scale weights at f_max.
func diamondGraph() map[string]any {
	return map[string]any{
		"name": "diamond",
		"tasks": []map[string]any{
			{"weight_cycles": 3_100_000, "label": "a"},
			{"weight_cycles": 6_200_000, "label": "b"},
			{"weight_cycles": 4_650_000, "label": "c"},
			{"weight_cycles": 3_100_000, "label": "d"},
		},
		"edges": [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
	}
}

func scheduleReq(approach string, graph map[string]any, factor float64) map[string]any {
	return map[string]any{
		"approach":        approach,
		"graph":           graph,
		"deadline_factor": factor,
	}
}

func TestHappyPathEveryApproach(t *testing.T) {
	ts := newTestServer(t, server.Options{})
	for _, approach := range []string{"ss", "lamps", "ss+ps", "lamps+ps", "limit-sf", "limit-mf"} {
		status, body, _ := post(t, ts, scheduleReq(approach, diamondGraph(), 2))
		if status != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", approach, status, body)
		}
		r := decodeResp(t, body)
		if r.Energy.TotalJ <= 0 {
			t.Errorf("%s: non-positive energy %g", approach, r.Energy.TotalJ)
		}
		if r.Key == "" {
			t.Errorf("%s: empty cache key", approach)
		}
		if r.Graph.Tasks != 4 || r.Graph.Edges != 4 {
			t.Errorf("%s: graph summary %+v", approach, r.Graph)
		}
		isLimit := strings.HasPrefix(approach, "limit")
		if isLimit {
			if len(r.Tasks) != 0 {
				t.Errorf("%s: bounds must not return a placement", approach)
			}
			continue
		}
		if len(r.Tasks) != 4 {
			t.Errorf("%s: placement has %d tasks, want 4", approach, len(r.Tasks))
		}
		if r.NumProcs < 1 {
			t.Errorf("%s: num_procs = %d", approach, r.NumProcs)
		}
		if r.Makespan <= 0 || r.Makespan > r.Deadline*(1+1e-9) {
			t.Errorf("%s: makespan %g vs deadline %g", approach, r.Makespan, r.Deadline)
		}
	}
}

func TestSTGInput(t *testing.T) {
	ts := newTestServer(t, server.Options{})
	stgText := "3\n0 0 0\n1 3100000 1 0\n2 6200000 1 1\n3 3100000 1 2\n4 0 1 3\n"
	status, body, _ := post(t, ts, map[string]any{
		"approach":     "ss",
		"stg":          stgText,
		"deadline_sec": 0.05,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	r := decodeResp(t, body)
	if r.Graph.Tasks != 3 {
		t.Errorf("graph has %d tasks, want 3 (dummies spliced)", r.Graph.Tasks)
	}
	// A chain occupies one processor.
	if r.NumProcs != 1 {
		t.Errorf("num_procs = %d, want 1", r.NumProcs)
	}
}

// TestCacheHitDeterminism asserts the core caching contract: the same
// problem twice yields byte-identical bodies, the second from the cache,
// and the hit counter increments.
func TestCacheHitDeterminism(t *testing.T) {
	ts := newTestServer(t, server.Options{})
	req := scheduleReq("lamps+ps", diamondGraph(), 2)

	status1, body1, src1 := post(t, ts, req)
	if status1 != http.StatusOK || src1 != "miss" {
		t.Fatalf("first request: status %d, cache %q", status1, src1)
	}
	status2, body2, src2 := post(t, ts, req)
	if status2 != http.StatusOK || src2 != "hit" {
		t.Fatalf("second request: status %d, cache %q", status2, src2)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("cache hit is not byte-identical:\n%s\nvs\n%s", body1, body2)
	}
	if hits := metricValue(t, ts, "lampsd_cache_hits_total"); hits < 1 {
		t.Errorf("lampsd_cache_hits_total = %g, want >= 1", hits)
	}

	// A structurally identical graph under a different name and labels must
	// also hit: names are presentation metadata.
	renamed := diamondGraph()
	renamed["name"] = "renamed-diamond"
	for _, tk := range renamed["tasks"].([]map[string]any) {
		delete(tk, "label")
	}
	_, _, src3 := post(t, ts, scheduleReq("lamps+ps", renamed, 2))
	if src3 != "hit" {
		t.Errorf("structurally identical renamed graph: cache %q, want hit", src3)
	}
}

func TestInfeasibleDeadlineIs422(t *testing.T) {
	ts := newTestServer(t, server.Options{})
	for _, approach := range []string{"ss", "lamps", "limit-sf"} {
		status, body, _ := post(t, ts, map[string]any{
			"approach":     approach,
			"graph":        diamondGraph(),
			"deadline_sec": 1e-9, // far below CPL/f_max
		})
		if status != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422; body %s", approach, status, body)
		}
		var e struct {
			Error  string `json:"error"`
			Status int    `json:"status"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Status != 422 || e.Error == "" {
			t.Errorf("%s: malformed error body %s", approach, body)
		}
	}
}

func TestMalformedRequestsAre400(t *testing.T) {
	ts := newTestServer(t, server.Options{})
	cases := map[string]any{
		"bad json": `{"approach": "lamps",`,
		"cycle": scheduleReq("lamps", map[string]any{
			"tasks": []map[string]any{{"weight_cycles": 1}, {"weight_cycles": 2}},
			"edges": [][2]int{{0, 1}, {1, 0}},
		}, 2),
		"self edge": scheduleReq("lamps", map[string]any{
			"tasks": []map[string]any{{"weight_cycles": 1}},
			"edges": [][2]int{{0, 0}},
		}, 2),
		"duplicate edge": scheduleReq("lamps", map[string]any{
			"tasks": []map[string]any{{"weight_cycles": 1}, {"weight_cycles": 2}},
			"edges": [][2]int{{0, 1}, {0, 1}},
		}, 2),
		"edge out of range": scheduleReq("lamps", map[string]any{
			"tasks": []map[string]any{{"weight_cycles": 1}},
			"edges": [][2]int{{0, 5}},
		}, 2),
		"non-positive weight": scheduleReq("lamps", map[string]any{
			"tasks": []map[string]any{{"weight_cycles": 0}},
		}, 2),
		"empty graph": scheduleReq("lamps", map[string]any{
			"tasks": []map[string]any{},
		}, 2),
		"unknown approach": scheduleReq("warp-drive", diamondGraph(), 2),
		"unknown field": map[string]any{
			"approach": "lamps", "graph": diamondGraph(),
			"deadline_factor": 2, "surprise": true,
		},
		"both graph and stg": map[string]any{
			"approach": "lamps", "graph": diamondGraph(), "stg": "1\n",
			"deadline_factor": 2,
		},
		"no deadline":    map[string]any{"approach": "lamps", "graph": diamondGraph()},
		"both deadlines": map[string]any{"approach": "lamps", "graph": diamondGraph(), "deadline_sec": 1, "deadline_factor": 2},
		"malformed stg":  map[string]any{"approach": "lamps", "stg": "not a number\n", "deadline_factor": 2},
		"negative max_procs": map[string]any{
			"approach": "lamps", "graph": diamondGraph(),
			"deadline_factor": 2, "max_procs": -1,
		},
		// 1<<32 truncates to task 0 in an int32: it must not alias edge 0->1.
		"edge endpoint past int32": `{"approach":"lamps","deadline_factor":2,` +
			`"graph":{"tasks":[{"weight_cycles":1},{"weight_cycles":2}],"edges":[[4294967296,1]]}}`,
		"edge with three endpoints": `{"approach":"lamps","deadline_factor":2,` +
			`"graph":{"tasks":[{"weight_cycles":1},{"weight_cycles":2}],"edges":[[0,1,7]]}}`,
		"edge with one endpoint": `{"approach":"lamps","deadline_factor":2,` +
			`"graph":{"tasks":[{"weight_cycles":1},{"weight_cycles":2}],"edges":[[1]]}}`,
	}
	for name, req := range cases {
		status, body, _ := post(t, ts, req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400; body %s", name, status, body)
		}
	}
}

func TestOversizedRequestsAre413(t *testing.T) {
	ts := newTestServer(t, server.Options{MaxTasks: 8, MaxBodyBytes: 64 << 10})

	tasks := make([]map[string]any, 9)
	for i := range tasks {
		tasks[i] = map[string]any{"weight_cycles": 1000}
	}
	status, body, _ := post(t, ts, scheduleReq("lamps", map[string]any{"tasks": tasks}, 2))
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("too many tasks: status %d, want 413; body %s", status, body)
	}

	// STG declaring more tasks than the limit, still within the body limit.
	var sb strings.Builder
	sb.WriteString("9\n0 0 0\n")
	for i := 1; i <= 9; i++ {
		fmt.Fprintf(&sb, "%d 1000 1 %d\n", i, i-1)
	}
	sb.WriteString("10 0 1 9\n")
	status, body, _ = post(t, ts, map[string]any{"approach": "ss", "stg": sb.String(), "deadline_factor": 2})
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized stg: status %d, want 413; body %s", status, body)
	}

	// A body over MaxBodyBytes entirely.
	big := `{"approach":"lamps","deadline_factor":2,"stg":"` + strings.Repeat("x", 70<<10) + `"}`
	status, body, _ = post(t, ts, big)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413; body %s", status, body)
	}

	// A valid request whose body runs past the limit only in trailing
	// whitespace: the limit is on the body, not on the first JSON value.
	padded := `{"approach":"lamps","deadline_factor":2,"graph":{"tasks":[{"weight_cycles":1000}]}}` +
		strings.Repeat(" ", 200<<10)
	status, body, _ = post(t, ts, padded)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized padded body: status %d, want 413; body %s", status, body)
	}
}

// TestMPEGMatchesCLI is the serving-equals-library acceptance check: the
// MPEG example graph at a 2x deadline must produce exactly the result
// cmd/lamps prints for the same input. cmd/lamps delegates to core.Run with
// core.DeadlineFactor, so that is the reference computed here.
func TestMPEGMatchesCLI(t *testing.T) {
	ts := newTestServer(t, server.Options{})
	g := mpeg.Fig9()
	spec := map[string]any{"name": "mpeg"}
	var tasks []map[string]any
	for v := 0; v < g.NumTasks(); v++ {
		tasks = append(tasks, map[string]any{"weight_cycles": g.Weight(v), "label": g.Label(v)})
	}
	var edges [][2]int
	for v := 0; v < g.NumTasks(); v++ {
		for _, s := range g.Succs(v) {
			edges = append(edges, [2]int{v, int(s)})
		}
	}
	spec["tasks"], spec["edges"] = tasks, edges

	m := power.Default70nm()
	cfg := core.DeadlineFactor(g, m, 2)
	for _, approach := range core.Approaches {
		want, err := core.Run(approach, g, cfg)
		if err != nil {
			t.Fatalf("core.Run(%s): %v", approach, err)
		}
		status, body, _ := post(t, ts, scheduleReq(approach, spec, 2))
		if status != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", approach, status, body)
		}
		r := decodeResp(t, body)
		if !closeEnough(r.Energy.TotalJ, want.TotalEnergy()) {
			t.Errorf("%s: energy %g via HTTP, %g via core.Run", approach, r.Energy.TotalJ, want.TotalEnergy())
		}
		if r.NumProcs != want.NumProcs {
			t.Errorf("%s: num_procs %d via HTTP, %d via core.Run", approach, r.NumProcs, want.NumProcs)
		}
		if r.Level.Index != want.Level.Index {
			t.Errorf("%s: level %d via HTTP, %d via core.Run", approach, r.Level.Index, want.Level.Index)
		}
	}
}

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// TestConcurrentMixedLoad fires 48 concurrent requests — duplicates of a
// handful of problems across approaches — and verifies every response is
// correct (matching an independently computed reference) and that the
// cache served at least one request. Run under -race this also proves the
// serving path is data-race free.
func TestConcurrentMixedLoad(t *testing.T) {
	ts := newTestServer(t, server.Options{Workers: 4})

	graphs := []map[string]any{diamondGraph()}
	{
		// A second, wider graph: fork-join over 6 parallel tasks.
		tasks := []map[string]any{{"weight_cycles": 3_100_000}}
		edges := [][2]int{}
		for i := 1; i <= 6; i++ {
			tasks = append(tasks, map[string]any{"weight_cycles": int64(i) * 1_550_000})
			edges = append(edges, [2]int{0, i})
		}
		tasks = append(tasks, map[string]any{"weight_cycles": 3_100_000})
		for i := 1; i <= 6; i++ {
			edges = append(edges, [2]int{i, 7})
		}
		graphs = append(graphs, map[string]any{"name": "forkjoin", "tasks": tasks, "edges": edges})
	}
	approaches := []string{"ss", "lamps", "ss+ps", "lamps+ps", "limit-sf", "limit-mf"}

	// Reference responses, computed sequentially first. This pre-warms the
	// cache, so the concurrent wave below is guaranteed some hits; its
	// duplicates exercise hit and single-flight paths concurrently.
	type problem struct {
		req  map[string]any
		want []byte
	}
	var problems []problem
	for _, g := range graphs {
		for _, a := range approaches {
			req := scheduleReq(a, g, 2)
			status, body, _ := post(t, ts, req)
			if status != http.StatusOK {
				t.Fatalf("reference %s: status %d, body %s", a, status, body)
			}
			problems = append(problems, problem{req, body})
		}
	}

	const concurrent = 48
	var wg sync.WaitGroup
	errs := make(chan error, concurrent)
	for i := 0; i < concurrent; i++ {
		p := problems[i%len(problems)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(p.req); err != nil {
				errs <- err
				return
			}
			resp, err := http.Post(ts.URL+"/schedule", "application/json", &buf)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			if !bytes.Equal(body, p.want) {
				errs <- fmt.Errorf("response diverges from reference:\n%s\nvs\n%s", body, p.want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if hits := metricValue(t, ts, "lampsd_cache_hits_total"); hits <= 0 {
		t.Errorf("lampsd_cache_hits_total = %g, want > 0", hits)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, server.Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: status %d, body %s", resp.StatusCode, body)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t, server.Options{})
	resp, err := http.Get(ts.URL + "/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /schedule: status %d, want 405", resp.StatusCode)
	}
}

func TestMetricsExposition(t *testing.T) {
	ts := newTestServer(t, server.Options{})
	req := scheduleReq("lamps", diamondGraph(), 2)
	post(t, ts, req) // miss
	post(t, ts, req) // hit
	post(t, ts, map[string]any{"approach": "nope", "graph": diamondGraph(), "deadline_factor": 2})

	text := metricsText(t, ts)
	for _, want := range []string{
		`lampsd_requests_total{path="/schedule",code="200"} 2`,
		`lampsd_requests_total{path="/schedule",code="400"} 1`,
		"lampsd_cache_hits_total 1",
		"lampsd_cache_misses_total",
		"lampsd_schedules_built_total",
		"lampsd_levels_evaluated_total",
		`lampsd_schedule_seconds_count{approach="LAMPS"} 1`,
		"lampsd_cache_enabled 1",
		`lampsd_admission_admitted_total{class="standard"} 1`,
		`lampsd_admission_shed_total{class="standard",reason="queue-full"} 0`,
		`lampsd_admission_waiting{class="micro"} 0`,
		`lampsd_queue_wait_seconds_count{class="standard"} 1`,
		`lampsd_retry_after_hint_seconds{class="heavy"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	if v := metricValue(t, ts, "lampsd_schedules_built_total"); v <= 0 {
		t.Errorf("lampsd_schedules_built_total = %g, want > 0", v)
	}
}

// metricsText fetches /metrics.
func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricValue extracts one unlabelled counter/gauge value from /metrics.
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(metricsText(t, ts), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}
