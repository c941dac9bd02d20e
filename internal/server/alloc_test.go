package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"lamps/internal/dag"
	"lamps/internal/taskgen"
)

// nullResponseWriter discards the response while reusing one header map, so
// AllocsPerRun sees only the handler's own allocations.
type nullResponseWriter struct{ h http.Header }

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullResponseWriter) WriteHeader(int)             {}

// TestScheduleWarmCacheHitAllocBound pins the handler-layer allocation cost
// of a warm cache hit on POST /v1/schedule. A hit never renders or marshals
// anything — the cached bytes go straight to the wire — so the remaining
// allocations are request decoding, graph construction and digest hashing.
// The budgets are bounds with headroom over the measured steady state, not
// zero; their job is to fail if the hit path ever starts re-encoding the
// response, or if decode, build or digest starts allocating per task or
// per edge: the 1000-task case costs almost exactly what the 4-task one
// does. `make alloc-gate` enforces the strict bounds (no -race).
func TestScheduleWarmCacheHitAllocBound(t *testing.T) {
	big, err := taskgen.Member(1000, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		payload []byte
		budget  float64 // about 10% over the measured 28 and 30
	}{
		{"diamond4", []byte(`{"approach":"lamps","graph":{"tasks":[{"weight_cycles":400},{"weight_cycles":300},{"weight_cycles":200},{"weight_cycles":100}],"edges":[[0,1],[0,2],[1,3],[2,3]]},"deadline_factor":1.8}`), 31},
		{"layered1000", requestBody(t, taskgen.Coarse.Scale(big)), 33},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs := warmHitAllocs(t, tc.payload)
			budget := tc.budget
			if raceEnabled {
				budget *= 4
			}
			t.Logf("warm cache hit: %.1f allocs/request (budget %.0f)", allocs, budget)
			if allocs > budget {
				t.Fatalf("warm cache hit: %.1f allocs/request, budget %.0f", allocs, budget)
			}
		})
	}
}

// warmHitAllocs serves payload once to warm the cache, checks that a second
// request is a byte-identical hit, and returns the steady-state allocations
// of one hit.
func warmHitAllocs(t *testing.T, payload []byte) float64 {
	t.Helper()
	srv := New(Options{})
	warm := httptest.NewRecorder()
	srv.handleSchedule(warm, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(payload)))
	if warm.Code != http.StatusOK {
		t.Fatalf("warming request: status %d, body %s", warm.Code, warm.Body.String())
	}
	hit := httptest.NewRecorder()
	srv.handleSchedule(hit, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(payload)))
	if hit.Code != http.StatusOK || hit.Header().Get(CacheHeader) != "hit" {
		t.Fatalf("second request: status %d, cache %q, want 200 hit", hit.Code, hit.Header().Get(CacheHeader))
	}
	if !bytes.Equal(hit.Body.Bytes(), warm.Body.Bytes()) {
		t.Fatal("cache hit bytes differ from the rendered miss")
	}

	// Steady state: reuse the request, body reader and header map so the
	// measurement covers the handler, not the test harness.
	rd := bytes.NewReader(payload)
	body := io.NopCloser(rd)
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", body)
	w := &nullResponseWriter{h: make(http.Header)}
	return testing.AllocsPerRun(200, func() {
		rd.Reset(payload)
		req.Body = body // handleSchedule wraps Body in MaxBytesReader
		srv.handleSchedule(w, req)
	})
}

// requestBody marshals a LAMPS request for g at a 2x deadline, the way a
// client library would.
func requestBody(t *testing.T, g *dag.Graph) []byte {
	t.Helper()
	spec := &graphSpec{Name: g.Name()}
	for v := 0; v < g.NumTasks(); v++ {
		spec.Tasks = append(spec.Tasks, taskSpec{WeightCycles: g.Weight(v)})
		for _, s := range g.Succs(v) {
			spec.Edges = append(spec.Edges, edgeSpec{v, int(s)})
		}
	}
	body, err := json.Marshal(&scheduleRequest{Approach: "lamps", Graph: spec, DeadlineFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	return body
}
