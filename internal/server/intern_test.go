package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lamps/internal/dag"
	"lamps/internal/graphhash"
	"lamps/internal/power"
)

// internGraphJSON is a labelled four-task graph in canonical spelling.
const internGraphJSON = `{"name":"diamond","tasks":[{"weight_cycles":3100000,"label":"src"},{"weight_cycles":6200000},{"weight_cycles":4650000},{"weight_cycles":3100000,"label":"sink"}],"edges":[[0,1],[0,2],[1,3],[2,3]]}`

// internPlatformJSON returns a three-LP plus one-HP platform block as
// Platform.WriteJSON spells it.
func internPlatformJSON(t *testing.T) string {
	t.Helper()
	lp := *power.Default70nm()
	lp.VddMax, lp.POn = 0.85, 0.04
	if err := lp.Build(); err != nil {
		t.Fatal(err)
	}
	pf, err := power.NewPlatform(
		[]power.CoreClass{{Name: "lp", Model: &lp}, {Name: "hp", Model: power.Default70nm()}},
		[]int{0, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pf.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(buf.String())
}

// internBody is a canonical /v1/schedule body on graph, with platform and
// faults blocks when they are not empty.
func internBody(approach, graph string, factor float64, platform, faults string) string {
	body := fmt.Sprintf(`{"approach":%q,"graph":%s,"deadline_factor":%v`, approach, graph, factor)
	if platform != "" {
		body += `,"platform":` + platform
	}
	if faults != "" {
		body += `,"faults":` + faults
	}
	return body + "}"
}

// TestInternHitKeyMatchesSum: a repeated body takes its graph and platform
// from the intern table, and the digest it derives from the stored graph
// state is graphhash.Sum of the problem built from scratch.
func TestInternHitKeyMatchesSum(t *testing.T) {
	pf := internPlatformJSON(t)
	for _, body := range []string{
		internBody("lamps", internGraphJSON, 2, "", ""),
		internBody("lamps+ps", internGraphJSON, 3, pf, ""),
		internBody("ss+ps", internGraphJSON, 4, pf, `{"k":1,"policy":"primary-hp-backup-lp"}`),
	} {
		srv := New(Options{})
		miss, err := srv.prepareBody(strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		hit, err := srv.prepareBody(strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		st := srv.intern.stats()
		if st.hits[internGraph] != 1 || st.misses[internGraph] != 1 {
			t.Errorf("%s: graph hits %d, misses %d, want 1 and 1", body, st.hits[internGraph], st.misses[internGraph])
		}
		if hit.g != miss.g {
			t.Errorf("%s: the repeat built its graph again", body)
		}
		if hit.cfg.Platform != miss.cfg.Platform {
			t.Errorf("%s: the repeat built its platform again", body)
		}

		// The same problem built from scratch.
		var req scheduleRequest
		if err := decodeJSON([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		cold, err := New(Options{}).prepare(&req)
		if err != nil {
			t.Fatal(err)
		}
		want := graphhash.Sum(problem(cold.approach, cold.g, cold.cfg))
		if hit.key != want || miss.key != want || cold.key != want {
			t.Errorf("%s: keys miss %s, hit %s, cold %s, want graphhash.Sum %s", body, miss.key, hit.key, cold.key, want)
		}
	}
}

// TestInternStoresOnlyBuiltCanonicalValues: a value is stored only when it
// decoded canonically and built under the server's limits, so every
// refused value is refused again, with the same error, when it comes back.
func TestInternStoresOnlyBuiltCanonicalValues(t *testing.T) {
	pf := internPlatformJSON(t)
	badPlatform := strings.Replace(pf, `"procs": [`, `"procs": ["xx",`, 1)
	cycle := strings.Replace(internGraphJSON, `[2,3]]`, `[2,3],[3,0]]`, 1)
	for _, tc := range []struct {
		name, body string
		maxTasks   int
		status     int
	}{
		{"cycle", internBody("lamps", cycle, 2, "", ""), 4, http.StatusBadRequest},
		{"over-max-tasks", internBody("lamps", internGraphJSON, 2, "", ""), 3, http.StatusRequestEntityTooLarge},
		{"non-canonical", strings.Replace(internBody("lamps", internGraphJSON, 2, "", ""), `"lamps"`, `"lamp\u0073"`, 1), 4, http.StatusOK},
		{"bad-platform", internBody("lamps", internGraphJSON, 2, badPlatform, ""), 4, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Options{MaxTasks: tc.maxTasks})
			var first []byte
			for i := 0; i < 2; i++ {
				w := httptest.NewRecorder()
				srv.handleSchedule(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(tc.body)))
				if w.Code != tc.status {
					t.Fatalf("request %d: status %d, want %d: %s", i, w.Code, tc.status, w.Body)
				}
				if i == 0 {
					first = w.Body.Bytes()
				} else if tc.status != http.StatusOK && !bytes.Equal(w.Body.Bytes(), first) {
					t.Fatalf("repeat answered %s, first %s", w.Body, first)
				}
			}
			st := srv.intern.stats()
			if st.hits[internPlatform] != 0 {
				t.Errorf("%d platform hits: a refused platform was stored", st.hits[internPlatform])
			}
			if tc.name == "bad-platform" {
				// The graph built, so it is stored; the platform is not.
				if st.hits[internGraph] != 1 || st.misses[internPlatform] != 2 {
					t.Errorf("graph hits %d, platform misses %d, want 1 and 2", st.hits[internGraph], st.misses[internPlatform])
				}
			} else if st.hits[internGraph] != 0 || st.bytes != 0 {
				t.Errorf("graph hits %d, %d bytes held: a refused graph was stored", st.hits[internGraph], st.bytes)
			}
		})
	}
}

// TestInternEvictsWithinBudget: the table stays within its budget by
// dropping the least recently used entries whole, and never stores a value
// that alone exceeds it.
func TestInternEvictsWithinBudget(t *testing.T) {
	srv := New(Options{})
	graph := func(i int) string {
		return strings.Replace(internGraphJSON, `"diamond"`, fmt.Sprintf(`"diamond-%d"`, i), 1)
	}
	serve := func(g string) {
		t.Helper()
		w := httptest.NewRecorder()
		srv.handleSchedule(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(internBody("lamps", g, 2, "", ""))))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	serve(graph(0))
	one := srv.intern.stats().bytes
	srv.intern = newInternTable(3*one + one/2) // room for three entries
	for i := 0; i < 5; i++ {
		serve(graph(i))
		if b := srv.intern.stats().bytes; b > srv.intern.budget {
			t.Fatalf("after %d graphs the table holds %d bytes, budget %d", i+1, b, srv.intern.budget)
		}
	}
	before := srv.intern.stats()
	serve(graph(4)) // most recent: kept
	serve(graph(2)) // oldest kept
	serve(graph(0)) // evicted
	after := srv.intern.stats()
	if hits := after.hits[internGraph] - before.hits[internGraph]; hits != 2 {
		t.Errorf("%d hits on the three most recent graphs and an evicted one, want 2", hits)
	}
	if misses := after.misses[internGraph] - before.misses[internGraph]; misses != 1 {
		t.Errorf("%d misses, want 1 (the evicted graph)", misses)
	}

	srv.intern = newInternTable(one - 1) // smaller than one entry
	serve(graph(0))
	serve(graph(0))
	if st := srv.intern.stats(); st.bytes != 0 || st.hits[internGraph] != 0 {
		t.Errorf("an over-budget graph was stored: %d bytes, %d hits", st.bytes, st.hits[internGraph])
	}
}

// TestInternConcurrentHits runs /v1/schedule requests on one interned
// graph and platform from many goroutines, across approaches and
// deadlines, so the shared graph and platform are read by concurrent
// engine runs (the race detector checks they are only read), and every
// answer must equal a fresh server's.
func TestInternConcurrentHits(t *testing.T) {
	pf := internPlatformJSON(t)
	var bodies []string
	for _, approach := range []string{"lamps", "lamps+ps", "ss+ps"} {
		for _, platform := range []string{"", pf} {
			for _, factor := range []float64{2, 3} {
				bodies = append(bodies, internBody(approach, internGraphJSON, factor, platform, ""))
			}
		}
	}
	want := make([][]byte, len(bodies))
	for i, body := range bodies {
		w := httptest.NewRecorder()
		New(Options{}).handleSchedule(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, w.Code, w.Body)
		}
		want[i] = w.Body.Bytes()
	}

	srv := New(Options{CacheSize: -1}) // every request runs the engine
	warm := httptest.NewRecorder()
	srv.handleSchedule(warm, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(bodies[len(bodies)-1])))
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(bodies))
	for round := 0; round < 4; round++ {
		for i, body := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := httptest.NewRecorder()
				srv.handleSchedule(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(body)))
				if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want[i]) {
					errs <- fmt.Errorf("%s: status %d, body %s\nwant %s", body, w.Code, w.Body, want[i])
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := srv.intern.stats()
	if total := uint64(4*len(bodies) + 1); st.hits[internGraph] < total-1 || st.hits[internPlatform] < total/2-1 {
		t.Errorf("graph hits %d, platform hits %d over %d requests", st.hits[internGraph], st.hits[internPlatform], total)
	}
}

// TestInternMetrics: /metrics reports the table's lookups by kind and its
// footprint.
func TestInternMetrics(t *testing.T) {
	srv := New(Options{})
	body := internBody("lamps", internGraphJSON, 2, internPlatformJSON(t), "")
	for i := 0; i < 3; i++ {
		w := httptest.NewRecorder()
		srv.handleSchedule(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(body)))
	}
	w := httptest.NewRecorder()
	srv.handleMetrics(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	text := w.Body.String()
	for _, line := range []string{
		`lampsd_intern_hits_total{kind="graph"} 2`,
		`lampsd_intern_hits_total{kind="platform"} 2`,
		`lampsd_intern_misses_total{kind="graph"} 1`,
		`lampsd_intern_misses_total{kind="platform"} 1`,
		fmt.Sprintf("lampsd_intern_bytes %d", srv.intern.stats().bytes),
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	if srv.intern.stats().bytes == 0 {
		t.Error("lampsd_intern_bytes is 0 with a graph and a platform stored")
	}
}

// TestInternTableChains holds the table's lookup to its contract on values
// that share their first internPrefix bytes, on values shorter than that,
// and on bodies where a value is followed by more bytes: a lookup finds
// exactly the stored value the body starts with, whichever of its chain
// was evicted.
func TestInternTableChains(t *testing.T) {
	g, err := func() (*dag.Graph, error) {
		b := dag.NewBuilder("g")
		b.AddTask(1)
		return b.Build()
	}()
	if err != nil {
		t.Fatal(err)
	}
	long := func(i int) string { // 70 shared bytes, then i
		return fmt.Sprintf(`{"tasks":[{"weight_cycles":1}],"edges":[],"name":"%s%d"}`, strings.Repeat("x", 30), i)
	}
	short := `{"tasks":[{"weight_cycles":1}]}`
	values := []string{long(1), long(2), long(3), short, long(10)}
	tab := newInternTable(1 << 20)
	for _, v := range values {
		tab.put(&internEntry{kind: internGraph, graph: g}, []byte(v))
	}
	for _, v := range values {
		for _, rest := range []string{v, v + `,"deadline_factor":2}`, v + "}"} {
			if e := tab.get(internGraph, []byte(rest)); e == nil || e.raw != v {
				t.Errorf("lookup of %q found %v, want %q", rest, e, v)
			}
		}
		if e := tab.get(internPlatform, []byte(v)); e != nil {
			t.Errorf("%q found as a platform", v)
		}
	}
	// Prefixes of a stored value and near misses are not found.
	for _, rest := range []string{long(1)[:len(long(1))-1], strings.Replace(long(2), "2", "4", 1), short[:len(short)-1], " " + short} {
		if e := tab.get(internGraph, []byte(rest)); e != nil {
			t.Errorf("lookup of %q found %q", rest, e.raw)
		}
	}
	// Evict the chain from every position: the middle, the head and the
	// tail of the chain of long(1), long(2), long(3) and long(10).
	evicted := map[string]bool{}
	for _, victim := range []string{long(2), long(10), long(1), long(3), short} {
		e := tab.get(internGraph, []byte(victim))
		tab.mu.Lock()
		tab.evict(e)
		tab.mu.Unlock()
		evicted[victim] = true
		for _, v := range values {
			e := tab.get(internGraph, []byte(v))
			if found := e != nil && e.raw == v; found == evicted[v] || e != nil && !found {
				t.Errorf("after evicting %q, lookup of %q found %v", victim, v, e)
			}
		}
	}
	if tab.bytes != 0 || len(tab.entries[internGraph]) != 0 || tab.head != nil || tab.tail != nil {
		t.Errorf("empty table holds %d bytes, %d keys", tab.bytes, len(tab.entries[internGraph]))
	}
}
