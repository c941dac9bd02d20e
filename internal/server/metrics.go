package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"

	"lamps/internal/core"
)

// latencyBuckets are the histogram bucket upper bounds for durations, in
// seconds. Scheduling runs span sub-millisecond tiny graphs to multi-second
// 5000-task searches, so the buckets cover five decades.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// effortBuckets are the bucket upper bounds for per-run search-effort
// counts (schedules built, levels evaluated per scheduling run).
var effortBuckets = []float64{
	1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2500, 5000,
}

// histogram is a fixed-bucket cumulative histogram.
type histogram struct {
	buckets []float64 // upper bounds, ascending
	counts  []uint64  // len(buckets)+1; last bucket = +Inf
	sum     float64
	count   uint64
}

func newHistogram(buckets []float64) *histogram {
	return &histogram{buckets: buckets, counts: make([]uint64, len(buckets)+1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// quantile returns an upper bound on the q-quantile of the observed values:
// the upper bound of the bucket where the cumulative count crosses
// ceil(q·count). Observations in the overflow (+Inf) bucket clamp to the
// largest finite bound. Returns 0 with no observations.
func (h *histogram) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, ub := range h.buckets {
		cum += h.counts[i]
		if cum >= target {
			return ub
		}
	}
	return h.buckets[len(h.buckets)-1]
}

// clone copies the histogram so callers can render it outside the owner's
// lock.
func (h *histogram) clone() histogram {
	c := *h
	c.counts = append([]uint64(nil), h.counts...)
	return c
}

// write renders the histogram in Prometheus text exposition form. labels is
// the rendered label set including braces-internal text (e.g. `approach="x",`)
// or empty.
func (h *histogram) write(w io.Writer, name, labels string) {
	var cum uint64
	for i, ub := range h.buckets {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, labels, ub, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, h.count)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
		fmt.Fprintf(w, "%s_count %d\n", name, h.count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels[:len(labels)-1], h.sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels[:len(labels)-1], h.count)
	}
}

// metrics aggregates the server's observability counters. All methods are
// safe for concurrent use.
type metrics struct {
	mu sync.Mutex

	requests map[requestKey]uint64

	coalesced uint64 // requests served by another request's in-flight run

	panics uint64 // recovered panics in request/cell execution paths

	sweepCells outcomes   // sweep cell lines
	batchLines outcomes   // batch lines (invalid lines count as errors)
	batchItems *histogram // request lines per /v1/batch call

	runsCancelled uint64 // runs aborted because every waiter departed

	verifyFailures uint64 // runs rejected by the self-check verifier

	latency map[string]*histogram // approach -> scheduling latency (cache misses only)

	queueShed *histogram // time spent queueing by requests shed with 503

	schedulesBuilt  *histogram // per-run schedules used, built or restored
	levelsEvaluated *histogram // per-run (schedule, level) evaluations

	effort core.Stats // aggregated search effort across all completed runs
}

// requestKey labels one requests-total counter series.
type requestKey struct {
	path string
	code int
}

func newMetrics() *metrics {
	return &metrics{
		requests:        make(map[requestKey]uint64),
		latency:         make(map[string]*histogram),
		queueShed:       newHistogram(latencyBuckets),
		schedulesBuilt:  newHistogram(effortBuckets),
		levelsEvaluated: newHistogram(effortBuckets),
		batchItems:      newHistogram(effortBuckets),
	}
}

func (m *metrics) recordRequest(path string, status int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[requestKey{path, status}]++
}

func (m *metrics) recordCoalesced() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.coalesced++
}

// recordPanic counts one recovered panic. Each actual panic is counted
// exactly once, by the goroutine that recovered it — coalesced waiters that
// merely observe the failure do not count again.
func (m *metrics) recordPanic() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.panics++
}

// outcomes counts the lines of one stream endpoint by outcome: a result
// or an error.
type outcomes struct{ ok, err uint64 }

// recordLine counts one /v1/sweep or /v1/batch line on its endpoint's
// counter. A batch line that failed before it could execute counts as an
// error: the client sees an error line either way.
func (m *metrics) recordLine(o *outcomes, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ok {
		o.ok++
	} else {
		o.err++
	}
}

// write renders the counter as one Prometheus series with an outcome label.
func (o outcomes) write(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	fmt.Fprintf(w, "%s{outcome=\"ok\"} %d\n%s{outcome=\"error\"} %d\n", name, o.ok, name, o.err)
}

// recordBatch records one whole /v1/batch call with its request-line count,
// the batch-size distribution capacity planning needs.
func (m *metrics) recordBatch(items int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batchItems.observe(float64(items))
}

// recordRun records one completed scheduling run (a cache miss that executed
// the heuristic): its latency and its search effort.
func (m *metrics) recordRun(approach string, sec float64, stats core.Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.latency[approach]
	if h == nil {
		h = newHistogram(latencyBuckets)
		m.latency[approach] = h
	}
	h.observe(sec)
	m.effort.Add(stats)
}

// recordRunCancelled counts one run aborted by waiter departure (its
// partial effort is still reported through recordStages).
func (m *metrics) recordRunCancelled() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runsCancelled++
}

// recordVerifyFailure counts one scheduling run whose result the
// independent self-check verifier rejected (Options.SelfCheck). Any
// non-zero value is an alarm: the serving binary produced a schedule or an
// energy figure its own first-principles checker contradicts.
func (m *metrics) recordVerifyFailure() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.verifyFailures++
}

// recordQueueShed records one request shed while queueing for a worker slot
// (a 503), with the time it spent waiting — the data Retry-After tuning
// needs.
func (m *metrics) recordQueueShed(waitSec float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queueShed.observe(waitSec)
}

// recordStages records one run's per-stage search effort, fed live by the
// Observer→metrics adapter; unlike recordRun it fires for cancelled runs
// too, with whatever work they managed.
func (m *metrics) recordStages(schedules, levels int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.schedulesBuilt.observe(float64(schedules))
	m.levelsEvaluated.observe(float64(levels))
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// handleMetrics renders the counters in the Prometheus text exposition
// format (hand-rolled: the repo is standard-library only).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	m := s.metrics
	m.mu.Lock()
	defer m.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	fmt.Fprintf(w, "# HELP lampsd_requests_total Requests served, by path and status code.\n")
	fmt.Fprintf(w, "# TYPE lampsd_requests_total counter\n")
	keys := make([]requestKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].path != keys[j].path {
			return keys[i].path < keys[j].path
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		fmt.Fprintf(w, "lampsd_requests_total{path=%q,code=\"%d\"} %d\n", k.path, k.code, m.requests[k])
	}

	hits, misses, evictions := s.cache.Stats()
	fmt.Fprintf(w, "# HELP lampsd_cache_hits_total Schedule results served from the LRU cache.\n")
	fmt.Fprintf(w, "# TYPE lampsd_cache_hits_total counter\n")
	fmt.Fprintf(w, "lampsd_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "# TYPE lampsd_cache_misses_total counter\n")
	fmt.Fprintf(w, "lampsd_cache_misses_total %d\n", misses)
	fmt.Fprintf(w, "# TYPE lampsd_cache_evictions_total counter\n")
	fmt.Fprintf(w, "lampsd_cache_evictions_total %d\n", evictions)
	fmt.Fprintf(w, "# TYPE lampsd_cache_entries gauge\n")
	fmt.Fprintf(w, "lampsd_cache_entries %d\n", s.cache.Len())
	fmt.Fprintf(w, "# HELP lampsd_cache_enabled 1 when the LRU result cache is active, 0 when disabled (capacity 0): a disabled cache reports no hit/miss traffic at all.\n")
	fmt.Fprintf(w, "# TYPE lampsd_cache_enabled gauge\n")
	fmt.Fprintf(w, "lampsd_cache_enabled %d\n", boolToInt(s.cache.Enabled()))

	if s.store != nil {
		st := s.store.Stats()
		fmt.Fprintf(w, "# HELP lampsd_store_loaded_total Records recovered from the persistent result store on startup.\n")
		fmt.Fprintf(w, "# TYPE lampsd_store_loaded_total counter\n")
		fmt.Fprintf(w, "lampsd_store_loaded_total %d\n", st.Loaded)
		fmt.Fprintf(w, "# HELP lampsd_store_appended_total Records appended to the persistent result store by this process.\n")
		fmt.Fprintf(w, "# TYPE lampsd_store_appended_total counter\n")
		fmt.Fprintf(w, "lampsd_store_appended_total %d\n", st.Appended)
		fmt.Fprintf(w, "# HELP lampsd_store_dropped_tails_total Segments whose truncated or corrupt tail was detected and dropped on startup.\n")
		fmt.Fprintf(w, "# TYPE lampsd_store_dropped_tails_total counter\n")
		fmt.Fprintf(w, "lampsd_store_dropped_tails_total %d\n", st.DroppedTails)
		fmt.Fprintf(w, "# HELP lampsd_store_stale_segments_total Segments skipped wholesale because their version stamp no longer matches.\n")
		fmt.Fprintf(w, "# TYPE lampsd_store_stale_segments_total counter\n")
		fmt.Fprintf(w, "lampsd_store_stale_segments_total %d\n", st.Stale)
	}

	fmt.Fprintf(w, "# HELP lampsd_admission_admitted_total Requests that reached a worker slot, by cost class.\n")
	fmt.Fprintf(w, "# TYPE lampsd_admission_admitted_total counter\n")
	for _, q := range s.admission.all() {
		_, admitted, _, _, _ := q.snapshot()
		fmt.Fprintf(w, "lampsd_admission_admitted_total{class=%q} %d\n", q.name, admitted)
	}
	fmt.Fprintf(w, "# HELP lampsd_admission_shed_total Requests shed by admission control, by cost class and reason (queue-full = 429 before queueing, timeout = 503 after queueing).\n")
	fmt.Fprintf(w, "# TYPE lampsd_admission_shed_total counter\n")
	for _, q := range s.admission.all() {
		_, _, full, timeout, _ := q.snapshot()
		fmt.Fprintf(w, "lampsd_admission_shed_total{class=%q,reason=\"queue-full\"} %d\n", q.name, full)
		fmt.Fprintf(w, "lampsd_admission_shed_total{class=%q,reason=\"timeout\"} %d\n", q.name, timeout)
	}
	fmt.Fprintf(w, "# HELP lampsd_admission_waiting Requests currently queued for a worker slot, by cost class.\n")
	fmt.Fprintf(w, "# TYPE lampsd_admission_waiting gauge\n")
	for _, q := range s.admission.all() {
		_, _, _, _, depth := q.snapshot()
		fmt.Fprintf(w, "lampsd_admission_waiting{class=%q} %d\n", q.name, depth)
	}
	fmt.Fprintf(w, "# HELP lampsd_queue_wait_seconds Observed queue waits by cost class (admitted and shed requests alike) — the distribution Retry-After hints derive from.\n")
	fmt.Fprintf(w, "# TYPE lampsd_queue_wait_seconds histogram\n")
	for _, q := range s.admission.all() {
		waits, _, _, _, _ := q.snapshot()
		waits.write(w, "lampsd_queue_wait_seconds", fmt.Sprintf("class=%q,", q.name))
	}
	fmt.Fprintf(w, "# HELP lampsd_retry_after_hint_seconds The Retry-After a request shed right now would receive, by cost class.\n")
	fmt.Fprintf(w, "# TYPE lampsd_retry_after_hint_seconds gauge\n")
	for _, q := range s.admission.all() {
		fmt.Fprintf(w, "lampsd_retry_after_hint_seconds{class=%q} %d\n", q.name, q.retryAfterSeconds())
	}

	fmt.Fprintf(w, "# HELP lampsd_coalesced_total Requests coalesced onto another request's in-flight scheduling run.\n")
	fmt.Fprintf(w, "# TYPE lampsd_coalesced_total counter\n")
	fmt.Fprintf(w, "lampsd_coalesced_total %d\n", m.coalesced)

	fmt.Fprintf(w, "# HELP lampsd_panics_total Panics recovered in request and sweep-cell execution paths.\n")
	fmt.Fprintf(w, "# TYPE lampsd_panics_total counter\n")
	fmt.Fprintf(w, "lampsd_panics_total %d\n", m.panics)

	fmt.Fprintf(w, "# HELP lampsd_runs_cancelled_total Scheduling runs cancelled because every waiter departed (timeout or disconnect).\n")
	fmt.Fprintf(w, "# TYPE lampsd_runs_cancelled_total counter\n")
	fmt.Fprintf(w, "lampsd_runs_cancelled_total %d\n", m.runsCancelled)

	fmt.Fprintf(w, "# HELP lampsd_verify_failures_total Scheduling runs rejected by the independent self-check verifier (-selfcheck); any non-zero value is an alarm.\n")
	fmt.Fprintf(w, "# TYPE lampsd_verify_failures_total counter\n")
	fmt.Fprintf(w, "lampsd_verify_failures_total %d\n", m.verifyFailures)

	fmt.Fprintf(w, "# HELP lampsd_queue_shed_seconds Time requests shed with 503 spent queueing for a worker slot.\n")
	fmt.Fprintf(w, "# TYPE lampsd_queue_shed_seconds histogram\n")
	m.queueShed.write(w, "lampsd_queue_shed_seconds", "")

	m.sweepCells.write(w, "lampsd_sweep_cells_total", "Sweep grid cells evaluated, by outcome.")
	m.batchLines.write(w, "lampsd_batch_lines_total", "Batch request lines served, by outcome.")

	fmt.Fprintf(w, "# HELP lampsd_batch_items Request lines per /v1/batch call.\n")
	fmt.Fprintf(w, "# TYPE lampsd_batch_items histogram\n")
	m.batchItems.write(w, "lampsd_batch_items", "")

	fmt.Fprintf(w, "# HELP lampsd_schedules_built_total Schedules used (one per distinct processor count of a run, built or restored from the schedule memo) across all completed runs (core.Stats).\n")
	fmt.Fprintf(w, "# TYPE lampsd_schedules_built_total counter\n")
	fmt.Fprintf(w, "lampsd_schedules_built_total %d\n", m.effort.SchedulesBuilt)
	fmt.Fprintf(w, "# HELP lampsd_levels_evaluated_total Energy evaluations of (schedule, level) pairs across all completed runs (core.Stats).\n")
	fmt.Fprintf(w, "# TYPE lampsd_levels_evaluated_total counter\n")
	fmt.Fprintf(w, "lampsd_levels_evaluated_total %d\n", m.effort.LevelsEvaluated)

	fmt.Fprintf(w, "# HELP lampsd_schedules_built Per-run schedules used, built or restored from the schedule memo, cancelled runs included (Observer feed).\n")
	fmt.Fprintf(w, "# TYPE lampsd_schedules_built histogram\n")
	m.schedulesBuilt.write(w, "lampsd_schedules_built", "")
	fmt.Fprintf(w, "# HELP lampsd_levels_evaluated Per-run (schedule, level) energy evaluations, cancelled runs included (Observer feed).\n")
	fmt.Fprintf(w, "# TYPE lampsd_levels_evaluated histogram\n")
	m.levelsEvaluated.write(w, "lampsd_levels_evaluated", "")

	ms := s.memo.Stats()
	fmt.Fprintf(w, "# HELP lampsd_schedule_memo_hits_total Schedules restored from the cross-request schedule memo instead of list-scheduled.\n")
	fmt.Fprintf(w, "# TYPE lampsd_schedule_memo_hits_total counter\n")
	fmt.Fprintf(w, "lampsd_schedule_memo_hits_total %d\n", ms.Hits)
	fmt.Fprintf(w, "# HELP lampsd_schedule_memo_misses_total Schedule memo lookups that list-scheduled the count.\n")
	fmt.Fprintf(w, "# TYPE lampsd_schedule_memo_misses_total counter\n")
	fmt.Fprintf(w, "lampsd_schedule_memo_misses_total %d\n", ms.Misses)
	fmt.Fprintf(w, "# HELP lampsd_schedule_memo_evictions_total Graph entries the schedule memo dropped to stay within its byte budget.\n")
	fmt.Fprintf(w, "# TYPE lampsd_schedule_memo_evictions_total counter\n")
	fmt.Fprintf(w, "lampsd_schedule_memo_evictions_total %d\n", ms.Evictions)
	fmt.Fprintf(w, "# HELP lampsd_backup_plan_memo_hits_total Backup plans restored from the schedule memo instead of planned.\n")
	fmt.Fprintf(w, "# TYPE lampsd_backup_plan_memo_hits_total counter\n")
	fmt.Fprintf(w, "lampsd_backup_plan_memo_hits_total %d\n", ms.PlanHits)
	fmt.Fprintf(w, "# HELP lampsd_backup_plan_memo_misses_total Backup-plan memo lookups that ran the backup planner.\n")
	fmt.Fprintf(w, "# TYPE lampsd_backup_plan_memo_misses_total counter\n")
	fmt.Fprintf(w, "lampsd_backup_plan_memo_misses_total %d\n", ms.PlanMisses)
	fmt.Fprintf(w, "# HELP lampsd_schedule_memo_bytes Bytes of packed schedules and backup plans the schedule memo holds.\n")
	fmt.Fprintf(w, "# TYPE lampsd_schedule_memo_bytes gauge\n")
	fmt.Fprintf(w, "lampsd_schedule_memo_bytes %d\n", ms.Bytes)

	is := s.intern.stats()
	fmt.Fprintf(w, "# HELP lampsd_intern_hits_total /v1/schedule graph and platform values found in the intern table by their bytes, so not decoded or built.\n")
	fmt.Fprintf(w, "# TYPE lampsd_intern_hits_total counter\n")
	for k, name := range internKindNames {
		fmt.Fprintf(w, "lampsd_intern_hits_total{kind=%q} %d\n", name, is.hits[k])
	}
	fmt.Fprintf(w, "# HELP lampsd_intern_misses_total /v1/schedule graph and platform values looked up in the intern table and not found.\n")
	fmt.Fprintf(w, "# TYPE lampsd_intern_misses_total counter\n")
	for k, name := range internKindNames {
		fmt.Fprintf(w, "lampsd_intern_misses_total{kind=%q} %d\n", name, is.misses[k])
	}
	fmt.Fprintf(w, "# HELP lampsd_intern_bytes Estimated bytes of request values and the graphs and platforms built from them that the intern table holds.\n")
	fmt.Fprintf(w, "# TYPE lampsd_intern_bytes gauge\n")
	fmt.Fprintf(w, "lampsd_intern_bytes %d\n", is.bytes)

	fmt.Fprintf(w, "# TYPE lampsd_workers gauge\n")
	fmt.Fprintf(w, "lampsd_workers %d\n", s.pool.Cap())
	fmt.Fprintf(w, "# TYPE lampsd_inflight gauge\n")
	fmt.Fprintf(w, "lampsd_inflight %d\n", s.pool.InFlight())

	fmt.Fprintf(w, "# HELP lampsd_schedule_seconds Scheduling latency of cache misses, by approach.\n")
	fmt.Fprintf(w, "# TYPE lampsd_schedule_seconds histogram\n")
	approaches := make([]string, 0, len(m.latency))
	for a := range m.latency {
		approaches = append(approaches, a)
	}
	sort.Strings(approaches)
	for _, a := range approaches {
		m.latency[a].write(w, "lampsd_schedule_seconds", fmt.Sprintf("approach=%q,", a))
	}
}
