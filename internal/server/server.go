// Package server implements lampsd's HTTP/JSON serving layer on top of the
// core scheduling heuristics: request validation and typed error mapping,
// a bounded worker pool, single-flight coalescing of identical in-flight
// requests, an LRU result cache keyed by the canonical problem digest of
// internal/graphhash, end-to-end request deadlines, panic isolation,
// Prometheus-style metrics, health checking and structured request logging.
//
// Endpoints:
//
//	POST /v1/schedule  schedule one task graph (inline JSON or STG text)
//	POST /v1/sweep     evaluate a grid of {approaches × deadlines × procs}
//	                   over one graph, streaming per-cell results (NDJSON)
//	POST /v1/batch     execute many independent scheduling problems — one
//	                   /v1/schedule request object per input line — across
//	                   the worker pool, streaming per-line results (NDJSON)
//	POST /schedule     legacy alias of /v1/schedule
//	GET  /healthz      liveness probe
//	GET  /metrics      Prometheus text exposition
//
// Caching semantics: the cache key covers the graph's structure (weights
// and edges — not names or labels), the power model, the deadline, the
// processor cap and the approach, so a hit is guaranteed to be the result
// the heuristic would recompute, byte for byte. Sweep cells share the same
// key space, so a sweep warms the cache for single-shot requests and vice
// versa. Error responses are never cached.
//
// Robustness: every scheduling run executes behind a recover barrier — a
// panicking heuristic yields a 500 (counted in lampsd_panics_total) for the
// requester and a 500 for every coalesced waiter, never a deadlock. With
// Options.RequestTimeout set, a server-side deadline bounds queueing for a
// worker slot (503 + Retry-After on expiry) and the run itself (504 +
// Retry-After on expiry).
//
// Cancellation: scheduling runs execute under a context that is cancelled
// as soon as no request is waiting for the result any more — whether
// because the client disconnected, the request deadline fired, or every
// coalesced waiter gave up. The core engine aborts cooperatively within one
// list-scheduling call and the worker slot is reclaimed immediately
// (counted in lampsd_runs_cancelled_total) instead of the run completing
// detached. A run that still has at least one interested waiter keeps going
// and warms the cache as before.
package server

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"

	"lamps/internal/core"
	"lamps/internal/dag"
	"lamps/internal/energy"
	"lamps/internal/graphhash"
	"lamps/internal/power"
	"lamps/internal/server/cache"
	"lamps/internal/store"
	"lamps/internal/verify"
	"lamps/internal/workpool"
)

// Defaults for Options fields left zero.
const (
	DefaultMaxTasks      = 5000    // largest graphs of the Standard Task Graph Set
	DefaultMaxBodyBytes  = 8 << 20 // 8 MiB
	DefaultCacheSize     = 1024    // result cache entries
	DefaultSweepMaxCells = 256     // largest /v1/sweep grid
	DefaultBatchMaxItems = 1024    // largest /v1/batch request count
	DefaultQueueDepth    = 256     // per-cost-class waiting-room capacity
)

// resultFormatVersion stamps persisted result bytes. Bump it whenever the
// rendered response format changes incompatibly; together with
// graphhash.Version it forms the store stamp, so stale segments are skipped
// wholesale on startup instead of replaying bytes a current server would
// never produce.
const resultFormatVersion = "lamps/server/result/v1"

// StoreStamp is the version stamp a Server writes into (and requires from)
// persistent store segments: the canonical problem-digest version plus the
// rendered-result format version. Either changing invalidates every
// previously persisted record.
func StoreStamp() string {
	return graphhash.Version + "|" + resultFormatVersion
}

// OpenStore opens (creating if needed) the persistent result store at dir
// with the stamp a Server built at this version expects. Pass the returned
// store as Options.Store and close it after the server drains.
func OpenStore(dir string, logger *slog.Logger) (*store.Store, error) {
	return store.Open(dir, StoreStamp(), logger)
}

// CacheHeader is the response header reporting how the result was obtained:
// "hit" (served from cache), "miss" (scheduled by this request) or
// "shared" (coalesced onto a concurrent identical request).
const CacheHeader = "X-Lamps-Cache"

// Options configures a Server. The zero value is usable: it selects the
// default 70 nm power model, GOMAXPROCS workers and the default limits.
type Options struct {
	// Model is the platform power model. Nil selects power.Default70nm().
	Model *power.Model
	// Platform optionally describes a heterogeneous default machine (ordered
	// processors drawn from per-class power models). When set, requests
	// without their own "platform" block are hashed and scheduled against it
	// and Model is ignored for them; a request-level platform still takes
	// precedence. Nil keeps the homogeneous Model machine.
	Platform *power.Platform
	// Workers bounds concurrently executing scheduling runs
	// (0 = GOMAXPROCS). Excess requests queue.
	Workers int
	// CacheSize is the LRU result cache capacity in entries
	// (0 = DefaultCacheSize, negative = disable caching).
	CacheSize int
	// MaxTasks rejects graphs with more tasks with 413 (0 = DefaultMaxTasks).
	MaxTasks int
	// MaxBodyBytes rejects larger request bodies with 413
	// (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// RequestTimeout bounds one request end to end: waiting for a worker
	// slot (503 on expiry) and the scheduling run itself (504 on expiry; a
	// run nobody else is waiting on is then cancelled and its slot
	// reclaimed). For sweeps the deadline covers the whole grid. Zero
	// disables the timeout; client disconnects still cancel.
	RequestTimeout time.Duration
	// SweepMaxCells rejects /v1/sweep grids with more cells with 413
	// (0 = DefaultSweepMaxCells).
	SweepMaxCells int
	// BatchMaxItems rejects /v1/batch streams with more request lines with
	// 413 (0 = DefaultBatchMaxItems).
	BatchMaxItems int
	// SearchWorkers bounds the core engine's intra-run search parallelism
	// (candidate schedule builds and +PS level sweeps), shared across all
	// concurrent runs (0 = GOMAXPROCS, negative = serial search). Results
	// are identical either way; this only trades latency for CPU.
	SearchWorkers int
	// SelfCheck enables core.Config.SelfCheck on every scheduling run: each
	// schedule the engine builds is re-verified from first principles and
	// the winning energy breakdown re-derived bit for bit
	// (internal/verify). A violation fails the request with 500 and
	// increments lampsd_verify_failures_total — the canary signal that the
	// serving binary computes results its own verifier rejects. Costs one
	// extra O(V+E) pass per built schedule; intended for canary deployments
	// rather than every production replica.
	SelfCheck bool
	// Store, when non-nil, persists every cached result to disk and warm-loads
	// previously persisted results into the LRU cache at construction time, so
	// a restarted server answers every digest it had cached before shutdown
	// with byte-identical bytes. Open one with OpenStore; the caller owns its
	// lifecycle and must Close it after the server has drained. Records with a
	// stale version stamp are skipped on load, never replayed.
	Store *store.Store
	// QueueDepth bounds each cost class's admission waiting room: requests
	// beyond it are shed immediately with 429 + Retry-After instead of
	// queueing for a worker slot they are unlikely to reach
	// (0 = DefaultQueueDepth, negative = minimum depth 1).
	QueueDepth int
	// Runner executes one scheduling problem under ctx; returning an error
	// satisfying errors.Is(err, context.Canceled/DeadlineExceeded) counts
	// the run as cancelled. Nil selects the built-in engine runner (which
	// feeds the per-stage metrics). Tests substitute slow or panicking
	// runners to exercise the timeout and panic-isolation paths.
	Runner func(ctx context.Context, approach string, g *dag.Graph, cfg core.Config) (*core.Result, error)
	// Logger receives structured request logs. Nil selects slog.Default().
	Logger *slog.Logger
}

// Server is the lampsd HTTP service. Create one with New; it is safe for
// concurrent use and carries no background goroutines of its own.
type Server struct {
	opts      Options
	pool      *workpool.Pool     // one slot per executing scheduling run
	search    *workpool.Pool     // intra-run search parallelism (nil = serial)
	memo      *core.ScheduleMemo // list schedules shared by every request's runs
	cache     *cache.LRU
	store     *store.Store // nil = no persistence
	admission *admission   // per-cost-class front door to the pool
	flight    flightGroup
	metrics   *metrics
	mux       *http.ServeMux
	log       *slog.Logger
}

// New returns a Server with the given options.
func New(opts Options) *Server {
	if opts.Model == nil {
		opts.Model = power.Default70nm()
	}
	if opts.CacheSize == 0 {
		opts.CacheSize = DefaultCacheSize
	}
	if opts.MaxTasks <= 0 {
		opts.MaxTasks = DefaultMaxTasks
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if opts.SweepMaxCells <= 0 {
		opts.SweepMaxCells = DefaultSweepMaxCells
	}
	if opts.BatchMaxItems <= 0 {
		opts.BatchMaxItems = DefaultBatchMaxItems
	}
	if opts.QueueDepth == 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	if opts.QueueDepth < 1 {
		opts.QueueDepth = 1
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	s := &Server{
		opts:    opts,
		pool:    workpool.NewPool(opts.Workers),
		cache:   cache.New(opts.CacheSize),
		memo:    core.NewScheduleMemo(),
		store:   opts.Store,
		metrics: newMetrics(),
		log:     opts.Logger,
	}
	s.admission = newAdmission(s.pool.Cap(), opts.QueueDepth)
	if opts.SearchWorkers >= 0 {
		s.search = workpool.NewPool(opts.SearchWorkers)
	}
	if s.store != nil {
		loaded := s.store.WarmLoad(func(key string, val []byte) {
			s.cache.Put(key, val)
		})
		if loaded > 0 {
			s.log.Info("warm-loaded persisted results into cache", "records", loaded)
		}
	}
	if s.opts.Runner == nil {
		s.opts.Runner = s.coreRunner
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /schedule", s.handleSchedule)
	s.mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the HTTP handler serving all endpoints, wrapped with
// request accounting, structured logging and a last-resort panic barrier:
// a panic escaping any handler is logged with its stack, counted in
// lampsd_panics_total and converted to a 500 if the response has not
// started yet.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					panic(p)
				}
				s.metrics.recordPanic()
				s.log.Error("panic serving request",
					"path", r.URL.Path, "panic", p, "stack", string(debug.Stack()))
				if !sw.wrote {
					sw.status = s.writeError(sw, internalPanic(p))
				}
			}
			s.metrics.recordRequest(r.URL.Path, sw.status)
			s.log.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"duration", time.Since(start),
				"cache", sw.Header().Get(CacheHeader),
			)
		}()
		s.mux.ServeHTTP(sw, r)
	})
}

// statusWriter records the status code written to the client and whether
// the response has started (after which a recovered panic can no longer be
// converted into an error response).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so the NDJSON streams can push
// their header at once and each line as it completes.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte("{\"status\":\"ok\"}\n"))
}

// requestCtx derives the waiting context for one request: the client's own
// context (so disconnects release the waiter) bounded by the server-side
// request timeout when one is configured. This context governs how long the
// request *waits*, not how long the run may execute: runs live as long as
// any waiter remains interested (see flightGroup), so a coalesced run is
// never poisoned by one client giving up.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	}
	return context.WithCancel(r.Context())
}

// handleSchedule serves POST /schedule and /v1/schedule: decode, prepare,
// then cache hit / coalesce / schedule, in that order of preference.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	req, err := decodeRequest(r.Body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	p, err := s.prepare(req)
	if err != nil {
		s.writeError(w, err)
		return
	}

	ctx, cancel := s.requestCtx(r)
	defer cancel()
	res := s.execute(ctx, p.key, p.approach, p.g, p.cfg)
	if res.err != nil {
		s.writeError(w, res.err)
		return
	}
	writeBody(w, res.status, res.source, res.body)
}

// execResult is the outcome of executing one scheduling problem.
type execResult struct {
	status int
	body   []byte
	source string // "hit", "miss" or "shared"
	err    error
}

// execute resolves one scheduling problem end to end: cache lookup, then a
// single-flight coalesced run on the bounded pool, isolated behind a
// recover barrier. The single-shot endpoints, every batch line and every
// sweep cell go through this one path, which is what guarantees that a
// line or cell and an individual request for the same problem produce
// byte-identical results.
//
// ctx bounds only this caller's wait. The run itself executes in the
// leader's goroutine under the flight's own run context, which is cancelled
// when the last waiter departs — so a run everyone timed out of aborts
// cooperatively and frees its worker slot, while a run that still has other
// waiters completes and warms the cache. A panicking run is recovered in
// the leader's goroutine, counted in lampsd_panics_total, and surfaces as a
// 500 for every waiter.
func (s *Server) execute(ctx context.Context, key, approach string, g *dag.Graph, cfg core.Config) execResult {
	if body, ok := s.cache.Get(key); ok {
		return execResult{http.StatusOK, body, "hit", nil}
	}
	c, leader := s.flight.join(ctx, key)
	source := "miss"
	if leader {
		go s.flight.run(key, c, func(runCtx context.Context) (status int, body []byte, err error) {
			defer func() {
				if p := recover(); p != nil {
					s.metrics.recordPanic()
					s.log.Error("panic in scheduling run",
						"approach", approach, "key", key, "panic", p, "stack", string(debug.Stack()))
					status, body, err = 0, nil, internalPanic(p)
				}
			}()
			return s.runProblem(runCtx, key, approach, g, cfg)
		})
	} else {
		source = "shared"
		s.metrics.recordCoalesced()
	}
	select {
	case <-c.done:
		return execResult{c.status, c.val, source, c.err}
	case <-ctx.Done():
		s.flight.depart(c)
		// Grace window: a run that finished in the same instant the deadline
		// fired — including one that classified its own queue shed as a 503,
		// or was just cancelled by our departure and wound down immediately —
		// beats the generic timeout, except that a bare cancellation error
		// carries no information and is classified by this waiter's own
		// context below.
		select {
		case <-c.done:
			if c.err == nil || !isCancellation(c.err) {
				return execResult{c.status, c.val, source, c.err}
			}
		case <-time.After(20 * time.Millisecond):
		}
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			hint := s.admission.class(approach, g.NumTasks()).retryAfterSeconds()
			return execResult{source: source, err: timedOut("scheduling run exceeded the request deadline").withRetryAfter(hint)}
		}
		return execResult{source: source, err: overloaded("request abandoned before the run completed: %v", context.Cause(ctx))}
	}
}

// isCancellation reports whether err is (or wraps) a context cancellation
// or deadline error.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runProblem is the single-flight leader body: pass admission control for
// the request's cost class (ctx bounds the queueing time; a full waiting
// room or an expired wait sheds with 429/503 + a Retry-After derived from
// the class's observed queue waits), run the heuristic under ctx, record
// metrics, render, cache and persist the result. ctx here is the flight's
// run context: it fires when every waiter has departed, at which point the
// engine aborts within one list-scheduling call and the pool slot is
// released.
func (s *Server) runProblem(ctx context.Context, key, approach string, g *dag.Graph, cfg core.Config) (int, []byte, error) {
	var result *core.Result
	var coreErr error
	var ranFor time.Duration
	q := s.admission.class(approach, g.NumTasks())
	if shed := s.admit(ctx, q, func() {
		start := time.Now()
		result, coreErr = s.opts.Runner(ctx, approach, g, cfg)
		ranFor = time.Since(start)
	}); shed != nil {
		return 0, nil, shed
	}
	if coreErr != nil {
		if isCancellation(coreErr) {
			s.metrics.recordRunCancelled()
		}
		if errors.Is(coreErr, verify.ErrViolation) {
			s.metrics.recordVerifyFailure()
		}
		return 0, nil, coreErr
	}
	s.metrics.recordRun(approach, ranFor.Seconds(), result.Stats)
	body, err := renderResult(key, cfg, result)
	if err != nil {
		return 0, nil, err
	}
	s.cache.Put(key, body)
	if s.store != nil {
		if err := s.store.Put(key, body); err != nil {
			s.log.Warn("persisting result failed", "key", key, "error", err)
		}
	}
	return http.StatusOK, body, nil
}

// coreRunner is the default Runner: a core engine sharing the server-wide
// search pool and schedule memo — so /v1/schedule, /v1/batch and /v1/sweep
// runs on a graph seen before restore its list schedules instead of
// rebuilding them — instrumented so every run, finished or cancelled,
// feeds the per-stage effort histograms live via the Observer→metrics
// adapter.
func (s *Server) coreRunner(ctx context.Context, approach string, g *dag.Graph, cfg core.Config) (*core.Result, error) {
	counter := &stageCounter{}
	eng := core.Engine{Config: cfg, Observer: counter, Pool: s.search, Memo: s.memo}
	r, err := eng.Run(ctx, approach, g)
	s.metrics.recordStages(counter.schedules, counter.levels)
	return r, err
}

// stageCounter is the Observer→metrics adapter: it counts one run's search
// effort as it happens, so cancelled runs still report the work they did
// (Result.Stats only exists on success). The engine serialises Observer
// callbacks and completes them before Run returns, so plain fields suffice.
type stageCounter struct{ schedules, levels int }

func (c *stageCounter) OnPhase(string)                                 {}
func (c *stageCounter) OnScheduleBuilt(int, int64)                     { c.schedules++ }
func (c *stageCounter) OnLevelEvaluated(power.Level, energy.Breakdown) { c.levels++ }

func writeBody(w http.ResponseWriter, status int, source string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(CacheHeader, source)
	w.WriteHeader(status)
	w.Write(body)
}
