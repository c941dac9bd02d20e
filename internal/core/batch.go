package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"lamps/internal/dag"
)

// ErrBatchPanic is the error recorded for a batch request whose heuristic
// panicked. The panic is confined to that request's result slot; the other
// requests of the batch are unaffected.
var ErrBatchPanic = errors.New("core: batch request panicked")

// BatchRequest is one independent scheduling problem inside a batch: a
// graph, an approach and a full per-request Config (deadline, processor
// cap, model, self-check). Requests in one batch share nothing but the
// worker pool, so any mix of graphs and configurations is valid.
type BatchRequest struct {
	Approach string
	Graph    *dag.Graph
	Config   Config
}

// BatchResult is the outcome of one BatchRequest. Exactly one of Result and
// Err is set, with the same values a serial RunCtx call for the same
// request would have produced. Elapsed is the wall time the request's run
// took (zero for requests that were never started because the batch
// context expired first).
type BatchResult struct {
	Result  *Result
	Err     error
	Elapsed time.Duration
}

// RunBatch schedules len(reqs) independent requests and returns one result
// per request, in request order. It is the fleet-shaped entry point: the
// paper's heuristics are microseconds-to-milliseconds per DAG, so a
// service wins by keeping every core busy with whole requests rather than
// by splitting one run — RunBatch parallelises across e.Pool at
// one-request granularity and runs each request's internal search
// serially.
//
// Contract:
//
//   - Determinism: result slot i is written only by request i's worker, and
//     each request executes exactly as a serial RunCtx call would (same
//     Result bytes, same Stats, same error taxonomy), regardless of the
//     pool size. Only wall-clock timing varies with parallelism.
//   - Isolation: a request that fails — invalid config, infeasible
//     deadline, even a panicking heuristic (ErrBatchPanic) — poisons only
//     its own slot; every other request still runs to completion.
//   - Cancellation: once ctx is done, requests that have not started are
//     completed with ctx.Err() without running, while requests already in
//     flight abort cooperatively (within one list-scheduling call) and
//     report ctx.Err() themselves. RunBatch returns only after every
//     started request has finished, so no goroutines outlive the call.
//   - Scratch: each request draws a whole run arena from a package-level
//     sync.Pool — run state, candidate and level-sweep slices, the
//     per-processor-count schedule cache and its shells — and the
//     scheduling kernels and gap profiles underneath come from their own
//     pools, so a steady stream of batches runs within a fixed
//     per-request allocation budget (see TestRunBatchSteadyStateZeroAlloc)
//     instead of re-allocating scratch per request.
//
// A nil e.Pool runs the batch serially in request order. Every request
// shares e.Memo. The engine's own Config and Observer are not used: each
// request carries its Config, and per-request observation would interleave
// nondeterministically across a parallel batch.
func (e *Engine) RunBatch(ctx context.Context, reqs []BatchRequest) []BatchResult {
	if len(reqs) == 0 {
		return nil
	}
	out := make([]BatchResult, len(reqs))
	if e.Pool == nil {
		for i := range reqs {
			if err := ctx.Err(); err != nil {
				out[i] = BatchResult{Err: err}
				continue
			}
			out[i] = runOne(ctx, &reqs[i], e.Memo)
		}
		return out
	}
	var wg sync.WaitGroup
	wg.Add(len(reqs))
	for i := range reqs {
		go func(i int) {
			defer wg.Done()
			if err := e.Pool.Do(ctx, func() { out[i] = runOne(ctx, &reqs[i], e.Memo) }); err != nil {
				// Admission denied: the batch context expired while this
				// request queued for a slot. It never ran, which is exactly
				// what a serial loop reaching it after cancellation would do.
				out[i] = BatchResult{Err: err}
			}
		}(i)
	}
	wg.Wait()
	return out
}

// runOne executes a single batch request behind a recover barrier. The
// throwaway sub-engine makes the execution shape identical to RunCtx — a
// serial inner search — while the heavy scratch (scheduling kernels, gap
// profiles) still comes from the shared sync.Pools, so the per-request
// engine value is the only per-request control allocation.
func runOne(ctx context.Context, req *BatchRequest, memo *ScheduleMemo) (br BatchResult) {
	start := time.Now()
	defer func() {
		br.Elapsed = time.Since(start)
		if p := recover(); p != nil {
			br.Result, br.Err = nil, fmt.Errorf("%w: %v", ErrBatchPanic, p)
		}
	}()
	eng := Engine{Config: req.Config, Memo: memo}
	br.Result, br.Err = eng.Run(ctx, req.Approach, req.Graph)
	return br
}
