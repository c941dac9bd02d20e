package server

import (
	"encoding/json"
	"net/http"
	"sync"

	"lamps/internal/workpool"
)

// streamLine is one NDJSON line of a /v1/batch or /v1/sweep response: the
// outcome of one problem, identified by its input line (Index, on batch
// streams) or its grid cell (Cell, on sweep streams), or — exactly once, at
// the end — the summary. A stream sets only one of Index and Cell, so each
// endpoint's lines keep their own field order.
type streamLine struct {
	Index  *int            `json:"index,omitempty"`
	Cell   *sweepCell      `json:"cell,omitempty"`
	Status int             `json:"status,omitempty"`
	Cache  string          `json:"cache,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`

	Summary *streamSummary `json:"summary,omitempty"`
}

// streamSummary is the last line of every stream. Sweep streams set Cells,
// batch streams Requests — neither is ever zero, as an empty grid or batch
// is refused before its stream — and Invalid, the lines that failed
// before they could execute.
type streamSummary struct {
	Cells     int  `json:"cells,omitempty"`
	Requests  int  `json:"requests,omitempty"`
	Completed int  `json:"completed"`
	OK        int  `json:"ok"`
	Errors    int  `json:"errors"`
	Invalid   *int `json:"invalid,omitempty"`
	CacheHits int  `json:"cache_hits"`
	Coalesced int  `json:"coalesced"`
	TimedOut  bool `json:"timed_out,omitempty"`
}

// streamItem is one problem of a stream, prepared for execution or failed
// before it could execute (err set; batch lines only).
type streamItem struct {
	prepared
	err   error
	index int        // the input line, on batch streams
	cell  *sweepCell // the grid cell, on sweep streams; nil on batch streams
}

// ndjsonStream is the state of one response stream: the writer, the
// endpoint's line counter and the summary tally, shared by every worker.
type ndjsonStream struct {
	w       http.ResponseWriter
	flusher http.Flusher
	metrics *metrics
	lines   *outcomes
	mu      sync.Mutex // serialises writes and the tally
	sum     streamSummary
	encFail error
}

// stream answers a /v1/batch or /v1/sweep request whose items are resolved.
// The 200 header is flushed at once, so the client sees the request
// accepted while the first items still run. Then comes one line per item
// in completion order, counted on lines, and last the summary sum,
// completed with the tally.
//
// Items that failed before execution are answered first: they must not
// occupy pool slots or wait behind the items that run. Every other item
// goes through execute on up to the pool's worker count at once, the path
// of /v1/schedule (cache lookup by digest, single flight, panic isolation),
// so its "result" is the /v1/schedule body for the same problem minus the
// trailing newline, byte for byte. A failed item fails only its own line.
// When the request deadline fires or the client disconnects, items not yet
// dispatched never start; items in flight wind down under the usual
// waiter-refcounted run contexts, and the summary says timed_out.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, items []streamItem, lines *outcomes, sum streamSummary) {
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	st := &ndjsonStream{w: w, metrics: s.metrics, lines: lines, sum: sum}
	if st.flusher, _ = w.(http.Flusher); st.flusher != nil {
		st.flusher.Flush()
	}
	for i := range items {
		if it := &items[i]; it.err != nil {
			st.answer(it, execResult{err: it.err})
		}
	}
	mapErr := workpool.MapCtx(ctx, len(items), s.pool.Cap(), func(i int) error {
		if it := &items[i]; it.err == nil {
			st.answer(it, s.execute(ctx, it.key, it.approach, it.g, it.cfg))
		}
		return nil // a failed item never aborts the stream
	})
	// The item callback never fails, so mapErr is the context expiring
	// mid-stream; items never dispatched show as completed below the total.
	st.sum.TimedOut = mapErr != nil
	if st.encFail != nil {
		s.log.Error("encoding stream line", "path", r.URL.Path, "err", st.encFail)
	}
	st.write(&streamLine{Summary: &st.sum})
}

// answer writes the line of one item's outcome, counts it on the stream's
// line counter and adds it to the summary tally.
func (st *ndjsonStream) answer(it *streamItem, res execResult) {
	line := streamLine{Cell: it.cell, Cache: res.source}
	if it.cell == nil {
		line.Index = &it.index
	}
	if res.err != nil {
		ae := classify(res.err)
		line.Status, line.Error = ae.status, ae.msg
	} else {
		line.Status, line.Result = res.status, json.RawMessage(trimNewline(res.body))
	}
	st.metrics.recordLine(st.lines, res.err == nil)
	st.mu.Lock()
	sum := &st.sum
	sum.Completed++
	switch {
	case res.err != nil:
		sum.Errors++
		if it.err != nil {
			*sum.Invalid++
		}
	case res.source == "hit":
		sum.OK++
		sum.CacheHits++
	case res.source == "shared":
		sum.OK++
		sum.Coalesced++
	default:
		sum.OK++
	}
	st.mu.Unlock()
	st.write(&line)
}

// write sends one line. Pooled encoding: Encoder.Encode emits Marshal +
// '\n' byte for byte, so each line is one Write with no per-line marshal
// buffer.
func (st *ndjsonStream) write(line *streamLine) {
	e := getEncoder()
	defer e.put()
	err := e.enc.Encode(line)
	st.mu.Lock()
	defer st.mu.Unlock()
	if err != nil {
		// Unreachable for these types; recorded rather than swallowed.
		st.encFail = err
		return
	}
	st.w.Write(e.buf.Bytes())
	if st.flusher != nil {
		st.flusher.Flush()
	}
}

// trimNewline drops the trailing newline every /v1/schedule body carries
// for curl friendliness, and nothing else, so byte-for-byte comparisons of
// an embedded result against /v1/schedule only need to re-append it.
func trimNewline(b []byte) []byte {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return b[:len(b)-1]
	}
	return b
}
