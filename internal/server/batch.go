package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
)

// handleBatch serves POST /v1/batch: N independent scheduling problems, one
// JSON object per input line (the exact /v1/schedule request schema), one
// result line per input plus a trailing summary (NDJSON out). This is the
// fleet-shaped endpoint: where /v1/sweep explores a grid over ONE graph,
// /v1/batch executes many unrelated problems — mixed graphs, approaches and
// deadlines — across the worker pool at one-request granularity.
//
// Every line is resolved by prepare and answered by stream, the pipeline
// /v1/schedule and /v1/sweep share, so a batch line's "result" field is
// byte-identical to the body an individual request for the same problem
// returns, and a batch warms the cache for single-shot traffic and vice
// versa. Lines are emitted in completion order; clients reassemble input
// order via "index". A malformed line (unknown approach, invalid graph,
// wrong shape) yields an error line for its index and affects no other
// line.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	items, err := s.decodeBatch(r.Body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.metrics.recordBatch(len(items))
	invalid := 0
	s.stream(w, r, items, &s.metrics.batchLines, streamSummary{Requests: len(items), Invalid: &invalid})
}

// decodeBatch reads the NDJSON input stream and prepares every line for
// execution. Whole-request failures (empty batch, too many lines, body over
// the byte limit, malformed JSON that desynchronises the stream) return an
// error; per-line failures are recorded in that line's slot.
func (s *Server) decodeBatch(body io.Reader) ([]streamItem, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var items []streamItem
	for dec.More() {
		if len(items) >= s.opts.BatchMaxItems {
			return nil, tooLarge("batch has more than %d request lines", s.opts.BatchMaxItems)
		}
		var req scheduleRequest
		var p prepared
		var mbe *http.MaxBytesError
		var typ *json.UnmarshalTypeError
		switch err := dec.Decode(&req); {
		case err == nil:
			p, err = s.prepare(&req)
			items = append(items, streamItem{prepared: p, err: err, index: len(items)})
		case errors.As(err, &mbe):
			return nil, tooLarge("request body exceeds the %d-byte limit", mbe.Limit)
		case errors.As(err, &typ) || isUnknownField(err):
			// Well-formed JSON with the wrong shape is a per-line error; the
			// stream stays in sync because Decode consumed the value.
			items = append(items, streamItem{err: badRequest("line %d: %v", len(items), err), index: len(items)})
		default:
			// Malformed JSON desynchronises the stream: nothing after it can
			// be trusted to start at a value boundary, so reject the batch.
			return nil, badRequest("line %d: malformed JSON: %v", len(items), err)
		}
	}
	if len(items) == 0 {
		return nil, badRequest("batch is empty: send one request object per line")
	}
	return items, nil
}

// isUnknownField reports whether err is the (unexported, string-only) error
// json.Decoder returns for an unknown field under DisallowUnknownFields.
// The decoder has consumed the enclosing object by then, so the stream is
// still aligned on a value boundary and the batch can continue.
func isUnknownField(err error) bool {
	return strings.Contains(err.Error(), "unknown field")
}
