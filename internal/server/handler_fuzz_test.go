package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"lamps/internal/server"
)

// FuzzScheduleHandler drives arbitrary bodies through the in-process
// /v1/schedule handler with SelfCheck on, so every schedule and breakdown
// the server would return is also re-derived by the independent verifier.
// The property: a request is answered 200, 400, 413 or 422 — never a 500 or
// a panic, whatever the body — and a 200 repeated verbatim is a cache hit
// with a byte-identical body. The seeds in testdata/fuzz/FuzzScheduleHandler
// cover homogeneous, platform and fault-tolerant requests and a platform
// whose slot stretch takes a small graph past the cycle envelope.
func FuzzScheduleHandler(f *testing.F) {
	h := server.New(server.Options{
		MaxTasks:     16,
		MaxBodyBytes: 16 << 10,
		SelfCheck:    true,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	}).Handler()
	serve := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		first := serve(body)
		switch first.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			return
		default:
			t.Fatalf("status %d for %q: %s", first.Code, body, first.Body.Bytes())
		}
		again := serve(body)
		if again.Code != http.StatusOK || again.Header().Get(server.CacheHeader) != "hit" {
			t.Fatalf("repeat of a 200 answered %d (%s %q) for %q",
				again.Code, server.CacheHeader, again.Header().Get(server.CacheHeader), body)
		}
		if !bytes.Equal(first.Body.Bytes(), again.Body.Bytes()) {
			t.Fatalf("cache hit body differs for %q:\nfirst %s\nhit   %s", body, first.Body.Bytes(), again.Body.Bytes())
		}
	})
}

// FuzzSweepHandler drives arbitrary bodies through the in-process /v1/sweep
// handler with SelfCheck on. The property: a body is refused with 400 or 413
// before the stream starts, or answered 200 with a well-formed NDJSON
// stream (checkSweepStream) — never a 500 or a panic. The seeds in
// testdata/fuzz/FuzzSweepHandler cover homogeneous and fault-tolerant
// grids, a partly infeasible deadline axis and a deadline factor whose
// deadline overflows to +Inf.
func FuzzSweepHandler(f *testing.F) {
	h := server.New(server.Options{
		MaxTasks:      16,
		MaxBodyBytes:  16 << 10,
		SweepMaxCells: 64,
		SelfCheck:     true,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			checkSweepStream(t, rec.Body.Bytes())
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body.Bytes())
		}
	})
}

// checkSweepStream requires a 200 sweep body to be a well-formed stream:
// every line decodes, the last and only the last is the summary, there is
// one cell line per completed cell, and every cell answered 200, 400, 413 or
// 422. A cell line that fails to encode is dropped from the wire, so the
// count catches it.
func checkSweepStream(t *testing.T, stream []byte) {
	t.Helper()
	var cells int
	var sum *sweepSummary
	for _, raw := range bytes.Split(bytes.TrimSuffix(stream, []byte("\n")), []byte("\n")) {
		if sum != nil {
			t.Fatalf("line after the summary: %s", raw)
		}
		var line struct {
			Cell    *struct{}     `json:"cell"`
			Status  int           `json:"status"`
			Summary *sweepSummary `json:"summary"`
		}
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("undecodable line %q: %v", raw, err)
		}
		switch {
		case line.Summary != nil:
			sum = line.Summary
		case line.Cell == nil:
			t.Fatalf("line is neither a cell nor a summary: %s", raw)
		default:
			cells++
			switch line.Status {
			case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			default:
				t.Fatalf("cell status %d: %s", line.Status, raw)
			}
		}
	}
	if sum == nil {
		t.Fatalf("stream has no summary:\n%s", stream)
	}
	if cells != sum.Completed {
		t.Fatalf("%d cell lines for %d completed cells:\n%s", cells, sum.Completed, stream)
	}
}

// sweepSummary is the trailing line of a sweep stream.
type sweepSummary struct {
	Cells     int `json:"cells"`
	Completed int `json:"completed"`
	OK        int `json:"ok"`
	Errors    int `json:"errors"`
}
