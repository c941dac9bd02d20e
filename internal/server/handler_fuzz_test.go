package server_test

import (
	"bytes"
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
