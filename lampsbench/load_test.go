package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fakeBody is a minimal /v1/schedule answer with the fields every response
// is checked for.
const fakeBody = `{"approach":"LAMPS","key":"k","energy":{"total_j":1.5}}` + "\n"

func fakeRequests() func() *request {
	p := &problem{graph: &graphInput{kind: "fake"}, approach: "lamps", machine: "default"}
	var seq atomic.Int64
	return func() *request {
		return &request{seq: int(seq.Add(1) - 1), prob: p, body: []byte("{}")}
	}
}

// A server that stalls once must show the stall on the requests queued
// behind it: open-loop latency runs from each request's intended send
// time, not from when a connection became free.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(stall)
		}
		w.Header().Set("X-Lamps-Cache", "miss")
		w.Write([]byte(fakeBody))
	}))
	defer srv.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()
	s := &sender{client: client, base: srv.URL, wantCache: "miss"}

	const rate = 100 // one arrival every 10 ms
	ph := openLoop(context.Background(), s, fakeRequests(), rate, 40, 1)
	if len(ph.outs) != 40 || ph.successes() != 40 {
		t.Fatalf("got %d outcomes, %d ok; want 40 ok", len(ph.outs), ph.successes())
	}
	// Request 5 (index 4) stalls; the next one was due 10 ms later but could
	// only be sent once the stall ended, so its latency is most of the stall.
	if lat := ph.outs[5].lat; lat < stall-50*time.Millisecond {
		t.Errorf("request after the stall: latency %v, want ≥ %v", lat, stall-50*time.Millisecond)
	}
	// Arrivals due during the stall keep their intended times: the backlog
	// drains, each charged with its wait.
	if lat := ph.outs[10].lat; lat < stall-100*time.Millisecond {
		t.Errorf("request due mid-stall: latency %v, want ≥ %v", lat, stall-100*time.Millisecond)
	}
	if lat := ph.outs[1].lat; lat > 100*time.Millisecond {
		t.Errorf("request before the stall: latency %v, want small", lat)
	}
	// The generator itself ran on time even though the server did not.
	for i, o := range ph.outs {
		if o.lag > 50*time.Millisecond {
			t.Errorf("request %d enqueued %v late", i, o.lag)
		}
	}
}

func TestClosedLoopRunsUntilEnoughSamples(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Lamps-Cache", "miss")
		w.Write([]byte(fakeBody))
	}))
	defer srv.Close()
	client := newClient(2)
	defer client.CloseIdleConnections()
	s := &sender{client: client, base: srv.URL, wantCache: "miss"}
	ph := closedLoop(context.Background(), s, fakeRequests(), 2, time.Millisecond, 10*time.Second, 200)
	if ph.successes() < 200 {
		t.Fatalf("closed loop stopped after %d successes, want ≥ 200", ph.successes())
	}
}

func TestSenderRejectsWrongAnswers(t *testing.T) {
	for _, tc := range []struct {
		name, cache, body string
		status            int
	}{
		{"status", "miss", fakeBody, http.StatusUnprocessableEntity},
		{"cache header", "hit", fakeBody, http.StatusOK},
		{"no energy", "miss", `{"key":"k"}`, http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("X-Lamps-Cache", tc.cache)
				w.WriteHeader(tc.status)
				w.Write([]byte(tc.body))
			}))
			defer srv.Close()
			s := &sender{client: newClient(1), base: srv.URL, wantCache: "miss"}
			ph := closedLoop(context.Background(), s, fakeRequests(), 1, 0, time.Second, 1)
			if ph.outs[0].ok() {
				t.Fatal("wrong answer accepted")
			}
		})
	}
}
