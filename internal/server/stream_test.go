package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"lamps/internal/core"
	"lamps/internal/dag"
	"lamps/internal/server"
)

var updateStreams = flag.Bool("update", false, "rewrite testdata/streams.golden")

// TestStreamBytesPinned pins the complete NDJSON bytes of a /v1/batch and a
// /v1/sweep stream on a one-worker server: every result and error line and
// both summaries, field order included (the batch summary carries
// "invalid" between "errors" and "cache_hits", the sweep summary has no
// such field). Lines arrive in completion order, so they are sorted by
// index or cell index with the summary last before the comparison. The
// batch holds a valid line, a schema-invalid line and an infeasible (422)
// line; the sweep holds an infeasible (422) cell next to a feasible one.
// Regenerate with `go test ./internal/server -run TestStreamBytesPinned
// -update` only for an intended change of the wire format.
func TestStreamBytesPinned(t *testing.T) {
	ts := newTestServer(t, server.Options{Workers: 1})
	tight := scheduleReq(core.ApproachLAMPS, diamondGraph(), 2)
	tight["deadline_factor"] = 0.25
	status, _, batch := postBatch(t, ts, ndjsonBody(t,
		scheduleReq(core.ApproachLAMPS, diamondGraph(), 2),
		`{"approach":"lamps","unknown_field":1}`,
		tight,
	))
	if status != http.StatusOK {
		t.Fatalf("/v1/batch: status %d: %s", status, batch)
	}
	status, _, sweep := postSweep(t, ts, map[string]any{
		"approaches":    []string{"lamps+ps"},
		"graph":         chainGraph(3),
		"deadline_secs": []float64{1e-9, 0.05},
	})
	if status != http.StatusOK {
		t.Fatalf("/v1/sweep: status %d: %s", status, sweep)
	}

	var got bytes.Buffer
	got.WriteString("# /v1/batch\n")
	got.Write(sortedStream(t, batch))
	got.WriteString("# /v1/sweep\n")
	got.Write(sortedStream(t, sweep))

	path := filepath.Join("testdata", "streams.golden")
	if *updateStreams {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("stream bytes differ from %s\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}

// sortedStream returns the lines of an NDJSON stream ordered by their batch
// index or sweep cell index, with the one summary line last.
func sortedStream(t *testing.T, stream []byte) []byte {
	t.Helper()
	lines := bytes.SplitAfter(stream, []byte("\n"))
	if len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	pos := func(raw []byte) int {
		var line struct {
			Index *int `json:"index"`
			Cell  *struct {
				Index int `json:"index"`
			} `json:"cell"`
		}
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("undecodable line %q: %v", raw, err)
		}
		switch {
		case line.Index != nil:
			return *line.Index
		case line.Cell != nil:
			return line.Cell.Index
		}
		return len(lines) // the summary
	}
	sort.SliceStable(lines, func(i, j int) bool { return pos(lines[i]) < pos(lines[j]) })
	return bytes.Join(lines, nil)
}

// TestSweepFlushesHeaderEarly: a sweep's 200 header reaches the client
// before its first cell line, so a client sees that the grid was accepted
// while the first cell is still running — as on /v1/batch.
func TestSweepFlushesHeaderEarly(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	ts := newTestServer(t, server.Options{
		Workers: 1,
		Runner: func(ctx context.Context, a string, g *dag.Graph, cfg core.Config) (*core.Result, error) {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
			return core.RunCtx(ctx, a, g, cfg)
		},
	})
	defer close(release)

	body, err := json.Marshal(sweepReq(diamondGraph(), []string{"lamps"}, []float64{2}, nil))
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			close(got)
			return
		}
		got <- resp
	}()
	<-entered
	select {
	case resp, ok := <-got:
		if !ok {
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200", resp.StatusCode)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no response header while the first cell is running")
	}
}
