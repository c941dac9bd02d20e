package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"time"

	"lamps/internal/core"
	"lamps/internal/dag"
	"lamps/internal/power"
	"lamps/internal/server"
)

// serverOptions are the server.Options lampsd runs with under the
// benchmark's deployment flags (all defaults), minus the store.
func serverOptions() server.Options {
	return server.Options{
		Model:          power.Default70nm(),
		CacheSize:      server.DefaultCacheSize,
		RequestTimeout: 60 * time.Second,
		Logger:         slog.New(slog.NewJSONHandler(io.Discard, nil)),
	}
}

// reference answers problems in-process with lampsd's options plus
// SelfCheck, so every reference result has passed internal/verify: schedule
// legality, backup-plan legality and bit-exact energy.
type reference struct {
	h http.Handler
}

func newReference() *reference {
	opts := serverOptions()
	opts.SelfCheck = true
	return &reference{h: server.New(opts).Handler()}
}

// serveInProcess runs one request body through an in-process handler.
func serveInProcess(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// check byte-compares got against the verified reference for r.
func (ref *reference) check(r *request, got []byte) error {
	rec := serveInProcess(ref.h, r.prob.path(), r.body)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("reference for %s answered %d: %.200s", r.prob.combo(), rec.Code, rec.Body.Bytes())
	}
	if !bytes.Equal(rec.Body.Bytes(), got) {
		return fmt.Errorf("response for %s (request %d) differs from the verified reference", r.prob.combo(), r.seq)
	}
	return nil
}

// config resolves a problem onto the core.Config lampsd derives for it.
func (p *problem) config(pf *power.Platform) core.Config {
	g := p.graph.g
	var faults *core.FaultConfig
	if p.k > 0 {
		policy := core.FaultBackupAnywhere
		if p.policy == "primary-hp-backup-lp" {
			policy = core.FaultPrimaryHPBackupLP
		}
		faults = &core.FaultConfig{K: p.k, Policy: policy}
	}
	if p.machine == platformMachine {
		return core.Config{Platform: pf, Deadline: p.factor * float64(g.CriticalPathLength()) / pf.RefFMax(), Faults: faults}
	}
	m := power.Default70nm()
	return core.Config{Model: m, Deadline: p.factor * float64(g.CriticalPathLength()) / m.FMax(), Faults: faults}
}

// canonical maps the API approach names the benchmark sends onto the
// engine's names.
var canonical = map[string]string{
	"lamps":    core.ApproachLAMPS,
	"lamps+ps": core.ApproachLAMPSPS,
	"ss+ps":    core.ApproachSSPS,
}

// limitMF computes the LIMIT-MF lower bound of a single-shot problem: the
// same graph, machine and deadline. Fault tolerance only adds cost, so the
// fault-free bound stays a bound.
func limitMF(p *problem, pf *power.Platform) (float64, error) {
	cfg := p.config(pf)
	cfg.Faults = nil
	res, err := (&core.Engine{Config: cfg}).Run(context.Background(), core.ApproachLimitMF, p.graph.g)
	if err != nil {
		return 0, fmt.Errorf("LIMIT-MF for %s: %w", p.combo(), err)
	}
	return res.Energy.Total(), nil
}

// buildGraph rebuilds a graph the way lampsd's decoder does, through
// dag.Builder.
func buildGraph(g *dag.Graph) (*dag.Graph, error) {
	b := dag.NewBuilder("request")
	for v := 0; v < g.NumTasks(); v++ {
		b.AddTask(g.Weight(v))
	}
	for u := 0; u < g.NumTasks(); u++ {
		for _, v := range g.Succs(u) {
			b.AddEdge(u, int(v))
		}
	}
	return b.Build()
}
