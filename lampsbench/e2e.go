package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"time"

	"lamps/internal/power"
)

// bench carries one run's state.
type bench struct {
	cfg config
	pf  *power.Platform
	dir string

	gen    *generator
	ref    *reference
	store  string    // lampsd's -store-dir
	setups []float64 // exec-to-first-200 seconds per start-up
}

// Workload shape expectations.
const (
	heavyShare    = 1.0 / 7 // one graph kind in seven has 1000 tasks
	heavyShareTol = 0.03
)

// setup generates the inputs and starts lampsd starts times with an empty
// store (stopping all but the last, each of which must drain cleanly),
// recording each start-up time.
func (b *bench) setup(ctx context.Context, client *http.Client, starts int) (*lampsd, error) {
	var err error
	if b.gen, err = newGenerator(b.cfg.workload, b.cfg.seed, b.pf); err != nil {
		return nil, err
	}
	b.ref = newReference()
	b.store = filepath.Join(b.dir, "store")
	var d *lampsd
	for i := 0; i < starts; i++ {
		var took time.Duration
		d, took, err = startLampsd(ctx, client, b.cfg.lampsdBin, "-store-dir", b.store)
		if err != nil {
			return nil, err
		}
		b.setups = append(b.setups, took.Seconds())
		if i < starts-1 {
			client.CloseIdleConnections()
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// endToEnd is the untraced run: set-up, warm-up, the timed rounds, a clean
// drain, then the output checks and shape guards.
func (b *bench) endToEnd(ctx context.Context) (*result, error) {
	w := b.cfg.workload
	client := newClient(conns)
	defer client.CloseIdleConnections()
	d, err := b.setup(ctx, client, setupRuns)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	s := b.sender(client, d.base)

	warm := b.warmup(ctx, s)
	m0, err := scrape(client, d.base)
	if err != nil {
		return nil, err
	}
	m, err := b.rounds(ctx, s, d.pid())
	if err != nil {
		return nil, err
	}
	closed, open := m.closed, m.open
	m1, err := scrape(client, d.base)
	if err != nil {
		return nil, err
	}
	peak, err := readProcStats(d.pid())
	if err != nil {
		return nil, err
	}
	client.CloseIdleConnections()
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Outputs: every kept body against its verified reference.
	all := []phase{warm, closed, open}
	b.checkKept(all)
	attempted, failed := tally(all)

	if err := b.guardShape(m0, m1, all[1:]...); err != nil {
		return nil, err
	}

	closedLat, openLat := closed.latenciesMS(), open.latenciesMS()
	rps, cpuMS, p50 := median(m.rps), median(m.cpuMS), median(closedLat)
	p99, nw, err := windowedP99(closedLat)
	fmt.Printf("closed loop: %d connections, %d rounds, %d ok of %d in %.2fs; per round (medians): %.1f/s, lampsd CPU %.3f ms/req; p50 %.3f ms, p99 %.3f ms (median of %d windows) over %d samples\n",
		conns, len(m.rps), closed.successes(), len(closed.outs), closed.elapsed.Seconds(), rps, cpuMS, p50, p99, nw, len(closedLat))
	if err != nil {
		return nil, fmt.Errorf("closed loop: %w", err)
	}
	op99, onw, err := windowedP99(openLat)
	lag99, lagErr := percentile(lagsMS(open), 0.99)
	fmt.Printf("open loop: %.1f req/s, %d ok of %d in %.2fs; p99 %.3f ms (median of %d windows over %d samples); generator lag p99 %.3f ms\n",
		w.openRate, open.successes(), len(open.outs), open.elapsed.Seconds(), op99, onw, len(openLat), lag99)
	if err = errors.Join(err, lagErr); err != nil {
		return nil, fmt.Errorf("open loop: %w", err)
	}

	ratio, err := b.energyRatio(closed, open)
	if err != nil {
		return nil, err
	}
	fmt.Printf("setup: %d start-ups, seconds %.4g\n", len(b.setups), b.setups)

	return &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"throughput_rps":        {rps, "1/s"},
			"latency_p50_ms":        {p50, "ms"},
			"setup_s":               {median(b.setups), "s"},
			"server_cpu_ms_per_req": {cpuMS, "ms"},
			"server_rss_mb":         {peak.hwmMB, "MB"},
			"energy_vs_limit_mf":    {ratio, "ratio"},
		},
	}, nil
}

// measured is what the timed rounds of an end-to-end run recorded: the
// pooled outcomes of each phase, in time order, and the closed loop's
// per-round throughput and lampsd CPU time per success.
type measured struct {
	closed, open phase
	rps, cpuMS   []float64
}

// rounds alternates closed-loop and open-loop segments, rounds times, so
// that both phases sample the whole run rather than one stretch of it: a
// slow spell of the host lands in a few rounds, and the per-round medians of
// throughput and CPU time pass over it. The last closed segment runs on
// until the closed loop has minSamples successes in all. Each phase's steal
// share is printed.
func (b *bench) rounds(ctx context.Context, s *sender, pid int) (*measured, error) {
	w := b.cfg.workload
	closedDur := time.Duration(closedShare * b.cfg.seconds / rounds * float64(time.Second))
	nOpen := int(w.openRate * openShare * b.cfg.seconds / rounds)
	var m measured
	var steal [2]stealMeter
	for r := 0; r < rounds && ctx.Err() == nil; r++ {
		minOK := 0
		if r == rounds-1 {
			minOK = max(0, minSamples-m.closed.successes())
		}
		cpu0, err := readProcStats(pid)
		if err != nil {
			return nil, err
		}
		steal[0].start()
		seg := closedLoop(ctx, s, b.gen.next, conns, closedDur, 3*closedDur, minOK)
		steal[0].stop()
		cpu1, err := readProcStats(pid)
		if err != nil {
			return nil, err
		}
		ok := float64(max(seg.successes(), 1))
		m.rps = append(m.rps, ok/seg.elapsed.Seconds())
		m.cpuMS = append(m.cpuMS, float64(cpu1.cpu-cpu0.cpu)/float64(time.Millisecond)/ok)
		m.closed.add(seg)

		steal[1].start()
		m.open.add(openLoop(ctx, s, b.gen.next, w.openRate, nOpen, conns))
		steal[1].stop()
	}
	fmt.Printf("closed loop rounds: req/s %.4g, lampsd CPU ms/req %.4g\n", m.rps, m.cpuMS)
	fmt.Printf("host steal: closed loop %.1f%%, open loop %.1f%% of CPU time\n", 100*steal[0].share(), 100*steal[1].share())
	return &m, ctx.Err()
}

// stealMeter sums the machine's CPU time and the part of it the hypervisor
// stole over the intervals between start and stop: on a shared host, a slow
// run with high steal was slowed by its neighbours, not by the code under
// test. An interval whose counters cannot be read is left out.
type stealMeter struct {
	s0, t0, steal, total int64
	ok                   bool // the interval's start was read
}

func (m *stealMeter) start() {
	var err error
	m.s0, m.t0, err = hostCPU()
	m.ok = err == nil
}

func (m *stealMeter) stop() {
	if s, t, err := hostCPU(); err == nil && m.ok {
		m.steal += s - m.s0
		m.total += t - m.t0
	}
}

func (m *stealMeter) share() float64 { return float64(m.steal) / float64(max(m.total, 1)) }

// sender builds the request sender for lampsd at base. It keeps the
// warm-up block and every checkEvery-th request for the reference
// comparison, and expects every answer to be a cache miss.
func (b *bench) sender(client *http.Client, base string) *sender {
	warmN := len(b.gen.slots)
	return &sender{
		client:    client,
		base:      base,
		wantCache: "miss",
		keep:      func(r *request) bool { return r.seq < warmN || r.seq%checkEvery == 0 },
	}
}

// warmup sends the stream's first block — every size × approach × machine
// × K combination once — as fast as the connections allow; its answers are
// checked like any other.
func (b *bench) warmup(ctx context.Context, s *sender) phase {
	return openLoop(ctx, s, b.gen.next, math.Inf(1), len(b.gen.slots), conns)
}

// tally counts the attempted and failed requests of the phases, printing
// the first few failures and the error rate.
func tally(phases []phase) (attempted, failed int) {
	for _, ph := range phases {
		for i := range ph.outs {
			attempted++
			if o := &ph.outs[i]; !o.ok() {
				failed++
				if failed <= 5 {
					fmt.Printf("failure: request %d (%s): %v\n", o.req.seq, o.req.prob.combo(), o.err)
				}
			}
		}
	}
	fmt.Printf("error_rate: %d failed of %d attempted = %.6f\n", failed, attempted, float64(failed)/float64(max(attempted, 1)))
	return attempted, failed
}

// checkKept compares every kept body against the verified reference,
// marking mismatches as failures.
func (b *bench) checkKept(all []phase) {
	seen := map[string]bool{}
	for _, ph := range all {
		for i := range ph.outs {
			o := &ph.outs[i]
			if o.body == nil || !o.ok() {
				continue
			}
			seen[o.req.prob.combo()] = true
			if err := b.ref.check(o.req, o.body); err != nil {
				o.err = err
			}
		}
	}
	fmt.Printf("outputs: %d combinations byte-compared against verified references\n", len(seen))
}

// guardShape checks that the run had the workload's intended shape: no cache
// hits, every digest unique, and the heavy-class share of the mix — counted
// both by the client and by lampsd's admission control. Counts come from
// lampsd's /metrics deltas over the timed window and from the responses.
func (b *bench) guardShape(m0, m1 map[string]float64, phases ...phase) error {
	hits := delta(m0, m1, "lampsd_cache_hits_total")
	misses := delta(m0, m1, "lampsd_cache_misses_total")
	hitRatio := hits / math.Max(hits+misses, 1)
	keys := map[string]bool{}
	ok, heavy, heavyOK, sent := 0, 0, 0, 0
	for _, ph := range phases {
		for i := range ph.outs {
			o := &ph.outs[i]
			sent++
			if o.req.prob.heavy() {
				heavy++
			}
			if o.ok() {
				ok++
				keys[o.key] = true
				if o.req.prob.heavy() {
					heavyOK++
				}
			}
		}
	}
	share := float64(heavy) / float64(max(sent, 1))
	admittedHeavy := delta(m0, m1, `lampsd_admission_admitted_total{class="heavy"}`)
	fmt.Printf("shape: cache hit ratio %.4f (%v hits, %v misses), unique digests %d of %d ok, heavy-class share %.4f (%d of %d; lampsd admitted %v heavy)\n",
		hitRatio, hits, misses, len(keys), ok, share, heavy, sent, admittedHeavy)
	var errs []error
	if hits != 0 {
		errs = append(errs, fmt.Errorf("cache hit ratio %.4f, want 0", hitRatio))
	}
	if len(keys) != ok {
		errs = append(errs, fmt.Errorf("only %d of %d digests are unique", len(keys), ok))
	}
	if int(admittedHeavy) != heavyOK {
		errs = append(errs, fmt.Errorf("lampsd admitted %v heavy runs, the client sent %d that succeeded", admittedHeavy, heavyOK))
	}
	if math.Abs(share-heavyShare) > heavyShareTol {
		errs = append(errs, fmt.Errorf("heavy-class share %.4f, want %.4f ± %.2f", share, heavyShare, heavyShareTol))
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("workload shape drifted: %w", err)
	}
	return nil
}

// energyRatio is the geometric mean, over every successful timed response,
// of the returned energy over the LIMIT-MF bound of the same problem.
func (b *bench) energyRatio(phases ...phase) (float64, error) {
	var ratios []float64
	for _, ph := range phases {
		for i := range ph.outs {
			o := &ph.outs[i]
			if !o.ok() {
				continue
			}
			lim, err := limitMF(o.req.prob, b.pf)
			if err != nil {
				return 0, err
			}
			ratios = append(ratios, o.energyJ/lim)
		}
	}
	if len(ratios) == 0 {
		return 0, fmt.Errorf("no successful responses to rate against LIMIT-MF")
	}
	return geomean(ratios), nil
}

// lagsMS returns how late, in ms, the open-loop generator enqueued each
// request.
func lagsMS(p phase) []float64 {
	xs := make([]float64, len(p.outs))
	for i := range p.outs {
		xs[i] = float64(p.outs[i].lag) / float64(time.Millisecond)
	}
	return xs
}
