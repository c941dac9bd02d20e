package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// newClient returns an HTTP client that opens at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// outcome is one request's result as the client saw it.
type outcome struct {
	req     *request
	status  int
	cache   string        // X-Lamps-Cache
	lat     time.Duration // closed loop: from send; open loop: from the intended send time
	lag     time.Duration // open loop: how late the generator enqueued the request
	start   time.Time     // actual send time
	resBody int           // response bytes
	key     string        // digest reported in the body
	energyJ float64       // total energy reported in the body
	body    []byte        // kept only when the checker asked for it
	err     error         // transport or decoding failure
}

// ok reports whether the request succeeded as far as the client can tell;
// output checks may still reject it later.
func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// sender posts requests and extracts the fields every response is checked
// for. keep says which response bodies to retain for the byte comparison.
type sender struct {
	client *http.Client
	base   string
	keep   func(*request) bool
	// wantCache is the X-Lamps-Cache value every response must carry.
	wantCache string
	// tr, when set, records a lampsd.wire span around each request.
	tr *tracer
}

// send posts r and reads the whole response into buf.
func (s *sender) send(ctx context.Context, r *request, buf *bytes.Buffer) outcome {
	o := outcome{req: r, start: time.Now()}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+r.prob.path(), bytes.NewReader(r.body))
	if err != nil {
		o.err = err
		return o
	}
	hr.Header.Set("Content-Type", "application/json")
	if s.tr != nil {
		id := s.tr.begin(r.seq, 0, "lampsd.wire")
		defer func() { s.tr.end(id, int64(o.resBody)) }()
	}
	resp, err := s.client.Do(hr)
	if err != nil {
		o.err = err
		o.lat = time.Since(o.start)
		return o
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	o.lat = time.Since(o.start)
	o.status = resp.StatusCode
	o.cache = resp.Header.Get("X-Lamps-Cache")
	o.resBody = buf.Len()
	if err != nil {
		o.err = fmt.Errorf("reading response: %w", err)
		return o
	}
	if o.status != http.StatusOK {
		o.err = fmt.Errorf("status %d: %.200s", o.status, buf.Bytes())
		return o
	}
	if s.wantCache != "" && o.cache != s.wantCache {
		o.err = fmt.Errorf("X-Lamps-Cache %q, want %q", o.cache, s.wantCache)
		return o
	}
	b := buf.Bytes()
	if o.key, o.energyJ, err = scanResult(b); err != nil {
		o.err = err
		return o
	}
	if s.keep != nil && s.keep(r) {
		o.body = append([]byte(nil), b...)
	}
	return o
}

// scanResult pulls the digest and total energy out of a /v1/schedule body
// without decoding the placement.
func scanResult(b []byte) (key string, energyJ float64, err error) {
	const kp, ep = `"key":"`, `"energy":{"total_j":`
	i := bytes.Index(b, []byte(kp))
	if i < 0 {
		return "", 0, fmt.Errorf("response has no key")
	}
	rest := b[i+len(kp):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return "", 0, fmt.Errorf("response key is unterminated")
	}
	key = string(rest[:j])
	i = bytes.Index(b, []byte(ep))
	if i < 0 {
		return "", 0, fmt.Errorf("response has no energy")
	}
	rest = b[i+len(ep):]
	j = bytes.IndexAny(rest, ",}")
	if j < 0 {
		return "", 0, fmt.Errorf("response energy is unterminated")
	}
	energyJ, err = strconv.ParseFloat(string(rest[:j]), 64)
	if err != nil || energyJ <= 0 {
		return "", 0, fmt.Errorf("response energy %q is not a positive number", rest[:j])
	}
	return key, energyJ, nil
}

// phase is the record of one load phase.
type phase struct {
	outs    []outcome
	elapsed time.Duration
}

// latenciesMS returns the latencies of the successful requests, in ms.
func (p *phase) latenciesMS() []float64 {
	xs := make([]float64, 0, len(p.outs))
	for i := range p.outs {
		if p.outs[i].ok() {
			xs = append(xs, float64(p.outs[i].lat)/float64(time.Millisecond))
		}
	}
	return xs
}

// add appends the outcomes of a later segment of the same phase.
func (p *phase) add(seg phase) {
	p.outs = append(p.outs, seg.outs...)
	p.elapsed += seg.elapsed
}

// successes counts the successful requests.
func (p *phase) successes() int {
	n := 0
	for i := range p.outs {
		if p.outs[i].ok() {
			n++
		}
	}
	return n
}

// closedLoop keeps conns requests in flight — each connection sends its next
// request as soon as the previous reply arrives — for at least dur, and
// longer (up to maxDur) until minOK requests have succeeded, so every
// reported percentile has enough samples beyond it.
func closedLoop(ctx context.Context, s *sender, next func() *request, conns int, dur, maxDur time.Duration, minOK int) phase {
	var (
		okCount atomic.Int64
		mu      sync.Mutex
		all     []outcome
		wg      sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var outs []outcome
			for ctx.Err() == nil {
				el := time.Since(start)
				if el >= maxDur || (el >= dur && okCount.Load() >= int64(minOK)) {
					break
				}
				o := s.send(ctx, next(), &buf)
				if o.ok() {
					okCount.Add(1)
				}
				outs = append(outs, o)
			}
			mu.Lock()
			all = append(all, outs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	// Completion order, so windows over the latencies are windows in time.
	sort.Slice(all, func(i, j int) bool {
		return all[i].start.Add(all[i].lat).Before(all[j].start.Add(all[j].lat))
	})
	return phase{outs: all, elapsed: time.Since(start)}
}

// openLoop sends n requests on a fixed schedule of rate arrivals per
// second, whether or not earlier ones have finished, over at most conns
// connections. Each latency is timed from the request's intended send time,
// so a stall delays — and is charged to — every request queued behind it.
func openLoop(ctx context.Context, s *sender, next func() *request, rate float64, n, conns int) phase {
	type arrival struct {
		i        int
		r        *request
		due, enq time.Time
	}
	queue := make(chan arrival, n) // sized to the number of sends: the generator never blocks
	results := make([]outcome, n)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for a := range queue {
				o := s.send(ctx, a.r, &buf)
				o.lat = time.Since(a.due)
				o.lag = a.enq.Sub(a.due)
				results[a.i] = o
			}
		}()
	}
	start := time.Now()
	sent := 0
	for ; sent < n && ctx.Err() == nil; sent++ {
		due := start.Add(time.Duration(float64(sent) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		queue <- arrival{i: sent, r: next(), due: due, enq: time.Now()}
	}
	close(queue)
	wg.Wait()
	return phase{outs: results[:sent], elapsed: time.Since(start)}
}
