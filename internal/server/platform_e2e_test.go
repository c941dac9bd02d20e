package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"lamps/internal/power"
	"lamps/internal/server"
)

// requestPlatformJSON serialises the canonical LP×3 + HP×1 test platform
// into the request-body form of the "platform" field.
func requestPlatformJSON(t *testing.T) json.RawMessage {
	t.Helper()
	return json.RawMessage(platformDoc(t, testLPHPPlatform(t)))
}

func testLPHPPlatform(t *testing.T) *power.Platform {
	t.Helper()
	lp := *power.Default70nm()
	lp.VddMax = 0.85
	lp.POn = 0.04
	if err := lp.Build(); err != nil {
		t.Fatal(err)
	}
	pf, err := power.NewPlatform(
		[]power.CoreClass{{Name: "lp", Model: &lp}, {Name: "hp", Model: power.Default70nm()}},
		[]int{0, 0, 0, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return pf
}

func platformDoc(t *testing.T, pf *power.Platform) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pf.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// platformResp is the platform block of a heterogeneous schedule response.
type platformResp struct {
	Classes []struct {
		Name  string `json:"name"`
		Level struct {
			FreqHz float64 `json:"freq_hz"`
		} `json:"level"`
	} `json:"classes"`
	Procs          []int   `json:"procs"`
	RefClass       int     `json:"ref_class"`
	TimelineFreqHz float64 `json:"timeline_freq_hz"`
}

// TestSchedulePlatformRequest drives a heterogeneous request through the
// full serving path: a request carrying a "platform" block must schedule
// (miss), be served byte-identically from the cache on repeat (hit), key
// differently from the same request without the block, and report the
// machine and winning operating point in the response.
func TestSchedulePlatformRequest(t *testing.T) {
	ts := newTestServer(t, server.Options{})

	req := scheduleReq("lamps+ps", diamondGraph(), 2)
	req["platform"] = requestPlatformJSON(t)

	status, body, src := post(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	if src != "miss" {
		t.Fatalf("first request source %q, want miss", src)
	}

	status2, body2, src2 := post(t, ts, req)
	if status2 != http.StatusOK || src2 != "hit" {
		t.Fatalf("repeat: status %d source %q, want 200 hit", status2, src2)
	}
	if !bytes.Equal(body, body2) {
		t.Error("cache hit body differs from the miss body")
	}

	var r struct {
		scheduleResp
		Platform *platformResp `json:"platform"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if r.Platform == nil {
		t.Fatal("heterogeneous response has no platform block")
	}
	if got := len(r.Platform.Classes); got != 2 {
		t.Fatalf("%d classes in response, want 2", got)
	}
	if want := []int{0, 0, 0, 1}; len(r.Platform.Procs) != len(want) {
		t.Errorf("procs %v, want %v", r.Platform.Procs, want)
	}
	if r.Platform.RefClass != 1 {
		t.Errorf("ref_class %d, want 1 (the hp class)", r.Platform.RefClass)
	}
	if r.Platform.TimelineFreqHz <= 0 {
		t.Error("non-positive timeline frequency")
	}
	if r.Energy.TotalJ <= 0 {
		t.Errorf("non-positive energy %g", r.Energy.TotalJ)
	}
	if len(r.Tasks) != 4 {
		t.Fatalf("%d placed tasks, want 4", len(r.Tasks))
	}

	// The same problem without the platform must be a distinct cache entry —
	// and a homogeneous response, with no platform block.
	status3, body3, src3 := post(t, ts, scheduleReq("lamps+ps", diamondGraph(), 2))
	if status3 != http.StatusOK || src3 != "miss" {
		t.Fatalf("model request: status %d source %q, want 200 miss", status3, src3)
	}
	hom := decodeResp(t, body3)
	if hom.Key == r.Key {
		t.Error("platform and model requests share a cache key")
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body3, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["platform"]; ok {
		t.Error("homogeneous response carries a platform block")
	}
}

// TestSchedulePlatformDefault: a server started with a default platform
// (lampsd -platform) applies it to requests without their own platform
// block, and a request-level platform still overrides it.
func TestSchedulePlatformDefault(t *testing.T) {
	pf := testLPHPPlatform(t)
	ts := newTestServer(t, server.Options{Platform: pf})

	status, body, _ := post(t, ts, scheduleReq("lamps", diamondGraph(), 2))
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var r struct {
		Key      string        `json:"key"`
		Platform *platformResp `json:"platform"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Platform == nil {
		t.Fatal("default-platform response has no platform block")
	}

	// A request-level platform overrides the default: an HP-only override
	// must come back homogeneous-shaped (no platform block) under a key of
	// its own.
	hpOnly, err := power.Homogeneous(4, power.Default70nm())
	if err != nil {
		t.Fatal(err)
	}
	req := scheduleReq("lamps", diamondGraph(), 2)
	req["platform"] = json.RawMessage(platformDoc(t, hpOnly))
	status2, body2, _ := post(t, ts, req)
	if status2 != http.StatusOK {
		t.Fatalf("override: status %d, body %s", status2, body2)
	}
	var r2 struct {
		Key      string        `json:"key"`
		Platform *platformResp `json:"platform"`
	}
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Platform != nil {
		t.Error("homogeneous override still reports a platform block")
	}
	if r2.Key == r.Key {
		t.Error("override shares the default platform's cache key")
	}
}

// TestSchedulePlatformInvalid: malformed platform blocks are 400s, not
// server errors.
func TestSchedulePlatformInvalid(t *testing.T) {
	ts := newTestServer(t, server.Options{})
	for name, platform := range map[string]string{
		"unknown class":   `{"classes":[{"name":"lp","model":{}}],"procs":["big"]}`,
		"unknown field":   `{"classes":[],"procs":[],"bogus":1}`,
		"not an object":   `42`,
		"ladder too fine": strings.Replace(string(requestPlatformJSON(t)), `"vdd_step": 0.05`, `"vdd_step": 1e-17`, 1),
	} {
		req := scheduleReq("lamps", diamondGraph(), 2)
		req["platform"] = json.RawMessage(platform)
		status, body, _ := post(t, ts, req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400), body %s", name, status, body)
		}
	}
}
