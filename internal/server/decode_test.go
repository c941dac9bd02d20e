package server

import (
	"encoding/json"
	"reflect"
	"testing"
)

// canonicalBodies are request bodies in the spelling clients produce by
// marshaling a struct. Each must take the fast path.
var canonicalBodies = []string{
	`{"approach":"lamps","graph":{"tasks":[{"weight_cycles":400},{"weight_cycles":300}],"edges":[[0,1]]},"deadline_factor":1.8}`,
	`{"approach":"lamps+ps","graph":{"name":"g","tasks":[{"weight_cycles":3100000,"label":"T1"}],"edges":[]},"deadline_sec":0.5,"max_procs":4}`,
	` { "approach" : "ss+ps" , "stg" : "1" , "deadline_factor" : 2e0 } ` + "\n",
	`{"approach":"lamps","graph":{"tasks":[{"weight_cycles":1}]},"deadline_factor":2,"faults":{"k":1,"policy":"backup-anywhere"},` +
		`"platform":{"classes":[{"name":"lp","model":{"vdd_max":0.85,"p_on":0.04}},{"name":"hp"}],"procs":["lp","hp"],"x":[true,false,-0.5e-3]}}`,
	`{"approach":"lamps","graph":{"tasks":[{"weight_cycles":-0},{"weight_cycles":999999999999999999}],"edges":[[0,-1]]},"max_procs":-7}`,
	"{\"platform\" :\n {\"classes\" : [ ] ,\"classes\":[]}\t, \"graph\":{\"edges\":[ [ 0 , 1 ] ],\"tasks\":[ ]}}",
}

// nonCanonicalBodies are spellings encoding/json accepts or rejects on its
// own terms; each must fall back.
var nonCanonicalBodies = []string{
	`{"approach":"lamps\u002bps"}`,                                   // escape
	`{"approach":"lamps","graph":{"name":"grafé","tasks":[]}}`,       // non-ASCII
	`{"Approach":"lamps"}`,                                           // case variant
	`{"approach":"ss","approach":"lamps"}`,                           // duplicate key
	`{"graph":{"tasks":[{"weight_cycles":1}]},"graph":{"name":"x"}}`, // duplicate object, merged by encoding/json
	`{"graph":null}`,                                                 // null
	`{"platform":{"classes":null}}`,                                  // null inside a raw value
	`{"max_procs":1e3}`,                                              // exponent integer
	`{"graph":{"tasks":[{"weight_cycles":1234567890123456789}]}}`,    // 19 digits
	`{"graph":{"tasks":[{"weight_cycles":1.0}]}}`,                    // fraction
	`{"max_procs":01}`,                                               // leading zero
	`{"graph":{"tasks":[],"edges":[[1]]}}`,                           // one endpoint
	`{"graph":{"tasks":[],"edges":[[0,1,7]]}}`,                       // three endpoints
	`{"approach":"lamps"} x`,                                         // trailing data
	`{"approach":"lamps"}}`,                                          // trailing brace
	`{"approach":"lamps","surprise":1}`,                              // unknown key
	`null`,
	``,
}

// TestDecodeCanonicalMatchesEncodingJSON pins both sides of the fast-path
// contract: canonical spellings are decoded without encoding/json, into
// exactly the value encoding/json produces; every other spelling falls
// back.
func TestDecodeCanonicalMatchesEncodingJSON(t *testing.T) {
	for _, body := range canonicalBodies {
		var fast, ref scheduleRequest
		if !decodeCanonical([]byte(body), &fast) {
			t.Errorf("fast path rejected canonical body %s", body)
			continue
		}
		if err := decodeJSON([]byte(body), &ref); err != nil {
			t.Fatalf("encoding/json rejected %s: %v", body, err)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Errorf("fast path decoded %s as\n%+v\nencoding/json as\n%+v", body, fast, ref)
		}
	}
	for _, body := range nonCanonicalBodies {
		var fast scheduleRequest
		if decodeCanonical([]byte(body), &fast) {
			t.Errorf("fast path accepted non-canonical body %s", body)
		}
	}
}

// TestDecodeCanonicalMarshaledRequest: the bytes encoding/json itself
// writes for a request take the fast path and round-trip.
func TestDecodeCanonicalMarshaledRequest(t *testing.T) {
	want := scheduleRequest{
		Approach: "lamps+ps",
		Graph: &graphSpec{
			Name:  "layered",
			Tasks: []taskSpec{{WeightCycles: 3100000, Label: "a"}, {WeightCycles: 1}, {WeightCycles: 77}},
			Edges: []edgeSpec{{0, 1}, {0, 2}, {1, 2}},
		},
		DeadlineFactor: 2.25,
		MaxProcs:       3,
		Platform:       json.RawMessage(`{"classes":[{"name":"lp"}],"procs":["lp","lp"]}`),
		Faults:         &faultsSpec{K: 1, Policy: "primary-hp-backup-lp"},
	}
	body, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	var got scheduleRequest
	if !decodeCanonical(body, &got) {
		t.Fatalf("fast path rejected marshaled request %s", body)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip of %s:\ngot  %+v\nwant %+v", body, got, want)
	}
}

// FuzzDecodeRequest is the differential property behind the fast path:
// whatever decodeCanonical accepts, encoding/json (as decodeJSON runs it)
// also accepts, into a reflect.DeepEqual value.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range canonicalBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fast scheduleRequest
		if !decodeCanonical(data, &fast) {
			return
		}
		var ref scheduleRequest
		if err := decodeJSON(data, &ref); err != nil {
			t.Fatalf("fast path accepted %q, encoding/json rejects it: %v", data, err)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("fast path and encoding/json disagree on %q:\nfast %+v\njson %+v", data, fast, ref)
		}
	})
}
