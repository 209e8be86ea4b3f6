package main

import (
	"net/http/httptest"
	"testing"

	"lazycm/internal/lcmserver"
)

func TestHealthDeltaFromLiveServer(t *testing.T) {
	s := lcmserver.NewServer(lcmserver.Config{Workers: 1, Quarantine: ""})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	c := ts.Client()
	h0, err := health(c, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"fn_cache_hits", "fn_cache_misses", "disk_hits", "shed", "fell_back",
		"degrade_transitions", "solver_parallel_slices", "solver_sparse_skips", "disk_disabled"} {
		if _, ok := h0[k]; !ok {
			t.Errorf("healthz lacks %s", k)
		}
	}
	p := editPlan(1, 1)
	res := &result{}
	send(c, ts.URL, p.warm[0], res)
	send(c, ts.URL, p.warm[0], res)
	if res.err != "" {
		t.Fatal(res.err)
	}
	h1, err := health(c, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	d := h0.delta(h1)
	if d["fn_cache_misses"] != editFuncs || d["fn_cache_hits"] != editFuncs {
		t.Errorf("delta hits/misses = %v/%v, want %d/%d", d["fn_cache_hits"], d["fn_cache_misses"], editFuncs, editFuncs)
	}
	if f := d.hitFrac(); f != 0.5 {
		t.Errorf("hit fraction = %v, want 0.5", f)
	}
}

// A gateway /healthz body in lcmgate's shape, trimmed to what the fold
// reads.
const gateBefore = `{"status":"ok","failovers":1,"dedupe_joins":0,"shed":0,
 "fleet":{"fn_cache_hits":10},
 "backends":{
  "http://127.0.0.1:1":{"breaker":"closed","ready":true,"routed":10,"fn_cache_hits":4},
  "http://127.0.0.1:2":{"breaker":"closed","ready":true,"routed":20,"fn_cache_hits":6}}}`

const gateAfter = `{"status":"ok","failovers":3,"dedupe_joins":2,"shed":0,
 "fleet":{"fn_cache_hits":40},
 "backends":{
  "http://127.0.0.1:1":{"breaker":"closed","ready":true,"routed":40,"fn_cache_hits":20},
  "http://127.0.0.1:2":{"breaker":"open","ready":false,"routed":40,"fn_cache_hits":20}}}`

func TestGateHealthFoldsPerBackend(t *testing.T) {
	before, err := parseGateHealth([]byte(gateBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseGateHealth([]byte(gateAfter))
	if err != nil {
		t.Fatal(err)
	}
	if before.backends["http://127.0.0.1:1"]["ready"] != 1 || after.backends["http://127.0.0.1:2"]["ready"] != 0 {
		t.Error("ready flags must read as 1/0")
	}
	d := before.delta(after)
	if d.top["failovers"] != 2 || d.top["dedupe_joins"] != 2 {
		t.Errorf("gateway deltas = %v", d.top)
	}
	// Routed in the window: 30 and 20, mean 25, so the busier backend
	// carries 1.2 times its share.
	if got := d.routeSkew(); got != 1.2 {
		t.Errorf("route skew = %v, want 1.2", got)
	}
	if got := after.routeSkew(); got != 1 {
		t.Errorf("cumulative route skew = %v, want 1", got)
	}
	if _, err := parseGateHealth([]byte(`{"backends": 3}`)); err == nil {
		t.Error("a malformed backends map must be an error")
	}
}
