package lcmserver

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"lazycm/internal/fleet"
	"lazycm/internal/overload"
)

func getReadyz(t *testing.T, ts *httptest.Server) (int, map[string]any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestReadyz: the readiness probe is 200 on a healthy server, 503 at
// degrade level 3 (all new work shedding), 200 again once the ladder
// recovers, and 503 while draining — and its tiny body always carries
// the degrade level so a gateway can bias routing without a full
// healthz parse.
func TestReadyz(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	code, body := getReadyz(t, ts)
	if code != http.StatusOK || body["ready"] != true {
		t.Fatalf("healthy server not ready: %d %v", code, body)
	}
	if body["degrade_level"] != float64(0) {
		t.Fatalf("healthy server reports degrade level %v", body["degrade_level"])
	}

	// Saturated samples walk the ladder to level 3 (one level per UpAfter
	// observations); the probe's own idle sample starts a down-streak but
	// cannot descend on its own.
	for i := 0; i < 8; i++ {
		s.ladder.Observe(overload.Sample{QueueFrac: 1})
	}
	code, body = getReadyz(t, ts)
	if code != http.StatusServiceUnavailable || body["ready"] != false {
		t.Fatalf("level-3 server still ready: %d %v", code, body)
	}
	if body["degrade_level"] != float64(3) {
		t.Fatalf("level-3 server reports degrade level %v", body["degrade_level"])
	}

	// Idle samples recover the ladder; readiness returns with it.
	for i := 0; i < 16; i++ {
		s.ladder.Observe(overload.Sample{})
	}
	if code, body = getReadyz(t, ts); code != http.StatusOK {
		t.Fatalf("recovered server not ready: %d %v", code, body)
	}

	s.BeginDrain()
	code, body = getReadyz(t, ts)
	if code != http.StatusServiceUnavailable || body["draining"] != true {
		t.Fatalf("draining server still ready: %d %v", code, body)
	}
}

// TestHealthWireGolden pins the /healthz and /readyz wire shapes: every
// key, and every value a server that has optimized one function reports
// deterministically. Clock and latency readings are checked for presence
// only; the peers map, keyed by a random port, is checked for its one
// peer's breaker state.
func TestHealthWireGolden(t *testing.T) {
	const healthz = `{"cache_corrupt":0,"cache_entries":1,` +
		`"canceled":0,"corrupt_dropped":0,"degrade_level":0,"degrade_transitions":0,` +
		`"disk_bytes":0,"disk_disable_transitions":0,"disk_disabled":false,"disk_entries":0,` +
		`"disk_faults_read":0,"disk_faults_rename":0,"disk_faults_sync":0,"disk_faults_write":0,` +
		`"disk_hits":0,"disk_read_errors":0,"disk_write_errors":0,"fell_back":0,` +
		`"fn_alias_hits":0,"fn_cache_hits":0,"fn_cache_misses":1,"inflight":0,"invalid":0,"jobs_active":0,` +
		`"jobs_expired":0,"jobs_resumed":0,"journal_degraded":false,"optimized":1,"panics":0,` +
		`"peer_hits":0,"peer_misses":%d,"peer_served":0,%s"quarantine_writable":false,` +
		`"quarantined":0,"queue_capacity":4,"queue_depth":0,"requests":1,"retry_after_ms":0,` +
		`"shed":0,"solver_parallel_slices":0,"solver_sparse_skips":0,"status":"ok",` +
		`"stream_clients":0,"workers":1}`
	const readyz = `{"degrade_level":0,"disk_disable_transitions":0,"disk_disabled":false,` +
		`"disk_faults_read":0,"disk_faults_rename":0,"disk_faults_sync":0,"disk_faults_write":0,` +
		`"draining":false,"fn_cache_hits":0,"fn_cache_misses":1,"jobs_active":0,"jobs_expired":0,` +
		`"jobs_resumed":0,"journal_degraded":false,"ready":true,"stream_clients":0}`

	for _, peered := range []bool{false, true} {
		cfg := Config{Workers: 1, Queue: 4}
		wantHealthz := fmt.Sprintf(healthz, 0, "")
		if peered {
			// A peer that holds nothing: the one lookup is a clean miss.
			peer := httptest.NewServer(http.NotFoundHandler())
			t.Cleanup(peer.Close)
			cfg.Peers = []string{peer.URL}
			wantHealthz = fmt.Sprintf(healthz, 1, `"peers":"closed",`)
		}
		_, ts := newTestServer(t, cfg)
		if code, out := postOptimize(t, ts, optimizeRequest{Program: diamond}); code != http.StatusOK {
			t.Fatalf("peered=%v: optimize = %d: %+v", peered, code, out)
		}
		// The runner retires its generation just after the response.
		waitFor(t, func() bool {
			_, h := getHealthz(t, ts)
			return h["jobs_active"] == float64(0)
		})

		_, h := getHealthz(t, ts)
		for _, k := range []string{"start_time", "uptime_ms", "latency_ewma_ms"} {
			if _, ok := h[k]; !ok {
				t.Errorf("peered=%v: healthz lacks %s", peered, k)
			}
			delete(h, k)
		}
		if peers, ok := h["peers"].(map[string]any); ok {
			if len(peers) != 1 {
				t.Errorf("peered=%v: peers = %v, want one entry", peered, peers)
			}
			for _, state := range peers {
				h["peers"] = state
			}
		}
		if got := canonicalJSON(t, h); got != wantHealthz {
			t.Errorf("peered=%v: healthz\n got: %s\nwant: %s", peered, got, wantHealthz)
		}
		_, r := getReadyz(t, ts)
		if got := canonicalJSON(t, r); got != readyz {
			t.Errorf("peered=%v: readyz\n got: %s\nwant: %s", peered, got, readyz)
		}
	}
}

// canonicalJSON re-encodes a decoded object with its keys sorted.
func canonicalJSON(t *testing.T, m map[string]any) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestReadyzFitsProbeLimit: the /readyz body, with every field at its
// largest value, fits the gateway's probe read limit. It walks the
// struct, so gauges added later are covered without editing the test.
func TestReadyzFitsProbeLimit(t *testing.T) {
	var body readiness
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Struct:
				fill(f)
			case reflect.Int, reflect.Int64:
				f.SetInt(math.MaxInt64)
			case reflect.Bool:
				f.SetBool(true)
			default:
				t.Fatalf("readyz field %s is a %s; the bound covers numbers and flags only", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	fill(reflect.ValueOf(&body).Elem())
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, body)
	n := rec.Body.Len()
	if n > fleet.MaxReadyzBytes {
		t.Fatalf("largest /readyz body is %d bytes, over the %d-byte probe limit", n, fleet.MaxReadyzBytes)
	}
	t.Logf("largest /readyz body: %d of %d bytes", n, fleet.MaxReadyzBytes)
}
