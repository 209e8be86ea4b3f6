package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lazycm/internal/chaos"
	"lazycm/internal/fleet"
	"lazycm/internal/lcmserver"
)

const diamond = `func f(a, b, p) {
entry:
  br p t e
t:
  x = a + b
  jmp j
e:
  y = a + b
  jmp j
j:
  z = a + b
  ret z
}
`

// optBody marshals the one request body a test will both send and hash;
// routing is content-addressed, so the exact bytes matter.
func optBody(t *testing.T, program string) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]string{"program": program})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postRaw(t *testing.T, base, path string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within 10s")
}

// fleetNode is one real lcmd backend wrapped in a chaos proxy.
type fleetNode struct {
	srv   *lcmserver.Server
	chaos *chaos.Backend
	ts    *httptest.Server
}

// newFleet spins up n real backends behind chaos proxies and a gateway
// routing across them. Health polling is off unless cfg asks for it, so
// tests drive breakers purely through traffic.
func newFleet(t *testing.T, n int, cfg Config) (*Gateway, []*fleetNode, *httptest.Server) {
	t.Helper()
	nodes := make([]*fleetNode, n)
	urls := make([]string, n)
	for i := range nodes {
		s := lcmserver.NewServer(lcmserver.Config{Workers: 2, Queue: 32})
		cb := chaos.NewBackend(s.Handler())
		ts := httptest.NewServer(cb)
		t.Cleanup(func() {
			ts.Close()
			s.Close()
		})
		nodes[i] = &fleetNode{srv: s, chaos: cb, ts: ts}
		urls[i] = ts.URL
	}
	cfg.Backends = urls
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = -1
	}
	gw, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	gts := httptest.NewServer(gw.Handler())
	t.Cleanup(gts.Close)
	return gw, nodes, gts
}

// scriptedNode is a canned backend that reports which node served a
// request — for routing tests where result bytes don't matter.
type scriptedNode struct {
	hits  atomic.Int64
	chaos *chaos.Backend
	ts    *httptest.Server
}

func newScriptedFleet(t *testing.T, n int, cfg Config, handler func(i int, w http.ResponseWriter, r *http.Request)) (*Gateway, []*scriptedNode, *httptest.Server) {
	t.Helper()
	nodes := make([]*scriptedNode, n)
	urls := make([]string, n)
	for i := range nodes {
		node := &scriptedNode{}
		idx := i
		inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			node.hits.Add(1)
			if handler != nil {
				handler(idx, w, r)
				return
			}
			writeGateJSON(w, http.StatusOK, map[string]any{"served_by": idx})
		})
		node.chaos = chaos.NewBackend(inner)
		node.ts = httptest.NewServer(node.chaos)
		t.Cleanup(node.ts.Close)
		nodes[i] = node
		urls[i] = node.ts.URL
	}
	cfg.Backends = urls
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = -1
	}
	gw, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	gts := httptest.NewServer(gw.Handler())
	t.Cleanup(gts.Close)
	return gw, nodes, gts
}

// ownerIndex resolves which node the ring makes primary for a body.
func ownerIndex(t *testing.T, gw *Gateway, urls []string, path string, body []byte) int {
	t.Helper()
	key, _ := requestKey(path, body)
	owner := gw.ring.Owner(key)
	for i, u := range urls {
		if u == owner {
			return i
		}
	}
	t.Fatalf("ring owner %q is not a configured backend", owner)
	return -1
}

// bodyOwnedBy searches distinct valid programs until one's primary is
// the wanted node.
func bodyOwnedBy(t *testing.T, gw *Gateway, urls []string, path string, want int) []byte {
	t.Helper()
	for i := 0; i < 512; i++ {
		body := optBody(t, strings.ReplaceAll(diamond, "func f", fmt.Sprintf("func p%d", i)))
		if ownerIndex(t, gw, urls, path, body) == want {
			return body
		}
	}
	t.Fatalf("no probe body hashed to backend %d", want)
	return nil
}

// stripTimings removes every elapsed_ms field (top level and per batch
// item) so responses can be compared as bytes: timing is the one field
// that legitimately differs between identical computations.
func stripTimings(t *testing.T, raw []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("response is not JSON: %v: %s", err, raw)
	}
	delete(m, "elapsed_ms")
	if results, ok := m["results"].([]any); ok {
		for _, r := range results {
			if item, ok := r.(map[string]any); ok {
				delete(item, "elapsed_ms")
			}
		}
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestGatewayPassThrough: a proxied 200 and a proxied 400 are
// byte-identical — status, Content-Type, body — to asking the backend
// directly. The gateway adds routing, never opinions.
func TestGatewayPassThrough(t *testing.T) {
	_, nodes, gts := newFleet(t, 3, Config{})

	for name, program := range map[string]string{"valid": diamond, "invalid": "func broken {"} {
		body := optBody(t, program)
		viaGate, gateHdr, gateBody := postRaw(t, gts.URL, "/optimize", body)

		// The same bytes from every backend directly: location
		// independence is what makes pass-through comparable at all.
		for i, n := range nodes {
			direct, _, directBody := postRaw(t, n.ts.URL, "/optimize", body)
			if direct != viaGate {
				t.Fatalf("%s: gateway status %d, backend %d status %d", name, viaGate, i, direct)
			}
			if got, want := stripTimings(t, gateBody), stripTimings(t, directBody); got != want {
				t.Errorf("%s: gateway body differs from backend %d:\n gate: %s\n node: %s", name, i, got, want)
			}
		}
		if ct := gateHdr.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q", name, ct)
		}
	}
}

// TestGatewayAffinity: each distinct request lands on its ring owner,
// and replays land on the same node.
func TestGatewayAffinity(t *testing.T) {
	gw, nodes, gts := newScriptedFleet(t, 3, Config{}, nil)
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.ts.URL
	}
	for i := 0; i < 8; i++ {
		body := optBody(t, fmt.Sprintf("affinity-%d", i))
		want := ownerIndex(t, gw, urls, "/optimize", body)
		for rep := 0; rep < 2; rep++ {
			code, _, raw := postRaw(t, gts.URL, "/optimize", body)
			if code != http.StatusOK {
				t.Fatalf("status %d: %s", code, raw)
			}
			var out struct {
				ServedBy int `json:"served_by"`
			}
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatal(err)
			}
			if out.ServedBy != want {
				t.Fatalf("request %d rep %d served by %d, ring owner is %d", i, rep, out.ServedBy, want)
			}
		}
	}
}

// TestGatewaySingleFlight: identical concurrent requests collapse into
// one backend call; every caller gets the leader's bytes.
func TestGatewaySingleFlight(t *testing.T) {
	gate := make(chan struct{})
	gw, nodes, gts := newScriptedFleet(t, 1, Config{}, func(i int, w http.ResponseWriter, r *http.Request) {
		<-gate
		writeGateJSON(w, http.StatusOK, map[string]any{"served_by": i, "nonce": "leader"})
	})

	const callers = 8
	body := optBody(t, diamond)
	results := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, raw := postRaw(t, gts.URL, "/optimize", body)
			results[i] = raw
		}(i)
	}
	// All callers in flight: one leader at the backend, everyone else
	// joined to it. Only then release the backend.
	waitFor(t, func() bool {
		return nodes[0].hits.Load() == 1 && gw.dedupeJoins.Load() == callers-1
	})
	close(gate)
	wg.Wait()

	if hits := nodes[0].hits.Load(); hits != 1 {
		t.Fatalf("backend hit %d times for %d identical requests", hits, callers)
	}
	for i, raw := range results {
		if !bytes.Equal(raw, results[0]) {
			t.Errorf("caller %d got different bytes: %s vs %s", i, raw, results[0])
		}
	}
}

// TestGatewayFailover: killing a request's primary mid-fleet reroutes
// it to the next replica and the response stays byte-identical to a
// healthy single node's answer.
func TestGatewayFailover(t *testing.T) {
	gw, nodes, gts := newFleet(t, 3, Config{AttemptTimeout: time.Second})
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.ts.URL
	}
	body := optBody(t, diamond)
	primary := ownerIndex(t, gw, urls, "/optimize", body)

	// The healthy answer, from a non-primary node directly.
	other := (primary + 1) % len(nodes)
	wantCode, _, wantBody := postRaw(t, nodes[other].ts.URL, "/optimize", body)
	if wantCode != http.StatusOK {
		t.Fatalf("healthy backend answered %d: %s", wantCode, wantBody)
	}

	nodes[primary].chaos.SetMode(chaos.BackendKilled)
	code, _, raw := postRaw(t, gts.URL, "/optimize", body)
	if code != http.StatusOK {
		t.Fatalf("failover answered %d: %s", code, raw)
	}
	if got, want := stripTimings(t, raw), stripTimings(t, wantBody); got != want {
		t.Errorf("failover bytes differ from healthy output:\n got: %s\nwant: %s", got, want)
	}
	if gw.failovers.Load() == 0 {
		t.Error("failover counter did not move")
	}
}

// TestGatewayBreakerIsolation is the acceptance check for breaker
// routing: once a dead backend's breaker opens, not one more request is
// routed to it while open; after revival, cooldown probes close the
// breaker and traffic returns.
func TestGatewayBreakerIsolation(t *testing.T) {
	var logBuf bytes.Buffer
	gw, nodes, gts := newScriptedFleet(t, 3, Config{
		AttemptTimeout: time.Second,
		Breaker:        fleet.BreakerConfig{FailureThreshold: 2, Cooldown: 150 * time.Millisecond, HalfOpenProbes: 1},
		AccessLog:      &logBuf,
	}, nil)
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.ts.URL
	}
	dead := 0
	body := bodyOwnedBy(t, gw, urls, "/optimize", dead)
	nodes[dead].chaos.SetMode(chaos.BackendKilled)
	deadB := gw.backends[urls[dead]]

	// Trip the breaker through traffic: 2 failed attempts.
	for i := 0; i < 2; i++ {
		if code, _, raw := postRaw(t, gts.URL, "/optimize", body); code != http.StatusOK {
			t.Fatalf("failover during trip answered %d: %s", code, raw)
		}
	}
	if got := deadB.breaker.State(); got != fleet.BreakerOpen {
		t.Fatalf("breaker state after failure streak = %v, want open", got)
	}

	// Open: the routed counter must freeze — zero attempts reach the
	// dead backend no matter how much traffic wants it.
	frozen := deadB.routed.Load()
	for i := 0; i < 10; i++ {
		if code, _, raw := postRaw(t, gts.URL, "/optimize", body); code != http.StatusOK {
			t.Fatalf("request while open answered %d: %s", code, raw)
		}
	}
	if got := deadB.routed.Load(); got != frozen {
		t.Fatalf("open breaker leaked traffic: routed %d -> %d", frozen, got)
	}
	if !strings.Contains(logBuf.String(), "reason=breaker-open") {
		t.Error("access log has no breaker-open skip entries")
	}

	// Revive, wait out the cooldown: the next request is the half-open
	// probe, it succeeds, and the backend is back in rotation.
	nodes[dead].chaos.SetMode(chaos.BackendHealthy)
	time.Sleep(gw.cfg.Breaker.Cooldown + 20*time.Millisecond)
	if code, _, raw := postRaw(t, gts.URL, "/optimize", body); code != http.StatusOK {
		t.Fatalf("probe request answered %d: %s", code, raw)
	}
	if got := deadB.breaker.State(); got != fleet.BreakerClosed {
		t.Fatalf("breaker after successful probe = %v, want closed", got)
	}
	if got := deadB.routed.Load(); got != frozen+1 {
		t.Fatalf("probe routed count = %d, want %d", got, frozen+1)
	}
	// And the next replay is served by the revived primary again.
	before := deadB.routed.Load()
	if code, _, _ := postRaw(t, gts.URL, "/optimize", body); code != http.StatusOK {
		t.Fatal("post-recovery request failed")
	}
	if deadB.routed.Load() != before+1 {
		t.Error("recovered backend did not take its traffic back")
	}
}

// TestGatewayShedJitter: with the whole fleet down the gateway sheds
// with an explicit 503 + Retry-After; the hint is deterministic per
// request (replay → same hint) and seeded by the primary backend, so
// requests owned by different backends spread their retries.
func TestGatewayShedJitter(t *testing.T) {
	gw, nodes, gts := newScriptedFleet(t, 2, Config{
		AttemptTimeout: time.Second,
		Breaker:        fleet.BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute},
	}, nil)
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.ts.URL
	}
	for _, n := range nodes {
		n.chaos.SetMode(chaos.BackendKilled)
	}

	shedMS := func(body []byte) int64 {
		t.Helper()
		code, hdr, raw := postRaw(t, gts.URL, "/optimize", body)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("all-down fleet answered %d: %s", code, raw)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatal("shed response missing Retry-After header")
		}
		var out struct {
			Kind         string `json:"kind"`
			RetryAfterMS int64  `json:"retry_after_ms"`
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if out.Kind != "unavailable" || out.RetryAfterMS <= 0 {
			t.Fatalf("shed body %s", raw)
		}
		return out.RetryAfterMS
	}

	body0 := bodyOwnedBy(t, gw, urls, "/optimize", 0)
	first := shedMS(body0)
	if replay := shedMS(body0); replay != first {
		t.Fatalf("replayed shed hint changed: %d then %d", first, replay)
	}

	// Requests owned by the other backend draw from different seeds. A
	// single pair can still land on the same millisecond by chance, so
	// sample a few distinct other-owner requests before declaring the
	// jitter broken.
	differs, sampled := false, 0
	for i := 0; i < 512 && !differs && sampled < 3; i++ {
		body1 := optBody(t, fmt.Sprintf("other-owner-%d", i))
		if ownerIndex(t, gw, urls, "/optimize", body1) != 1 {
			continue
		}
		sampled++
		differs = shedMS(body1) != first
	}
	if sampled == 0 {
		t.Fatal("no probe body hashed to backend 1")
	}
	if !differs {
		t.Error("requests owned by different backends all drew the same retry hint")
	}
	if gw.shed.Load() == 0 {
		t.Error("shed counter did not move")
	}
}

// TestGatewayBatchRouting: batch requests route through the same path
// and come back byte-identical to a direct backend batch.
func TestGatewayBatchRouting(t *testing.T) {
	_, nodes, gts := newFleet(t, 3, Config{})
	module := diamond + strings.ReplaceAll(diamond, "func f", "func g")
	body := optBody(t, module)

	wantCode, _, want := postRaw(t, nodes[0].ts.URL, "/optimize/batch", body)
	if wantCode != http.StatusOK {
		t.Fatalf("direct batch answered %d: %s", wantCode, want)
	}
	code, _, raw := postRaw(t, gts.URL, "/optimize/batch", body)
	if code != http.StatusOK {
		t.Fatalf("gateway batch answered %d: %s", code, raw)
	}
	if got, wantN := stripTimings(t, raw), stripTimings(t, want); got != wantN {
		t.Errorf("batch bytes differ:\n gate: %s\nnode: %s", got, wantN)
	}
}

// TestGatewayBatchJob: a ?job= batch through the gateway reaches its
// backend with the query, so it runs as a resumable job — the answer
// carries a job_id — and the job is then found through the gateway.
func TestGatewayBatchJob(t *testing.T) {
	_, _, gts := newFleet(t, 3, Config{})
	module := diamond + strings.ReplaceAll(diamond, "func f", "func g")
	code, _, raw := postRaw(t, gts.URL, "/optimize/batch?job=1", optBody(t, module))
	if code != http.StatusOK {
		t.Fatalf("gateway ?job= batch answered %d: %s", code, raw)
	}
	var out struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.JobID == "" {
		t.Fatalf("?job= batch through the gateway carries no job_id: %s", raw)
	}
	resp, err := http.Get(gts.URL + "/jobs/" + out.JobID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /jobs/%s through the gateway answered %d", out.JobID, resp.StatusCode)
	}
}

// TestGatewayJobQuerySplitsSingleFlight: one body sent with and without
// ?job= at the same time makes two backend calls, each with its own
// query — the answers differ (only the job form has a job_id), so
// neither may join the other.
func TestGatewayJobQuerySplitsSingleFlight(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	var queries []string
	gw, nodes, gts := newScriptedFleet(t, 1, Config{}, func(i int, w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		queries = append(queries, r.URL.RawQuery)
		mu.Unlock()
		<-gate
		writeGateJSON(w, http.StatusOK, map[string]any{"served_by": i, "query": r.URL.RawQuery})
	})
	// Released on failure too, so a request joined to the other one
	// cannot wedge the servers' shutdown.
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	body := optBody(t, diamond)
	var wg sync.WaitGroup
	for _, path := range []string{"/optimize/batch", "/optimize/batch?job=1"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			if code, _, raw := postRaw(t, gts.URL, path, body); code != http.StatusOK {
				t.Errorf("%s answered %d: %s", path, code, raw)
			}
		}(path)
	}
	waitFor(t, func() bool { return nodes[0].hits.Load() == 2 })
	release()
	wg.Wait()
	if joins := gw.dedupeJoins.Load(); joins != 0 {
		t.Errorf("dedupe_joins = %d, want 0", joins)
	}
	sort.Strings(queries)
	if want := []string{"", "job=1"}; !reflect.DeepEqual(queries, want) {
		t.Errorf("backend saw queries %q, want %q", queries, want)
	}
}

// TestGatewayHealthPolling: the poller marks a draining backend
// not-ready and the preferred pass stops placing traffic on it, before
// any request has to fail.
func TestGatewayHealthPolling(t *testing.T) {
	gw, nodes, gts := newFleet(t, 2, Config{HealthInterval: 20 * time.Millisecond})
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.ts.URL
	}
	body := bodyOwnedBy(t, gw, urls, "/optimize", 0)

	nodes[0].srv.BeginDrain()
	waitFor(t, func() bool { return !gw.backends[urls[0]].ready.Load() })

	before := gw.backends[urls[0]].routed.Load()
	if code, _, raw := postRaw(t, gts.URL, "/optimize", body); code != http.StatusOK {
		t.Fatalf("request during drain answered %d: %s", code, raw)
	}
	if got := gw.backends[urls[0]].routed.Load(); got != before {
		t.Errorf("draining backend still took traffic: routed %d -> %d", before, got)
	}
}

// TestGatewayProbeDecodeErrors: a /readyz body that does not decode —
// garbled, or valid JSON cut by the probe's read limit — is counted per
// backend and fleet-wide, leaves the last good gauges in place instead
// of zeroing the fleet view, and still sets readiness from the status
// code.
func TestGatewayProbeDecodeErrors(t *testing.T) {
	var mode atomic.Value
	mode.Store("good")
	gw, nodes, gts := newScriptedFleet(t, 1, Config{}, func(_ int, w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			writeGateJSON(w, http.StatusOK, map[string]any{})
			return
		}
		switch mode.Load() {
		case "good":
			writeGateJSON(w, http.StatusOK, map[string]any{
				"ready": true, "degrade_level": 1, "jobs_active": 3, "fn_cache_hits": 7,
			})
		case "garbled":
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, `{"ready": true, "jobs_active": 0, "fn_cache_hits": `)
		case "oversized":
			w.WriteHeader(http.StatusOK)
			fmt.Fprintf(w, `{"ready": true, "jobs_active": 0, "pad": %q}`, strings.Repeat("x", 8192))
		case "garbled503":
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "not json")
		}
	})
	b := gw.backends[nodes[0].ts.URL]
	gauges := func() (int32, int64, int64) {
		snap := b.gauges.Load()
		if snap == nil {
			return b.degrade.Load(), -1, -1
		}
		gauge := func(k string) int64 {
			num, _ := (*snap)[k].(json.Number)
			n, err := num.Int64()
			if err != nil {
				t.Fatalf("gauge %s = %v: %v", k, (*snap)[k], err)
			}
			return n
		}
		return b.degrade.Load(), gauge("jobs_active"), gauge("fn_cache_hits")
	}

	gw.probe(b)
	if d, j, h := gauges(); d != 1 || j != 3 || h != 7 {
		t.Fatalf("good probe stored degrade/jobs/hits = %d/%d/%d, want 1/3/7", d, j, h)
	}
	for i, m := range []string{"garbled", "oversized", "garbled503"} {
		mode.Store(m)
		gw.probe(b)
		if got := b.probeDecodeErrors.Load(); got != int64(i+1) {
			t.Errorf("%s: probe_decode_errors = %d, want %d", m, got, i+1)
		}
		if d, j, h := gauges(); d != 1 || j != 3 || h != 7 {
			t.Errorf("%s: gauges degrade/jobs/hits = %d/%d/%d, want the last good 1/3/7", m, d, j, h)
		}
		if want := m != "garbled503"; b.ready.Load() != want {
			t.Errorf("%s: ready = %v, want %v from the status code", m, b.ready.Load(), want)
		}
	}

	resp, err := http.Get(gts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Backends map[string]map[string]any `json:"backends"`
		Fleet    map[string]float64        `json:"fleet"`
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Backends[nodes[0].ts.URL]["probe_decode_errors"]; got != 3.0 {
		t.Errorf("backend probe_decode_errors = %v, want 3", got)
	}
	if got := h.Fleet["probe_decode_errors"]; got != 3 {
		t.Errorf("fleet probe_decode_errors = %v, want 3", got)
	}
	if got := h.Fleet["jobs_active"]; got != 3 {
		t.Errorf("fleet jobs_active = %v, want the last good 3", got)
	}
}

// TestGatewayFoldsUnknownGauges: the gateway reports and sums whatever
// gauges a backend's /readyz carries, names it has never heard of
// included. Numbers sum under their own name, true flags count as
// <name>_backends, the gateway's own per-backend fields win a name
// clash, and a backend not yet probed contributes no gauges.
func TestGatewayFoldsUnknownGauges(t *testing.T) {
	gw, nodes, gts := newScriptedFleet(t, 2, Config{}, func(i int, w http.ResponseWriter, r *http.Request) {
		writeGateJSON(w, http.StatusOK, map[string]any{
			"ready": true, "draining": false, "degrade_level": i,
			"widgets": 5 + i, "frobbed": i == 0, "routed": 999,
		})
	})
	healthz := func() (map[string]map[string]any, map[string]any) {
		t.Helper()
		code, _, raw := postRawGet(t, gts.URL+"/healthz")
		if code != http.StatusOK {
			t.Fatalf("healthz = %d", code)
		}
		var h struct {
			Backends map[string]map[string]any `json:"backends"`
			Fleet    map[string]any            `json:"fleet"`
		}
		if err := json.Unmarshal(raw, &h); err != nil {
			t.Fatal(err)
		}
		return h.Backends, h.Fleet
	}

	bk, fl := healthz()
	for _, k := range []string{"widgets", "frobbed"} {
		if _, ok := bk[nodes[0].ts.URL][k]; ok {
			t.Errorf("unprobed backend reports %s", k)
		}
	}
	if _, ok := fl["widgets"]; ok {
		t.Errorf("fleet sums widgets before any probe: %v", fl)
	}

	for _, n := range nodes {
		gw.probe(gw.backends[n.ts.URL])
	}
	bk, fl = healthz()
	for i, n := range nodes {
		b := bk[n.ts.URL]
		if got := b["widgets"]; got != float64(5+i) {
			t.Errorf("backend %d widgets = %v, want %d", i, got, 5+i)
		}
		if got := b["frobbed"]; got != (i == 0) {
			t.Errorf("backend %d frobbed = %v, want %v", i, got, i == 0)
		}
		if got := b["routed"]; got != 0.0 {
			t.Errorf("backend %d routed = %v, want the gateway's 0 over the backend's 999", i, got)
		}
		if got := b["degrade_level"]; got != float64(i) {
			t.Errorf("backend %d degrade_level = %v, want %d", i, got, i)
		}
		if _, ok := b["draining"]; ok {
			t.Errorf("backend %d entry carries the backend's draining flag", i)
		}
	}
	if fl["widgets"] != 11.0 || fl["frobbed_backends"] != 1.0 {
		t.Errorf("fleet widgets/frobbed_backends = %v/%v, want 11/1", fl["widgets"], fl["frobbed_backends"])
	}
	for _, k := range []string{"frobbed", "routed", "ready", "draining", "degrade_level"} {
		if _, ok := fl[k]; ok {
			t.Errorf("fleet carries %s", k)
		}
	}
}

// TestGatewayReadyz: ready while any breaker admits; 503 once every
// backend's breaker is open.
func TestGatewayReadyz(t *testing.T) {
	gw, nodes, gts := newScriptedFleet(t, 2, Config{
		AttemptTimeout: time.Second,
		Breaker:        fleet.BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute},
	}, nil)

	code, _, _ := postRaw(t, gts.URL, "/optimize", optBody(t, "warm"))
	if code != http.StatusOK {
		t.Fatalf("healthy fleet answered %d", code)
	}
	resp, err := http.Get(gts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz on healthy fleet = %d", resp.StatusCode)
	}

	for _, n := range nodes {
		n.chaos.SetMode(chaos.BackendKilled)
	}
	postRaw(t, gts.URL, "/optimize", optBody(t, "trip-both"))
	waitFor(t, func() bool {
		open := 0
		for _, b := range gw.backends {
			if b.breaker.State() == fleet.BreakerOpen {
				open++
			}
		}
		return open == len(gw.backends)
	})
	resp, err = http.Get(gts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Ready             bool `json:"ready"`
		BackendsAvailable int  `json:"backends_available"`
	}
	json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || status.Ready || status.BackendsAvailable != 0 {
		t.Fatalf("readyz with all breakers open = %d, %+v", resp.StatusCode, status)
	}

	// healthz stays 200 regardless — it's the observability surface.
	resp, err = http.Get(gts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]any
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if _, ok := h["backends"].(map[string]any); !ok {
		t.Errorf("healthz missing backends map: %v", h)
	}
}
