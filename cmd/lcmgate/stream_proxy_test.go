package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// gateRecord is one decoded NDJSON line from a proxied stream. It only
// carries the fields the gateway tests assert on; notably fell_back is
// omitted because it is a bool on items and an int on trailers.
type gateRecord struct {
	Type      string `json:"type"`
	ID        string `json:"id"`
	Functions int    `json:"functions"`
	Index     int    `json:"index"`
	Name      string `json:"name"`
	Status    int    `json:"status"`
	Program   string `json:"program"`
	Done      bool   `json:"done"`
	Completed int    `json:"completed"`
	Optimized int    `json:"optimized"`
}

// readNDJSON performs one streaming request through base and decodes
// every line, failing unless the response is a well-formed NDJSON stream.
func readNDJSON(t *testing.T, method, url string, body []byte) []gateRecord {
	t.Helper()
	var (
		resp *http.Response
		err  error
	)
	if method == http.MethodPost {
		resp, err = http.Post(url, "application/json", bytes.NewReader(body))
	} else {
		resp, err = http.Get(url)
	}
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d", method, url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want the backend's NDJSON type passed through", ct)
	}
	var recs []gateRecord
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var rec gateRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("undecodable stream line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return recs
}

// frame splits a proxied stream into meta, items, and trailer, checking
// the framing invariants every well-formed stream carries.
func frame(t *testing.T, recs []gateRecord) (gateRecord, []gateRecord, gateRecord) {
	t.Helper()
	if len(recs) < 2 {
		t.Fatalf("stream too short: %+v", recs)
	}
	meta, trailer := recs[0], recs[len(recs)-1]
	if meta.Type != "job" {
		t.Fatalf("first record type %q, want the job meta line", meta.Type)
	}
	if trailer.Type != "trailer" {
		t.Fatalf("last record type %q, want the trailer", trailer.Type)
	}
	var items []gateRecord
	for _, r := range recs[1 : len(recs)-1] {
		switch r.Type {
		case "item":
			items = append(items, r)
		case "heartbeat":
		default:
			t.Fatalf("unexpected record type %q mid-stream", r.Type)
		}
	}
	return meta, items, trailer
}

// TestGatewayStreamProxyEndToEnd drives the full resumable-stream
// surface through the gateway: a ?job= stream proxied unbuffered to its
// ring owner, the job then found by ID via the replica walk (the gateway
// cannot know which backend admitted it), its stream replayed, and the
// whole exchange visible in the gateway's healthz — streams_proxied plus
// the per-backend and fleet job/fn-cache gauges fed by /readyz probes.
func TestGatewayStreamProxyEndToEnd(t *testing.T) {
	gw, nodes, gts := newFleet(t, 3, Config{HealthInterval: 20 * time.Millisecond})
	body := optBody(t, diamond)

	// Reference: the same module through the plain buffered endpoint on a
	// backend directly. Routing and streaming must not change bytes.
	code, _, refRaw := postRaw(t, nodes[0].ts.URL, "/optimize", body)
	if code != 200 {
		t.Fatalf("reference optimize: %d: %s", code, refRaw)
	}
	var ref struct {
		Program string `json:"program"`
	}
	if err := json.Unmarshal(refRaw, &ref); err != nil {
		t.Fatal(err)
	}

	// The resumable stream through the gateway.
	meta, items, trailer := frame(t, readNDJSON(t, http.MethodPost, gts.URL+"/optimize/stream?job=1", body))
	if !strings.HasPrefix(meta.ID, "j-") {
		t.Fatalf("job meta ID = %q, want a derived job ID for ?job=", meta.ID)
	}
	if len(items) != 1 || items[0].Status != 200 {
		t.Fatalf("items = %+v, want the one diamond function optimized", items)
	}
	if items[0].Program != ref.Program {
		t.Errorf("streamed function diverges from direct optimize:\n got: %q\nwant: %q", items[0].Program, ref.Program)
	}
	if !trailer.Done || trailer.Completed != 1 || trailer.Optimized != 1 {
		t.Errorf("trailer %+v, want done 1/1", trailer)
	}

	// The job is findable by ID through the gateway even though exactly
	// one backend holds it and the ID hashes to an arbitrary ring
	// position: 404s from the wrong replicas are "not mine", not "gone".
	holders := 0
	for _, n := range nodes {
		if st, _, _ := postRawGet(t, n.ts.URL+"/jobs/"+meta.ID); st == 200 {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("job held by %d backends, want exactly 1 (the walk must matter)", holders)
	}
	st, _, raw := postRawGet(t, gts.URL+"/jobs/"+meta.ID)
	if st != 200 {
		t.Fatalf("GET /jobs/%s via gateway = %d: %s", meta.ID, st, raw)
	}
	var snap struct {
		Done bool `json:"done"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil || !snap.Done {
		t.Errorf("job snapshot via gateway: done=%v err=%v (%s)", snap.Done, err, raw)
	}
	if st, _, _ := postRawGet(t, gts.URL+"/jobs/j-0000000000000000"); st != http.StatusNotFound {
		t.Errorf("unknown job via gateway = %d, want 404 after every replica says not-mine", st)
	}

	// Resuming the finished job's stream through the gateway replays the
	// item and closes with a done trailer.
	_, ritems, rtrailer := frame(t, readNDJSON(t, http.MethodGet, gts.URL+"/jobs/"+meta.ID+"/stream", nil))
	if len(ritems) != 1 || ritems[0].Program != ref.Program {
		t.Errorf("replayed items = %+v, want the completed function again", ritems)
	}
	if !rtrailer.Done {
		t.Errorf("replay trailer %+v, want done", rtrailer)
	}

	// Observability: both streams counted, and once a probe cycle has run
	// the fleet view shows the function-cache traffic the job generated.
	healthz := func() map[string]any {
		code, _, raw := postRawGet(t, gts.URL+"/healthz")
		if code != 200 {
			t.Fatalf("healthz = %d", code)
		}
		var h map[string]any
		if err := json.Unmarshal(raw, &h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	// A backend reports gauges only once one of its probes has decoded.
	waitFor(t, func() bool {
		for _, n := range nodes {
			if gw.backends[n.ts.URL].gauges.Load() == nil {
				return false
			}
		}
		fleet, _ := healthz()["fleet"].(map[string]any)
		miss, _ := fleet["fn_cache_misses"].(float64)
		return miss >= 1
	})
	h := healthz()
	if got, _ := h["streams_proxied"].(float64); got < 2 {
		t.Errorf("streams_proxied = %v, want >= 2 (submission + resume)", h["streams_proxied"])
	}
	for _, n := range nodes {
		b, ok := h["backends"].(map[string]any)[n.ts.URL].(map[string]any)
		if !ok {
			t.Fatalf("backend %s missing from healthz", n.ts.URL)
		}
		for _, k := range []string{"jobs_active", "jobs_resumed", "jobs_expired", "stream_clients",
			"fn_cache_hits", "fn_cache_misses"} {
			if _, ok := b[k]; !ok {
				t.Errorf("backend %s healthz entry missing %q", n.ts.URL, k)
			}
		}
	}
}
