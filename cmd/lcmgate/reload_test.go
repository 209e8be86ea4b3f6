package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lazycm/internal/chaos"
)

// gateOwners records which backend the gateway's ring makes primary for
// each of a set of probe bodies.
func gateOwners(gw *Gateway, bodies [][]byte) []string {
	out := make([]string, len(bodies))
	gw.mu.RLock()
	defer gw.mu.RUnlock()
	for i, body := range bodies {
		key, _ := requestKey("/optimize", body)
		out[i] = gw.ring.Owner(key)
	}
	return out
}

// TestReloadMinimalMovement: growing or shrinking the fleet by one moves
// only about 1/N of placements — surviving backends keep every key the
// change does not force off them. This is the property that makes a
// rolling restart cheap: each step invalidates one node's share of cache
// affinity, not the whole fleet's.
func TestReloadMinimalMovement(t *testing.T) {
	gw, nodes, _ := newScriptedFleet(t, 4, Config{}, nil)
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.ts.URL
	}
	const K = 600
	bodies := make([][]byte, K)
	for i := range bodies {
		bodies[i] = optBody(t, fmt.Sprintf("func k%d(a) {\nentry:\n  ret a\n}\n", i))
	}
	before := gateOwners(gw, bodies)

	// Shrink: every key the leaver did not own stays put.
	removed := urls[0]
	if err := gw.Reload(urls[1:]); err != nil {
		t.Fatal(err)
	}
	after := gateOwners(gw, bodies)
	moved := 0
	for i := range bodies {
		if before[i] == removed {
			if after[i] == removed {
				t.Fatalf("key %d still owned by the removed backend", i)
			}
			moved++
			continue
		}
		if after[i] != before[i] {
			t.Errorf("key %d moved %s→%s though its owner survived", i, before[i], after[i])
		}
	}
	if bound := (K + 2) / 3; moved == 0 || moved > bound {
		t.Errorf("shrink moved %d keys, want 1..%d (the leaver's fair share)", moved, bound)
	}

	// Grow back: only the joiner may take keys.
	if err := gw.Reload(urls); err != nil {
		t.Fatal(err)
	}
	regrown := gateOwners(gw, bodies)
	moved = 0
	for i := range bodies {
		if regrown[i] == after[i] {
			continue
		}
		moved++
		if regrown[i] != removed {
			t.Errorf("key %d moved %s→%s, neither is the joining backend", i, after[i], regrown[i])
		}
	}
	if bound := (K + 2) / 3; moved == 0 || moved > bound { // ceil(K/3): one pre-join node's fair share
		t.Errorf("grow moved %d keys, want 1..%d (the joiner's fair share)", moved, bound)
	}
	if got := gw.reloads.Load(); got != 2 {
		t.Errorf("reloads = %d, want 2", got)
	}
}

// TestReloadDrainsInflight: a request already executing on a backend
// survives that backend's removal — it completes normally while new
// requests immediately route elsewhere, and the backend is reported as
// draining until its last request finishes. Nothing hangs.
func TestReloadDrainsInflight(t *testing.T) {
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	var entered atomic.Int64
	gw, nodes, gts := newScriptedFleet(t, 3, Config{Timeout: 20 * time.Second, AttemptTimeout: 20 * time.Second},
		func(i int, w http.ResponseWriter, r *http.Request) {
			if i == 0 {
				entered.Add(1)
				select {
				case <-release:
				case <-r.Context().Done():
				}
			}
			writeGateJSON(w, http.StatusOK, map[string]any{"served_by": i})
		})
	// Any failure before the explicit release must still unblock the
	// scripted backend, or cleanup hangs in httptest.Server.Close behind
	// the parked handler until the whole package's test timeout panics —
	// turning a fast failure into ten lost minutes and no other results.
	// Cleanups run last-in first-out, so this one must be registered
	// after the fleet's server closes.
	t.Cleanup(releaseOnce)
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.ts.URL
	}
	slow := bodyOwnedBy(t, gw, urls, "/optimize", 0)

	type result struct {
		code int
		body []byte
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(gts.URL+"/optimize", "application/json", bytes.NewReader(slow))
		if err != nil {
			done <- result{}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		done <- result{resp.StatusCode, buf.Bytes()}
	}()
	waitFor(t, func() bool { return entered.Load() == 1 })

	// Remove the busy backend mid-request.
	if err := gw.Reload(urls[1:]); err != nil {
		t.Fatal(err)
	}
	gw.mu.RLock()
	_, stillDraining := gw.draining[urls[0]]
	gw.mu.RUnlock()
	if !stillDraining {
		t.Error("busy backend not reported as draining")
	}

	// New traffic must not wait on the drain: every key is now owned by
	// a survivor. The body must differ from the blocked one, or the
	// single-flight dedupe joins it to the stranded request; slow's
	// programs are named p<n>, so a q-named one never collides.
	probe := optBody(t, strings.ReplaceAll(diamond, "func f", "func q0"))
	code, _, raw := postRaw(t, gts.URL, "/optimize", probe)
	if code != http.StatusOK {
		t.Fatalf("request during drain = %d: %s", code, raw)
	}

	// Let the stranded request finish: it completes on the removed
	// backend, and the drain then reaps it.
	releaseOnce()
	select {
	case res := <-done:
		if res.code != http.StatusOK || !bytes.Contains(res.body, []byte(`"served_by":0`)) {
			t.Fatalf("in-flight request across reload = %d: %s", res.code, res.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request hung across reload")
	}
	waitFor(t, func() bool {
		gw.mu.RLock()
		defer gw.mu.RUnlock()
		return len(gw.draining) == 0
	})
	if nodes[0].hits.Load() != 1 {
		t.Errorf("removed backend served %d requests, want exactly the stranded one", nodes[0].hits.Load())
	}
}

// TestAdminReloadEndpoint: the HTTP reload path applies membership,
// refuses an empty fleet, and a re-added backend comes back with a
// fresh, closed breaker.
func TestAdminReloadEndpoint(t *testing.T) {
	gw, nodes, gts := newScriptedFleet(t, 3, Config{}, nil)
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.ts.URL
	}

	// Kill node 0 and drive its breaker open through traffic.
	nodes[0].chaos.SetMode(chaos.BackendKilled)
	body := bodyOwnedBy(t, gw, urls, "/optimize", 0)
	for i := 0; i < 8; i++ {
		postRaw(t, gts.URL, "/optimize", body)
	}
	healthz := func() map[string]any {
		code, _, raw := postRawGet(t, gts.URL+"/healthz")
		if code != http.StatusOK {
			t.Fatalf("healthz = %d", code)
		}
		var h map[string]any
		if err := json.Unmarshal(raw, &h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	bk := healthz()["backends"].(map[string]any)
	if bk[urls[0]].(map[string]any)["breaker"] != "open" {
		t.Fatalf("breaker for killed backend = %v, want open", bk[urls[0]].(map[string]any)["breaker"])
	}

	// Empty reload refused.
	code, _, _ := postRaw(t, gts.URL, "/admin/reload", []byte(`{"backends":[]}`))
	if code != http.StatusBadRequest {
		t.Fatalf("empty reload = %d, want 400", code)
	}

	// Drop node 0, then bring it back (healed): its breaker history must
	// not follow it into its new life.
	for _, set := range [][]string{urls[1:], urls} {
		payload, _ := json.Marshal(map[string]any{"backends": set})
		code, _, raw := postRaw(t, gts.URL, "/admin/reload", payload)
		if code != http.StatusOK {
			t.Fatalf("reload = %d: %s", code, raw)
		}
	}
	nodes[0].chaos.SetMode(chaos.BackendHealthy)
	bk = healthz()["backends"].(map[string]any)
	if got := bk[urls[0]].(map[string]any)["breaker"]; got != "closed" {
		t.Errorf("re-added backend's breaker = %v, want a fresh closed one", got)
	}
	if got := len(bk); got != 3 {
		t.Errorf("healthz reports %d backends, want 3", got)
	}
	// And it serves again.
	code, _, raw := postRaw(t, gts.URL, "/optimize", body)
	if code != http.StatusOK || !bytes.Contains(raw, []byte(`"served_by":0`)) {
		t.Errorf("re-added backend not serving: %d %s", code, raw)
	}
}

// TestMembershipKeepsFlagBackends: membership is the -backends list
// plus the file, and a re-read after the file changes (what SIGHUP
// does) still carries every -backends member.
func TestMembershipKeepsFlagBackends(t *testing.T) {
	file := filepath.Join(t.TempDir(), "backends")
	write := func(content string) {
		t.Helper()
		if err := os.WriteFile(file, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const list = "http://a:1/, http://b:2"
	write("# fleet\nhttp://c:3\n")
	got, err := membership(list, file)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"http://a:1", "http://b:2", "http://c:3"}; !slices.Equal(got, want) {
		t.Fatalf("boot membership = %v, want %v", got, want)
	}

	write("http://d:4/\n")
	got, err = membership(list, file)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"http://a:1", "http://b:2", "http://d:4"}; !slices.Equal(got, want) {
		t.Fatalf("reloaded membership = %v, want %v", got, want)
	}

	if got, err := membership(list, ""); err != nil || !slices.Equal(got, []string{"http://a:1", "http://b:2"}) {
		t.Fatalf("membership without a file = %v, %v", got, err)
	}
	if _, err := membership(list, filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("an unreadable file must be an error, leaving membership unchanged")
	}
}

func postRawGet(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.Bytes()
}
