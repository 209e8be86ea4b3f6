package lcmserver

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestResultCacheLRU exercises the cache data structure alone: capacity
// eviction in least-recently-used order, recency refresh on get and on
// re-put, and the nil cache behaving as an always-miss cache.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	out := func(s int) outcome { return outcome{status: s} }
	c.put("a", out(1))
	c.put("b", out(2))
	if _, ok, _ := c.get("a"); !ok { // refresh a: b is now LRU
		t.Fatal("a missing")
	}
	c.put("c", out(3)) // evicts b
	if _, ok, _ := c.get("b"); ok {
		t.Error("b survived eviction past capacity")
	}
	if got, ok, _ := c.get("a"); !ok || got.status != 1 {
		t.Errorf("a = %+v %v, want status 1", got, ok)
	}
	if got, ok, _ := c.get("c"); !ok || got.status != 3 {
		t.Errorf("c = %+v %v, want status 3", got, ok)
	}
	c.put("c", out(4)) // re-put refreshes in place, no growth
	if got, _, _ := c.get("c"); got.status != 4 {
		t.Errorf("re-put did not replace: %+v", got)
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}

	var nilCache *resultCache
	if _, ok, _ := nilCache.get("x"); ok {
		t.Error("nil cache returned a hit")
	}
	nilCache.put("x", out(1)) // must not panic
	if nilCache.len() != 0 {
		t.Error("nil cache has entries")
	}
}

// TestCacheKeyDiscriminates: every directive that can change the result
// must change the key; the deadline must not.
func TestCacheKeyDiscriminates(t *testing.T) {
	base := optimizeRequest{Program: diamond, Mode: "lcm"}
	k := func(req optimizeRequest, fuel int, verify bool) string {
		return cacheKey(req, req.Program, fuel, verify)
	}
	ref := k(base, 0, false)
	alts := map[string]string{}
	{
		r := base
		r.Program += "\n"
		alts["program"] = k(r, 0, false)
	}
	{
		r := base
		r.Mode = "bcm"
		alts["mode"] = k(r, 0, false)
	}
	{
		r := base
		r.Canonical = true
		alts["canonical"] = k(r, 0, false)
	}
	alts["fuel"] = k(base, 7, false)
	alts["verify"] = k(base, 0, true)
	for name, alt := range alts {
		if alt == ref {
			t.Errorf("changing %s did not change the cache key", name)
		}
	}
	r := base
	r.TimeoutMS = 123
	if k(r, 0, false) != ref {
		t.Error("deadline leaked into the cache key")
	}
}

// TestCacheReplaysCleanResults: the second identical request is a cache
// hit with a byte-identical optimized program, and /healthz reports the
// hit/miss counters.
func TestCacheReplaysCleanResults(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code1, out1 := postOptimize(t, ts, optimizeRequest{Program: diamond})
	code2, out2 := postOptimize(t, ts, optimizeRequest{Program: diamond})
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("statuses %d/%d, want 200/200", code1, code2)
	}
	if out1.Program != out2.Program {
		t.Errorf("cache hit changed the program:\n%s\nvs\n%s", out1.Program, out2.Program)
	}
	if got := s.cacheHits.Load(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
	if got := s.cacheMisses.Load(); got != 1 {
		t.Errorf("cache misses = %d, want 1", got)
	}
	// A different directive set is a different key: no false hit.
	if code, _ := postOptimize(t, ts, optimizeRequest{Program: diamond, Mode: "bcm"}); code != http.StatusOK {
		t.Fatalf("bcm status %d", code)
	}
	if got := s.cacheHits.Load(); got != 1 {
		t.Errorf("cache hits after different mode = %d, want still 1", got)
	}

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["fn_cache_hits"] != float64(1) || health["fn_cache_misses"] != float64(2) {
		t.Errorf("healthz cache counters = %v/%v, want 1/2", health["fn_cache_hits"], health["fn_cache_misses"])
	}
}

// TestCacheSkipsFailures: outcomes that carry side effects or depend on
// the deadline — panics here — are never cached; every identical request
// re-executes.
func TestCacheSkipsFailures(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Quarantine: t.TempDir(),
		hook: func(req optimizeRequest) {
			if strings.Contains(req.Program, "boom") {
				panic("injected fault")
			}
		},
	})
	prog := "func boom(a) {\ne:\n  print a\n  ret\n}\n"
	for i := 0; i < 2; i++ {
		if code, _ := postOptimize(t, ts, optimizeRequest{Program: prog}); code != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500", i, code)
		}
	}
	if got := s.cacheHits.Load(); got != 0 {
		t.Errorf("failed outcome served from cache: hits = %d", got)
	}
	if got := s.panics.Load(); got != 2 {
		t.Errorf("panics = %d, want 2 (both requests executed)", got)
	}
}

// TestCacheDisabled: a negative CacheSize turns the cache off entirely —
// no hits, no misses, repeated requests all execute.
func TestCacheDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: -1})
	for i := 0; i < 2; i++ {
		if code, _ := postOptimize(t, ts, optimizeRequest{Program: diamond}); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
	}
	if h, m := s.cacheHits.Load(), s.cacheMisses.Load(); h != 0 || m != 0 {
		t.Errorf("disabled cache counted hits=%d misses=%d", h, m)
	}
}
