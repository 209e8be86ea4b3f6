package lcmserver

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lazycm/internal/cachestore"
)

// startServer is newTestServer without the deferred teardown, for tests
// that must stop a server mid-test (restart simulations).
func startServer(cfg Config) (*Server, *httptest.Server, func()) {
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	return s, ts, func() {
		ts.Close()
		s.Close()
	}
}

// entryFiles lists the durable tier's entry files under dir.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.ce"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDiskCacheWarmStart: a clean outcome written through to the cache
// directory survives the process; a fresh server over the same directory
// serves it byte-identically from disk without running the pipeline.
func TestDiskCacheWarmStart(t *testing.T) {
	dir := t.TempDir()

	s1, ts1, stop1 := startServer(Config{Quarantine: "", CacheDir: dir})
	code, first := postOptimize(t, ts1, optimizeRequest{Program: diamond})
	if code != http.StatusOK || first.Error != "" {
		t.Fatalf("seed request failed: %d %q", code, first.Error)
	}
	if st := s1.Stats(); st.DiskEntries != 1 || st.DiskBytes <= 0 {
		t.Fatalf("write-through missing: DiskEntries=%d DiskBytes=%d", st.DiskEntries, st.DiskBytes)
	}
	if got := entryFiles(t, dir); len(got) != 1 {
		t.Fatalf("%d entry files on disk, want 1", len(got))
	}
	stop1() // the "crash": only the directory survives

	s2, ts2, stop2 := startServer(Config{Quarantine: "", CacheDir: dir})
	defer stop2()
	code, again := postOptimize(t, ts2, optimizeRequest{Program: diamond})
	if code != http.StatusOK {
		t.Fatalf("warm request failed: %d %q", code, again.Error)
	}
	if again.Program != first.Program {
		t.Fatalf("warm-start answer diverged:\n got %q\nwant %q", again.Program, first.Program)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.CacheHits != 1 || st.CacheMisses != 0 {
		t.Errorf("warm hit not served from disk: DiskHits=%d CacheHits=%d CacheMisses=%d",
			st.DiskHits, st.CacheHits, st.CacheMisses)
	}
	// The accounting invariant must hold across the tier: a disk hit is
	// an optimized request like any other.
	if st.Optimized != st.Requests {
		t.Errorf("accounting drifted: optimized=%d requests=%d", st.Optimized, st.Requests)
	}

	// The disk hit was promoted into memory: the next request must not
	// touch the disk tier again.
	postOptimize(t, ts2, optimizeRequest{Program: diamond})
	if st := s2.Stats(); st.DiskHits != 1 || st.CacheHits != 2 {
		t.Errorf("promotion missing: DiskHits=%d CacheHits=%d", st.DiskHits, st.CacheHits)
	}
}

// TestDiskCorruptionRecomputedNeverServed: an entry that rots on disk
// between boots reads as a miss, is counted and unlinked, and the
// request recomputes the identical clean answer.
func TestDiskCorruptionRecomputedNeverServed(t *testing.T) {
	dir := t.TempDir()
	_, ts1, stop1 := startServer(Config{Quarantine: "", CacheDir: dir})
	_, first := postOptimize(t, ts1, optimizeRequest{Program: diamond})
	stop1()

	files := entryFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d entry files, want 1", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x20 // disk rot: one flipped bit in the payload
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2, stop2 := startServer(Config{Quarantine: "", CacheDir: dir})
	defer stop2()
	code, again := postOptimize(t, ts2, optimizeRequest{Program: diamond})
	if code != http.StatusOK || again.Error != "" {
		t.Fatalf("request over corrupt cache failed: %d %q", code, again.Error)
	}
	if again.Program != first.Program {
		t.Fatalf("recomputed answer diverged:\n got %q\nwant %q", again.Program, first.Program)
	}
	st := s2.Stats()
	if st.CorruptDropped != 1 {
		t.Errorf("CorruptDropped = %d, want 1", st.CorruptDropped)
	}
	if st.DiskHits != 0 || st.CacheHits != 0 || st.CacheMisses != 1 {
		t.Errorf("corrupt entry served: DiskHits=%d CacheHits=%d CacheMisses=%d",
			st.DiskHits, st.CacheHits, st.CacheMisses)
	}
	// The corrupt file was unlinked and the recomputed clean outcome
	// written through in its place: the entry on disk verifies again.
	healed, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatalf("recomputed entry not re-persisted: %v", err)
	}
	key := filepath.Base(files[0])
	key = key[:len(key)-len(".ce")]
	if _, err := cachestore.Decode(key, healed); err != nil {
		t.Errorf("re-persisted entry fails verification: %v", err)
	}
}

// TestCacheGetEndpoint: GET /cache/{key} serves a held entry in the
// self-verifying wire format and answers authoritative 404s for misses
// and malformed keys.
func TestCacheGetEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Quarantine: ""})
	_, out := postOptimize(t, ts, optimizeRequest{Program: diamond})

	req := optimizeRequest{Program: diamond, Mode: "lcm"}
	key := cacheKey(req, req.Program, s.effectiveFuel(req), false)

	resp, err := ts.Client().Get(ts.URL + "/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /cache/%s = %d", key, resp.StatusCode)
	}
	payload, err := cachestore.Decode(key, body)
	if err != nil {
		t.Fatalf("wire entry failed verification: %v", err)
	}
	dec, ok := decodeOutcome(payload)
	if !ok || dec.body.Program != out.Program {
		t.Fatalf("wire entry decoded to %q, want %q", dec.body.Program, out.Program)
	}
	if s.Stats().PeerServed != 1 {
		t.Errorf("PeerServed = %d, want 1", s.Stats().PeerServed)
	}

	for _, bad := range []string{cacheKey(optimizeRequest{}, "absent", 0, false), "not-a-key", "../etc/passwd"} {
		resp, err := ts.Client().Get(ts.URL + "/cache/" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /cache/%s = %d, want 404", bad, resp.StatusCode)
		}
	}
}

// TestPeerFillServesRemoteHit: a local miss is filled from the peer that
// already computed the result — byte-identical, counted as a peer hit on
// the asker and a serve on the owner, and cached locally afterwards.
func TestPeerFillServesRemoteHit(t *testing.T) {
	owner, tsOwner := newTestServer(t, Config{Quarantine: ""})
	_, first := postOptimize(t, tsOwner, optimizeRequest{Program: diamond})

	asker, tsAsker := newTestServer(t, Config{
		Quarantine: "",
		Peers:      []string{tsOwner.URL},
	})
	code, got := postOptimize(t, tsAsker, optimizeRequest{Program: diamond})
	if code != http.StatusOK {
		t.Fatalf("peer-filled request failed: %d %q", code, got.Error)
	}
	if got.Program != first.Program {
		t.Fatalf("peer fill diverged:\n got %q\nwant %q", got.Program, first.Program)
	}
	st := asker.Stats()
	if st.PeerHits != 1 || st.CacheMisses != 0 || st.CacheHits != 0 {
		t.Errorf("fill not attributed to the peer tier: PeerHits=%d CacheHits=%d CacheMisses=%d",
			st.PeerHits, st.CacheHits, st.CacheMisses)
	}
	if st.Optimized != st.Requests {
		t.Errorf("accounting drifted: optimized=%d requests=%d", st.Optimized, st.Requests)
	}
	if owner.Stats().PeerServed != 1 {
		t.Errorf("owner PeerServed = %d, want 1", owner.Stats().PeerServed)
	}

	// The fill landed in the local cache: the repeat is a local hit, not
	// another network round trip.
	postOptimize(t, tsAsker, optimizeRequest{Program: diamond})
	if st := asker.Stats(); st.PeerHits != 1 || st.CacheHits != 1 {
		t.Errorf("fill not cached locally: PeerHits=%d CacheHits=%d", st.PeerHits, st.CacheHits)
	}
}

// TestPeerFillStrictlyFailOpen is the tier's core promise, proven the
// unpleasant way: with every configured peer hostile — one dead, one
// answering garbage, one stalled past the peer timeout — every request
// still succeeds via local compute. No user-visible error may originate
// in the cache tier.
func TestPeerFillStrictlyFailOpen(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from now on

	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("lcmcache1 this is not a valid entry at all"))
	}))
	defer garbage.Close()

	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	}))
	defer stalled.Close()

	s, ts := newTestServer(t, Config{
		Quarantine: "",
		Peers:      []string{dead.URL, garbage.URL, stalled.URL},
	})

	const n = 6
	for i := 0; i < n; i++ {
		prog := fmt.Sprintf("func f%d(a, b) {\nentry:\n  x = a + b\n  ret x\n}\n", i)
		code, out := postOptimize(t, ts, optimizeRequest{Program: prog})
		if code != http.StatusOK || out.Error != "" {
			t.Fatalf("request %d surfaced a cache-tier failure: %d %q", i, code, out.Error)
		}
	}
	st := s.Stats()
	if st.PeerHits != 0 || st.PeerMisses != int64(n) {
		t.Errorf("hostile peers produced hits: PeerHits=%d PeerMisses=%d", st.PeerHits, st.PeerMisses)
	}
	if st.Optimized != int64(n) || st.CacheMisses != int64(n) {
		t.Errorf("local compute did not cover every request: Optimized=%d CacheMisses=%d", st.Optimized, st.CacheMisses)
	}
}

// TestPeerFillSkipsSelfRecursion: the /cache endpoint consults local
// tiers only, so two servers configured as each other's peers resolve a
// double miss with one round of fetches, not a recursion.
func TestPeerFillSkipsSelfRecursion(t *testing.T) {
	// Build both handlers before either knows its peer: a placeholder
	// proxy gives each server the other's eventual URL.
	var tsB *httptest.Server
	proxyB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tsB.Config.Handler.ServeHTTP(w, r)
	}))
	defer proxyB.Close()

	a, tsA := newTestServer(t, Config{Quarantine: "", Peers: []string{proxyB.URL}})
	b, tsB2 := newTestServer(t, Config{Quarantine: "", Peers: []string{tsA.URL}})
	tsB = tsB2

	// Both cold: the request to A misses locally, asks B, gets an
	// authoritative 404 (B does not ask A back), and computes.
	code, out := postOptimize(t, tsA, optimizeRequest{Program: diamond})
	if code != http.StatusOK || out.Error != "" {
		t.Fatalf("double-miss request failed: %d %q", code, out.Error)
	}
	if st := a.Stats(); st.PeerMisses != 1 || st.Optimized != 1 {
		t.Errorf("A: PeerMisses=%d Optimized=%d", st.PeerMisses, st.Optimized)
	}
	// B served an authoritative miss without recursing into A: its own
	// peer counters never moved.
	if st := b.Stats(); st.PeerHits != 0 || st.PeerMisses != 0 || st.Requests != 0 {
		t.Errorf("B recursed: PeerHits=%d PeerMisses=%d Requests=%d", st.PeerHits, st.PeerMisses, st.Requests)
	}
}
