package lcmserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"lazycm/internal/chaos"
	"lazycm/internal/overload"
)

// steadyLadder pins the ladder at level 0 for the test's lifetime: the
// streak requirements are far beyond anything a test emits, so shed
// responses differ only by their per-request jitter.
var steadyLadder = overload.Config{UpAfter: 1 << 20, DownAfter: 1 << 20}

// rawOptimize posts and returns the raw response so headers can be
// inspected alongside the decoded body.
func rawOptimize(t *testing.T, ts *httptest.Server, req optimizeRequest) (*http.Response, optimizeResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out optimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("bad response body: %v", err)
	}
	return resp, out
}

// TestRetryAfterLoadAwareJitter is the regression test for the
// hardcoded-hint bug: every shed response used to say "Retry-After: 1",
// so synchronized clients retried in lockstep. Now the hint is computed
// from queue depth and ladder level with per-request jitter — two
// rejections of different requests name different waits, while the same
// request always gets the same deterministic answer.
func TestRetryAfterLoadAwareJitter(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, ts := newTestServer(t, Config{
		Workers: 1, Queue: 1, Timeout: time.Minute, Degrade: steadyLadder,
		hook: func(optimizeRequest) { <-release },
	})
	asyncOptimize(ts, diamond)
	waitFor(t, func() bool { return s.inflight.Load() == 1 })
	asyncOptimize(ts, diamond)
	waitFor(t, func() bool { return s.queued.Load() == 1 })

	other := strings.Replace(diamond, "func f(", "func g(", 1)
	respA, outA := rawOptimize(t, ts, optimizeRequest{Program: diamond})
	respB, outB := rawOptimize(t, ts, optimizeRequest{Program: other})
	respA2, outA2 := rawOptimize(t, ts, optimizeRequest{Program: diamond})
	for i, r := range []*http.Response{respA, respB, respA2} {
		if r.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("shed response %d: status %d, want 429", i, r.StatusCode)
		}
	}

	if outA.RetryAfterMS == outB.RetryAfterMS {
		t.Errorf("two distinct shed requests got the identical hint %dms — jitter is not per-request",
			outA.RetryAfterMS)
	}
	if outA.RetryAfterMS != outA2.RetryAfterMS {
		t.Errorf("same request got different hints (%d vs %d) — jitter is not deterministic",
			outA.RetryAfterMS, outA2.RetryAfterMS)
	}
	for _, out := range []optimizeResponse{outA, outB} {
		if out.RetryAfterMS < overload.MinRetryAfter.Milliseconds() ||
			out.RetryAfterMS > overload.MaxRetryAfter.Milliseconds() {
			t.Errorf("hint %dms outside [%v, %v]", out.RetryAfterMS, overload.MinRetryAfter, overload.MaxRetryAfter)
		}
	}
	// The whole-second header is the body hint rounded up, never down to
	// a lie about how soon capacity returns.
	wantHeader := strconv.FormatInt((outB.RetryAfterMS+999)/1000, 10)
	if got := respB.Header.Get("Retry-After"); got != wantHeader {
		t.Errorf("Retry-After header %q, want %q (ceil of %dms)", got, wantHeader, outB.RetryAfterMS)
	}
	// /healthz reports the last hint issued.
	_, h := getHealthz(t, ts)
	if got := int64(h["retry_after_ms"].(float64)); got != outA2.RetryAfterMS {
		t.Errorf("healthz retry_after_ms = %d, want %d", got, outA2.RetryAfterMS)
	}
}

// TestLadderShedsAndRecovers walks the whole ladder under a controlled
// queue: pressure escalates one level per observation (UpAfter=1), each
// level sheds exactly its class of work, and draining the queue walks
// the ladder back down the same rungs — 6 transitions, visible on
// /healthz throughout.
func TestLadderShedsAndRecovers(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers: 1, Queue: 8, Timeout: time.Minute, CacheSize: -1,
		Degrade: overload.Config{
			// Thresholds chosen so the queue fraction alone drives the
			// climb: the busy-pool term maxes out at InflightWeight (0.5),
			// below Enter[0].
			Enter:   [3]float64{0.55, 0.70, 0.85},
			Exit:    [3]float64{0.10, 0.20, 0.30},
			UpAfter: 1, DownAfter: 1,
		},
		hook: func(optimizeRequest) { <-release },
	})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	level := func() float64 {
		t.Helper()
		_, h := getHealthz(t, ts)
		return h["degrade_level"].(float64)
	}

	// One request occupies the worker; a busy-but-empty-queue server is
	// full service.
	asyncOptimize(ts, diamond)
	waitFor(t, func() bool { return s.inflight.Load() == 1 })
	if lvl := level(); lvl != 0 {
		t.Fatalf("busy pool alone pushed level to %v", lvl)
	}

	// Queue 5/8 = 0.625 ≥ Enter[0]: one observation climbs to level 1.
	for i := int64(1); i <= 5; i++ {
		asyncOptimize(ts, diamond)
		waitFor(t, func() bool { return s.queued.Load() == i })
	}
	if lvl := level(); lvl != 1 {
		t.Fatalf("level = %v at queue 5/8, want 1", lvl)
	}

	// Queue 6/8 = 0.75 ≥ Enter[1]: level 2. Batches shed, singles pass.
	asyncOptimize(ts, diamond)
	waitFor(t, func() bool { return s.queued.Load() == 6 })
	if lvl := level(); lvl != 2 {
		t.Fatalf("level = %v at queue 6/8, want 2", lvl)
	}
	bcode, bout := postBatch(t, ts, optimizeRequest{Program: diamond})
	if bcode != http.StatusTooManyRequests || bout.Kind != "overload" {
		t.Fatalf("level-2 batch: %d %q, want 429/overload", bcode, bout.Kind)
	}
	asyncOptimize(ts, diamond) // a single is still admitted at level 2
	waitFor(t, func() bool { return s.queued.Load() == 7 })

	// Queue 7/8 = 0.875 ≥ Enter[2]: level 3. Everything new sheds.
	if lvl := level(); lvl != 3 {
		t.Fatalf("level = %v at queue 7/8, want 3", lvl)
	}
	code, out := postOptimize(t, ts, optimizeRequest{Program: diamond})
	if code != http.StatusTooManyRequests || out.Kind != "overload" {
		t.Fatalf("level-3 single: %d %+v, want 429/overload", code, out)
	}
	if out.DegradeLevel != 3 || out.RetryAfterMS <= 0 {
		t.Errorf("level-3 shed body = %+v, want degrade_level 3 with a retry hint", out)
	}

	// Release the pool; the ladder must retrace its rungs back to full
	// service as probes observe the drained queue.
	close(release)
	waitFor(t, func() bool { return s.queued.Load() == 0 && s.inflight.Load() == 0 })
	waitFor(t, func() bool { return level() == 0 })
	if got := s.ladder.Transitions(); got != 6 {
		t.Errorf("transitions = %d, want 6 (3 up, 3 down, one rung at a time)", got)
	}
}

// TestOptionsForDegradesEffort: level 1+ turns verification off and
// shrinks the fuel budget, and only in the tightening direction — a
// client already running leaner than the degraded cap keeps its own
// budget.
func TestOptionsForDegradesEffort(t *testing.T) {
	s := NewServer(Config{Workers: 1, DegradedFuel: 500})
	defer s.Close()
	req := optimizeRequest{Program: diamond, Verify: true}

	if fuel, verify := s.optionsFor(req, overload.LevelFull); fuel != 0 || !verify {
		t.Errorf("full service = fuel %d verify %v, want 0/true", fuel, verify)
	}
	if fuel, verify := s.optionsFor(req, overload.LevelNoVerify); fuel != 500 || verify {
		t.Errorf("degraded = fuel %d verify %v, want 500/false (unlimited shrinks to cap)", fuel, verify)
	}
	req.Fuel = 100
	if fuel, _ := s.optionsFor(req, overload.LevelNoVerify); fuel != 100 {
		t.Errorf("degraded fuel = %d, want the client's own tighter 100", fuel)
	}
	req.Fuel = 10000
	if fuel, _ := s.optionsFor(req, overload.LevelNoVerify); fuel != 500 {
		t.Errorf("degraded fuel = %d, want clamped to 500", fuel)
	}

	s2 := NewServer(Config{Workers: 1, DegradedFuel: -1})
	defer s2.Close()
	if fuel, verify := s2.optionsFor(optimizeRequest{Fuel: 10000}, overload.LevelShed); fuel != 10000 || verify {
		t.Errorf("disabled shrink = fuel %d verify %v, want 10000/false", fuel, verify)
	}
}

// climbingLadder escalates on every observation regardless of score, so
// a test can walk the server to any level with /healthz probes.
var climbingLadder = overload.Config{
	Enter: [3]float64{-1, -1, -1}, Exit: [3]float64{-1, -1, -1},
	UpAfter: 1, DownAfter: 1,
}

// TestCacheServesAtFullShed: level 3 refuses all new computation but a
// cached result costs none — popular inputs keep getting answers, with
// exact accounting, while everything else sheds.
func TestCacheServesAtFullShed(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Degrade: climbingLadder})

	// Prime the cache. This request itself observes once (level 1), so it
	// already runs — and is keyed — under the degraded options that later
	// probes will look up.
	code, primed := postOptimize(t, ts, optimizeRequest{Program: diamond})
	if code != http.StatusOK {
		t.Fatalf("priming request: %d %+v", code, primed)
	}
	for i := 0; i < 2; i++ { // two probes: level 2, then 3
		getHealthz(t, ts)
	}

	code, out := postOptimize(t, ts, optimizeRequest{Program: diamond})
	if code != http.StatusOK {
		t.Fatalf("cached request at shed level: %d %+v", code, out)
	}
	if out.Program != primed.Program {
		t.Errorf("cache replay differs from the primed result:\n%s\nvs\n%s", out.Program, primed.Program)
	}
	if out.DegradeLevel != 3 {
		t.Errorf("degrade_level = %d, want 3", out.DegradeLevel)
	}
	if s.cacheHits.Load() != 1 {
		t.Errorf("cache hits = %d, want 1", s.cacheHits.Load())
	}

	// An uncached program at level 3 sheds.
	other := strings.Replace(diamond, "func f(", "func g(", 1)
	code, out = postOptimize(t, ts, optimizeRequest{Program: other})
	if code != http.StatusTooManyRequests || out.Kind != "overload" {
		t.Fatalf("uncached at shed level: %d %+v, want 429/overload", code, out)
	}

	// Accounting stayed exact: two served requests, one shed, and the
	// cache hit landed in the optimized bucket like any other success.
	if r, o, sh := s.requests.Load(), s.optimized.Load(), s.shed.Load(); r != 2 || o != 2 || sh != 1 {
		t.Errorf("requests/optimized/shed = %d/%d/%d, want 2/2/1", r, o, sh)
	}
}

// TestCacheServesLevelZeroResultAtFullShed: the degrade level stays out
// of the cache key. A function computed at level 0 under the full fuel
// budget answers from cache at level 3, where the request's own fuel is
// capped — fuel decides whether a clean result exists, never which one.
func TestCacheServesLevelZeroResultAtFullShed(t *testing.T) {
	// Two observations per level: the priming request (observation 1)
	// runs at level 0, five probes then climb to level 3.
	ladder := climbingLadder
	ladder.UpAfter = 2
	s, ts := newTestServer(t, Config{Workers: 1, Degrade: ladder})

	code, primed := postOptimize(t, ts, optimizeRequest{Program: diamond})
	if code != http.StatusOK || primed.DegradeLevel != 0 {
		t.Fatalf("priming request: %d at level %d, want 200 at level 0", code, primed.DegradeLevel)
	}
	for i := 0; i < 5; i++ {
		getHealthz(t, ts)
	}

	code, out := postOptimize(t, ts, optimizeRequest{Program: diamond})
	if code != http.StatusOK {
		t.Fatalf("level-0 result at shed level: %d %+v, want a cache hit", code, out)
	}
	if out.DegradeLevel != 3 {
		t.Errorf("degrade_level = %d, want 3", out.DegradeLevel)
	}
	if out.Program != primed.Program {
		t.Errorf("cache replay differs from the level-0 result:\n%s\nvs\n%s", out.Program, primed.Program)
	}
	if got := s.cacheHits.Load(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
}

// TestCacheCorruptionDetected: a bit flipped in a cached program on its
// way out of memory is caught by the integrity checksum — the entry is
// evicted and recomputed, and a corrupted result is never served.
func TestCacheCorruptionDetected(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Degrade: steadyLadder,
		Chaos:   chaos.New(chaos.Config{Seed: 11, CorruptP: 1}),
	})
	var programs []string
	for i := 0; i < 3; i++ {
		code, out := postOptimize(t, ts, optimizeRequest{Program: diamond})
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d (%+v)", i, code, out)
		}
		programs = append(programs, out.Program)
	}
	for i, p := range programs[1:] {
		if p != programs[0] {
			t.Errorf("response %d differs from the first — corruption leaked out:\n%s\nvs\n%s",
				i+1, p, programs[0])
		}
	}
	// Every lookup after the first hit a corrupted entry: detected,
	// evicted, recomputed — never served.
	if got := s.cacheCorrupt.Load(); got != 2 {
		t.Errorf("cacheCorrupt = %d, want 2", got)
	}
	if got := s.cacheHits.Load(); got != 0 {
		t.Errorf("cache hits = %d, want 0 (all reads were corrupted)", got)
	}
	if got := s.cacheMisses.Load(); got != 3 {
		t.Errorf("cache misses = %d, want 3", got)
	}
	_, h := getHealthz(t, ts)
	if got := h["cache_corrupt"].(float64); got != 2 {
		t.Errorf("healthz cache_corrupt = %v, want 2", got)
	}
}

// TestDrainStopsMidFlightBatch is the drain-vs-wide-batch race: drain
// begins while a wide batch is mid-flight. The in-flight item finishes,
// every not-yet-dispatched item is refused explicitly (never silently
// dropped), the queue drains to exactly zero, and the outcome counters
// still balance item-for-item.
func TestDrainStopsMidFlightBatch(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers: 1, Queue: 32, Timeout: time.Minute,
		Degrade: steadyLadder,
		hook:    func(optimizeRequest) { <-release },
	})

	var wide strings.Builder
	const n = 12
	for i := 0; i < n; i++ {
		wide.WriteString(strings.Replace(diamond, "func f(", "func w"+strconv.Itoa(i)+"(", 1))
		wide.WriteString("\n")
	}

	type result struct {
		code int
		out  batchResponse
	}
	done := make(chan result, 1)
	go func() {
		code, out := postBatch(t, ts, optimizeRequest{Program: wide.String()})
		done <- result{code, out}
	}()

	// The single lane has dispatched item 0 into the single worker; items
	// 1..n-1 are waiting their turn when the drain begins.
	waitFor(t, func() bool { return s.inflight.Load() == 1 })
	s.BeginDrain()
	close(release)

	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("mid-flight batch: status %d (the batch was admitted; drain must not retract it)", r.code)
	}
	if len(r.out.Results) != n {
		t.Fatalf("batch returned %d results, want %d — items were silently dropped", len(r.out.Results), n)
	}
	if r.out.Results[0].Status != http.StatusOK {
		t.Errorf("the in-flight item did not complete: %+v", r.out.Results[0])
	}
	for i, res := range r.out.Results[1:] {
		if res.Status != http.StatusServiceUnavailable || res.Kind != "draining" {
			t.Errorf("undispatched item %d = %d/%q, want 503/draining", i+1, res.Status, res.Kind)
		}
		if res.RetryAfterMS <= 0 {
			t.Errorf("undispatched item %d has no retry hint", i+1)
		}
	}
	if r.out.Optimized != 1 || r.out.Failed != n-1 {
		t.Errorf("aggregates = %d optimized, %d failed, want 1/%d", r.out.Optimized, r.out.Failed, n-1)
	}

	// Accounting: the queue drained to zero with nothing in flight, the
	// refused items were re-accounted as shed, and the one processed item
	// is the only admitted request.
	waitFor(t, func() bool { return s.queued.Load() == 0 && s.inflight.Load() == 0 })
	if got := s.requests.Load(); got != 1 {
		t.Errorf("requests = %d, want 1 (refused items rolled back)", got)
	}
	if got := s.shed.Load(); got != n-1 {
		t.Errorf("shed = %d, want %d", got, n-1)
	}
	if got := s.optimized.Load(); got != 1 {
		t.Errorf("optimized = %d, want 1", got)
	}
}

// TestHealthzDegradeHygiene: the new operational fields are present and
// truthful on a fresh server, and the quarantine writability probe
// reports the states an operator needs to see.
func TestHealthzDegradeHygiene(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Quarantine: dir, Degrade: steadyLadder})
	_, h := getHealthz(t, ts)
	for field, want := range map[string]float64{
		"degrade_level":       0,
		"degrade_transitions": 0,
		"retry_after_ms":      0,
		"cache_corrupt":       0,
	} {
		got, ok := h[field]
		if !ok {
			t.Errorf("healthz missing %s", field)
			continue
		}
		if got.(float64) != want {
			t.Errorf("healthz %s = %v, want %v", field, got, want)
		}
	}
	if _, ok := h["latency_ewma_ms"]; !ok {
		t.Error("healthz missing latency_ewma_ms")
	}
	if w, ok := h["quarantine_writable"].(bool); !ok || !w {
		t.Errorf("quarantine_writable = %v, want true for %s", h["quarantine_writable"], dir)
	}

	// No quarantine directory configured: capture is off, and /healthz
	// says so instead of pretending seeds are being collected.
	_, ts2 := newTestServer(t, Config{Quarantine: "", Degrade: steadyLadder})
	_, h2 := getHealthz(t, ts2)
	if w, _ := h2["quarantine_writable"].(bool); w {
		t.Error("quarantine_writable = true with capture disabled")
	}

	// An unusable path (a path component that is a regular file) is
	// detected even when running as root, where permission bits lie.
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts3 := newTestServer(t, Config{
		Quarantine: filepath.Join(blocker, "sub"), Degrade: steadyLadder,
	})
	_, h3 := getHealthz(t, ts3)
	if w, _ := h3["quarantine_writable"].(bool); w {
		t.Error("quarantine_writable = true for a path under a regular file")
	}
}
