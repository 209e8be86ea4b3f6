package lcmserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lazycm/internal/textir"
)

// TestOptimizeModuleMatchesFunctions pins what /optimize answers for a
// multi-function module against the single-function answers it is built
// from: the programs joined by "\n", applied passes and diagnostics
// concatenated in module order, fell_back when any function fell back,
// and quarantined naming the first fallback's capture. A module the
// strict parser rejects answers the parser's error for the whole
// program.
func TestOptimizeModuleMatchesFunctions(t *testing.T) {
	brokenMiddle := diamond + "\nfunc broken(a) {\ne:\n  zzz this is not a statement\n}\n\n" +
		strings.Replace(diamond, "func f(", "func g(", 1)
	cases := []struct {
		name    string
		program string
		fuel    int
	}{
		{"clean module", jobsModule, 0},
		{"starved module", jobsModule, 1},
		{"middle function fails the strict parse", brokenMiddle, 0},
		{"comment-only program", "# nothing to optimize\n", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Quarantine: t.TempDir(), Degrade: steadyLadder})
			code, got := postOptimize(t, ts, optimizeRequest{Program: tc.program, Fuel: tc.fuel})
			got.ElapsedMS = 0

			wantCode := http.StatusOK
			want := optimizeResponse{}
			fns, err := textir.Parse(tc.program)
			if err != nil {
				wantCode = http.StatusBadRequest
				want = optimizeResponse{Error: err.Error(), Kind: "parse"}
			} else {
				want.Functions = len(fns)
				parts := make([]string, 0, len(fns))
				for _, f := range fns {
					c, one := postOptimize(t, ts, optimizeRequest{Program: f.String(), Fuel: tc.fuel})
					if c != http.StatusOK {
						t.Fatalf("%s alone: status %d (%+v)", f.Name, c, one)
					}
					parts = append(parts, one.Program)
					want.Applied = append(want.Applied, one.Applied...)
					want.Diagnostics = append(want.Diagnostics, one.Diagnostics...)
					if one.FellBack {
						want.FellBack = true
						if want.Quarantined == "" {
							want.Quarantined = one.Quarantined
						}
					}
				}
				want.Program = strings.Join(parts, "\n")
			}
			if code != wantCode || !reflect.DeepEqual(got, want) {
				t.Errorf("module answer %d %+v\nwant %d %+v", code, got, wantCode, want)
			}
		})
	}
}

// TestOptimizeModuleFansOut: the functions of one /optimize run in
// parallel lanes, one per worker — a hook that only returns once a
// second worker has arrived proves both functions were in flight at
// once.
func TestOptimizeModuleFansOut(t *testing.T) {
	var arrived, waitedOut atomic.Int32
	both := make(chan struct{})
	_, ts := newTestServer(t, Config{
		Workers: 2, Timeout: time.Minute,
		hook: func(optimizeRequest) {
			if arrived.Add(1) == 2 {
				close(both)
			}
			select {
			case <-both:
			case <-time.After(3 * time.Second):
				waitedOut.Add(1)
			}
		},
	})
	module := diamond + "\n" + strings.Replace(diamond, "func f(", "func g(", 1)
	code, out := postOptimize(t, ts, optimizeRequest{Program: module})
	if code != http.StatusOK || out.Functions != 2 {
		t.Fatalf("module: status %d %+v", code, out)
	}
	if n := waitedOut.Load(); n != 0 {
		t.Errorf("%d function(s) ran alone: the module's functions were not in workers at once", n)
	}
}

// TestModuleRepeatComputedOnce: a module that holds one function twice
// (two spellings, one key) computes it once on every module endpoint,
// though two workers leave both occurrences free to run at once. The
// hook holds the function's first sighting until its second sighting
// enters the hook or 200 ms pass, so a repeat dispatched alongside its
// first occurrence would miss the cache as well.
func TestModuleRepeatComputedOnce(t *testing.T) {
	fns := aliasFuncs(2)
	module := fns[0] + "\n" + fns[1] + "\n" + respell(fns[0], "\n")
	for _, path := range []string{"/optimize", "/optimize/batch", "/optimize/stream"} {
		t.Run(strings.TrimPrefix(path, "/"), func(t *testing.T) {
			var sightings atomic.Int32
			second, left := make(chan struct{}), make(chan struct{})
			_, ts := newTestServer(t, Config{
				Workers: 2, Queue: 64, Timeout: time.Minute, Degrade: steadyLadder,
				hook: func(req optimizeRequest) {
					if !strings.HasPrefix(req.Program, "func fn0_") {
						return
					}
					switch sightings.Add(1) {
					case 1:
						defer close(left)
						select {
						case <-second:
						case <-time.After(200 * time.Millisecond):
						}
					case 2:
						// Leave the hook together with a first sighting
						// still held, so both look the key up at once.
						close(second)
						<-left
					}
				},
			})
			if code, body := sendNormalized(t, ts, path, optimizeRequest{Program: module}); code != http.StatusOK {
				t.Fatalf("status %d: %s", code, body)
			}
			_, h := getHealthz(t, ts)
			if h["fn_cache_misses"] != 2.0 || h["fn_cache_hits"] != 1.0 {
				t.Errorf("fn_cache_misses=%v fn_cache_hits=%v, want 2 and 1", h["fn_cache_misses"], h["fn_cache_hits"])
			}
		})
	}
}

// TestDrainStopsMidFlightModule is TestDrainStopsMidFlightBatch's race
// on the other two module endpoints: drain begins while one function is
// in the single worker and eleven wait their turn. The in-flight one
// completes, every undispatched one is refused with a retry hint and
// re-accounted as shed, and the queue drains to zero.
func TestDrainStopsMidFlightModule(t *testing.T) {
	const n = 12
	var wide strings.Builder
	for i := 0; i < n; i++ {
		wide.WriteString(strings.Replace(diamond, "func f(", "func w"+strconv.Itoa(i)+"(", 1))
		wide.WriteString("\n")
	}
	body, _ := json.Marshal(optimizeRequest{Program: wide.String()})

	for _, path := range []string{"/optimize/stream", "/optimize"} {
		t.Run(strings.TrimPrefix(path, "/"), func(t *testing.T) {
			release := make(chan struct{})
			s, ts := newTestServer(t, Config{
				Workers: 1, Queue: 32, Timeout: time.Minute,
				Degrade: steadyLadder,
				hook:    func(optimizeRequest) { <-release },
			})
			done := make(chan *http.Response, 1)
			go func() {
				resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					close(done)
					return
				}
				done <- resp
			}()
			waitFor(t, func() bool { return s.inflight.Load() == 1 })
			s.BeginDrain()
			close(release)

			resp, ok := <-done
			if !ok {
				return
			}
			if path == "/optimize" {
				var out optimizeResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusServiceUnavailable || out.Kind != "draining" {
					t.Errorf("module cut by drain: %d %+v, want 503/draining", resp.StatusCode, out)
				}
				if resp.Header.Get("Retry-After") == "" || out.RetryAfterMS <= 0 {
					t.Errorf("drained module without a retry hint: header %q body %d",
						resp.Header.Get("Retry-After"), out.RetryAfterMS)
				}
			} else {
				items := streamItems(t, resp)
				if len(items) != n {
					t.Fatalf("stream carried %d items, want %d", len(items), n)
				}
				for _, it := range items {
					switch {
					case it.Index == 0 && it.Status != http.StatusOK:
						t.Errorf("the in-flight item did not complete: %+v", it)
					case it.Index > 0 && (it.Status != http.StatusServiceUnavailable || it.Kind != "draining" || it.RetryAfterMS <= 0):
						t.Errorf("undispatched item %d = %d/%q retry %d, want 503/draining with a hint",
							it.Index, it.Status, it.Kind, it.RetryAfterMS)
					}
				}
			}

			waitFor(t, func() bool { return s.queued.Load() == 0 && s.inflight.Load() == 0 })
			if r, sh := s.requests.Load(), s.shed.Load(); r != 1 || sh != n-1 {
				t.Errorf("requests/shed = %d/%d, want 1/%d", r, sh, n-1)
			}
		})
	}
}

// streamItems reads an NDJSON stream to its end and returns its item
// records with their full per-item bodies.
func streamItems(t *testing.T, resp *http.Response) []streamItem {
	t.Helper()
	defer resp.Body.Close()
	var items []streamItem
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatal(err)
		}
		var rec struct{ Type string }
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type != "item" {
			continue // meta, heartbeat and trailer records
		}
		var it streamItem
		if err := json.Unmarshal(raw, &it); err != nil {
			t.Fatal(err)
		}
		items = append(items, it)
	}
	return items
}

// TestItemsReportElapsed: every per-function record carries its own
// dispatch-to-completion time — stream items and ?job= batch results
// alike, not just plain batch entries.
func TestItemsReportElapsed(t *testing.T) {
	const hold = 30 * time.Millisecond
	_, ts := newTestServer(t, Config{
		Workers: 1, CacheSize: -1,
		hook: func(optimizeRequest) { time.Sleep(hold) },
	})
	items := streamItems(t, postStream(t, ts, optimizeRequest{Program: jobsModule}, false))
	if len(items) != 3 {
		t.Fatalf("stream carried %d items, want 3", len(items))
	}
	for _, it := range items {
		if it.ElapsedMS < hold.Milliseconds() {
			t.Errorf("stream item %d elapsed_ms = %d, want >= %d", it.Index, it.ElapsedMS, hold.Milliseconds())
		}
	}

	body, _ := json.Marshal(optimizeRequest{Program: jobsModule})
	resp, err := ts.Client().Post(ts.URL+"/optimize/batch?job=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(out.Results) != 3 {
		t.Fatalf("batch job: %d %+v", resp.StatusCode, out)
	}
	for _, r := range out.Results {
		if r.ElapsedMS < hold.Milliseconds() {
			t.Errorf("job result %s elapsed_ms = %d, want >= %d", r.Name, r.ElapsedMS, hold.Milliseconds())
		}
	}
}

// TestOptimizeModuleLargerThanQueue: an /optimize is admitted with one
// queue slot and widens only into free ones, so a module with more
// functions than the whole queue still runs — on a queue smaller than
// the pool too — and every function is counted as one work item.
func TestOptimizeModuleLargerThanQueue(t *testing.T) {
	for _, cfg := range []Config{{Workers: 1, Queue: 1}, {Workers: 2, Queue: 1}, {Workers: 4, Queue: 2}} {
		t.Run(fmt.Sprintf("workers=%d,queue=%d", cfg.Workers, cfg.Queue), func(t *testing.T) {
			cfg.Degrade = steadyLadder
			s, ts := newTestServer(t, cfg)
			code, out := postOptimize(t, ts, optimizeRequest{Program: jobsModule})
			if code != http.StatusOK || out.Functions != 3 {
				t.Fatalf("3-function module: %d %+v", code, out)
			}
			waitFor(t, func() bool { return s.queued.Load() == 0 && s.inflight.Load() == 0 })
			if r, o, sh := s.requests.Load(), s.optimized.Load(), s.shed.Load(); r != 3 || o != 3 || sh != 0 {
				t.Errorf("requests/optimized/shed = %d/%d/%d, want 3/3/0", r, o, sh)
			}
		})
	}
}

// TestOptimizeModuleShedsOnFullQueue: an admitted /optimize whose next
// function finds the queue full is refused like a shed request instead
// of waiting out its deadline — that function and the module's later
// ones count as shed, and the module answers a retryable 429 with
// Retry-After.
func TestOptimizeModuleShedsOnFullQueue(t *testing.T) {
	var s *Server
	var filled atomic.Bool
	s, ts := newTestServer(t, Config{
		Workers: 1, Queue: 1, Timeout: 10 * time.Second, Degrade: steadyLadder,
		hook: func(optimizeRequest) {
			// While the module's first function is in the worker, other
			// admitted work takes the whole queue.
			if !filled.Swap(true) {
				s.queued.Add(int64(s.cfg.Queue))
			}
		},
	})
	resp, out := rawOptimize(t, ts, optimizeRequest{Program: jobsModule})
	if resp.StatusCode != http.StatusTooManyRequests || out.Kind != "overload" {
		t.Fatalf("module behind a full queue: %d %+v, want 429/overload", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" || out.RetryAfterMS <= 0 {
		t.Errorf("shed module without a retry hint: header %q body %d", resp.Header.Get("Retry-After"), out.RetryAfterMS)
	}
	s.queued.Add(-int64(s.cfg.Queue)) // the other work leaves
	waitFor(t, func() bool { return s.queued.Load() == 0 && s.inflight.Load() == 0 })
	if r, o, sh := s.requests.Load(), s.optimized.Load(), s.shed.Load(); r != 1 || o != 1 || sh != 2 {
		t.Errorf("requests/optimized/shed = %d/%d/%d, want 1/1/2", r, o, sh)
	}
}

// TestOptimizeModuleGaugesOneSample: an /optimize feeds the pressure
// gauge one latency sample for its whole module, as the single request
// it is — one sample per function would shrink the module's pressure
// against the per-request budget the gauge normalizes by.
func TestOptimizeModuleGaugesOneSample(t *testing.T) {
	const hold = 40 * time.Millisecond
	s, ts := newTestServer(t, Config{
		Workers: 1, CacheSize: -1, Degrade: steadyLadder,
		hook: func(optimizeRequest) { time.Sleep(hold) },
	})
	if code, out := postOptimize(t, ts, optimizeRequest{Program: jobsModule}); code != http.StatusOK {
		t.Fatalf("module: %d %+v", code, out)
	}
	waitFor(t, func() bool { return s.jobsActive.Load() == 0 })
	if got := s.gauge.EWMA(); got < 3*hold {
		t.Errorf("gauge latency %v after one 3-function module, want at least the module's %v", got, 3*hold)
	}
}

// TestOptimizeModulePanicQuarantinesFunction: a panic that escapes the
// pipeline in one function of an /optimize module answers that
// function's 500 and captures that function alone, not the module.
func TestOptimizeModulePanicQuarantinesFunction(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Quarantine: t.TempDir(),
		hook: func(req optimizeRequest) {
			if strings.Contains(req.Program, "func boom(") {
				panic("injected worker fault")
			}
		},
	})
	module := diamond + "\nfunc boom(a) {\ne:\n  print a\n  ret\n}\n"
	code, out := postOptimize(t, ts, optimizeRequest{Program: module})
	if code != http.StatusInternalServerError || out.Kind != "panic" || out.Quarantined == "" {
		t.Fatalf("module with a panicking function: %d %+v, want 500/panic, quarantined", code, out)
	}
	got, err := os.ReadFile(out.Quarantined)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), "func boom(") || strings.Contains(string(got), "func f(") {
		t.Errorf("capture is not the panicking function alone:\n%s", got)
	}
}

// TestJobsActiveCountsEveryRun: jobs_active counts every module run in
// flight, whichever endpoint carried it.
func TestJobsActiveCountsEveryRun(t *testing.T) {
	for _, path := range []string{"/optimize", "/optimize/batch", "/optimize/stream"} {
		t.Run(strings.TrimPrefix(path, "/"), func(t *testing.T) {
			release := make(chan struct{})
			s, ts := newTestServer(t, Config{Timeout: time.Minute, hook: func(optimizeRequest) { <-release }})
			body, _ := json.Marshal(optimizeRequest{Program: diamond})
			done := make(chan struct{})
			go func() {
				defer close(done)
				if resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body)); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
			waitFor(t, func() bool { return s.inflight.Load() == 1 })
			if got := s.jobsActive.Load(); got != 1 {
				t.Errorf("jobs_active = %d with one %s in flight, want 1", got, path)
			}
			close(release)
			<-done
			waitFor(t, func() bool { return s.jobsActive.Load() == 0 })
		})
	}
}
