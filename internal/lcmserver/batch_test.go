package lcmserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lazycm/internal/textir"
	"lazycm/internal/triage"
)

func postBatch(t testing.TB, ts *httptest.Server, req optimizeRequest) (int, batchResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/optimize/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("bad batch response body: %v", err)
	}
	return resp.StatusCode, out
}

// batchModule is four functions: two healthy, one the strict parser
// rejects, one that trips the (test-injected) panic. Fault isolation
// means the healthy ones must come back optimized regardless.
const batchModule = diamond + `
func broken(a) {
e:
  zzz this is not a statement
}

func boom(a) {
e:
  print a
  ret
}

func ok2(m, n) {
top:
  s = m * n
  t = m * n
  print s
  ret t
}
`

// TestBatchFaultIsolation is the tentpole's acceptance scenario: a batch
// mixing valid, invalid and panic-inducing functions returns per-item
// results — healthy functions optimized, the panicking one contained and
// quarantined, the invalid one rejected — and the healthz counters
// balance exactly against the admitted items.
func TestBatchFaultIsolation(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{
		Quarantine: dir,
		hook: func(req optimizeRequest) {
			if strings.Contains(req.Program, "boom") {
				panic("injected worker fault")
			}
		},
	})
	code, out := postBatch(t, ts, optimizeRequest{Program: batchModule})
	if code != http.StatusOK {
		t.Fatalf("batch status %d, want 200 (%+v)", code, out)
	}
	if out.Functions != 4 || len(out.Results) != 4 {
		t.Fatalf("functions=%d results=%d, want 4/4", out.Functions, len(out.Results))
	}
	if out.Optimized != 2 || out.Failed != 2 || out.FellBack != 0 {
		t.Fatalf("aggregate optimized=%d failed=%d fell_back=%d, want 2/2/0", out.Optimized, out.Failed, out.FellBack)
	}

	byName := map[string]batchResult{}
	for _, r := range out.Results {
		byName[r.Name] = r
	}

	// Healthy functions are optimized: the redundant recomputation is gone.
	for _, name := range []string{"f", "ok2"} {
		r := byName[name]
		if r.Status != http.StatusOK || r.Error != "" || r.FellBack {
			t.Errorf("%s: %+v, want clean 200", name, r)
		}
		if len(r.Applied) == 0 {
			t.Errorf("%s: no passes applied", name)
		}
		fns, err := textir.Parse(r.Program)
		if err != nil || len(fns) != 1 {
			t.Errorf("%s: result program bad: %v", name, err)
		}
	}
	if r := byName["f"]; strings.Count(r.Program, "a + b") >= strings.Count(diamond, "a + b") {
		t.Errorf("f not optimized:\n%s", r.Program)
	}

	// The unparseable function failed alone, classified as a parse error.
	if r := byName["broken"]; r.Status != http.StatusBadRequest || r.Kind != "parse" {
		t.Errorf("broken: %+v, want 400/parse", r)
	}

	// The panicking function was contained, classified and quarantined.
	r := byName["boom"]
	if r.Status != http.StatusInternalServerError || r.Kind != "panic" {
		t.Fatalf("boom: %+v, want 500/panic", r)
	}
	if r.Quarantined == "" {
		t.Fatal("panicking batch item was not quarantined")
	}
	got, err := os.ReadFile(r.Quarantined)
	if err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if !strings.Contains(string(got), "func boom") || strings.Contains(string(got), "func f") {
		t.Errorf("quarantine captured the wrong item:\n%s", got)
	}
	if d := triage.ParseDirectives(string(got)); d.Mode != "lcm" {
		t.Errorf("quarantine directives = %+v", d)
	}

	// Counters: 4 admitted items, each in exactly one outcome bucket.
	if got := s.requests.Load(); got != 4 {
		t.Errorf("requests = %d, want 4", got)
	}
	waitFor(t, func() bool {
		return s.optimized.Load()+s.invalid.Load()+s.panics.Load()+s.fellBack.Load()+s.canceled.Load() == 4
	})
	if s.optimized.Load() != 2 || s.invalid.Load() != 1 || s.panics.Load() != 1 {
		t.Errorf("counters optimized=%d invalid=%d panics=%d, want 2/1/1",
			s.optimized.Load(), s.invalid.Load(), s.panics.Load())
	}
	if got := s.quarantined.Load(); got != 1 {
		t.Errorf("quarantined = %d, want 1", got)
	}
}

// TestBatchRejectsNonModule: a body with no module structure at all fails
// the batch as a whole, before admission.
func TestBatchRejectsNonModule(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, program := range []string{"", "not a module at all"} {
		body, _ := json.Marshal(optimizeRequest{Program: program})
		resp, err := ts.Client().Post(ts.URL+"/optimize/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("program %q: status %d, want 400", program, resp.StatusCode)
		}
	}
	if got := s.requests.Load(); got != 0 {
		t.Errorf("unadmittable batches counted as requests: %d", got)
	}
}

// TestBatchAdmissionIsAllOrNothing: a batch larger than the free queue is
// shed in full — it never wedges a prefix of its functions into the
// queue — and the shed counter accounts every item.
func TestBatchAdmissionIsAllOrNothing(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, ts := newTestServer(t, Config{
		Workers: 1, Queue: 2, Timeout: time.Minute,
		hook: func(optimizeRequest) { <-release },
	})
	// Occupy the worker so queue slots stay scarce.
	asyncOptimize(ts, diamond)
	waitFor(t, func() bool { return s.inflight.Load() == 1 })
	// One queue slot taken, one free: a 2-function batch must not fit.
	asyncOptimize(ts, diamond)
	waitFor(t, func() bool { return s.queued.Load() == 1 })

	code, _ := postBatch(t, ts, optimizeRequest{Program: diamond + "\nfunc g(q) {\ne:\n  print q\n  ret\n}\n"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("batch status %d, want 429", code)
	}
	if got := s.shed.Load(); got != 2 {
		t.Errorf("shed = %d, want 2 (every batch item)", got)
	}
	if got := s.queued.Load(); got != 1 {
		t.Errorf("queued = %d after shed batch, want 1 (no partial admission)", got)
	}
	// A single request still fits in the remaining slot.
	asyncOptimize(ts, diamond)
	waitFor(t, func() bool { return s.queued.Load() == 2 })
}

// asyncOptimize fires a single-optimize request from a background
// goroutine, ignoring the response; tests use it to occupy workers and
// queue slots.
func asyncOptimize(ts *httptest.Server, program string) {
	body, _ := json.Marshal(optimizeRequest{Program: program})
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/optimize", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
}

// TestBatchParallelDeterminism: parallel dispatch is invisible in the
// response. The same mixed module — healthy, unparseable and panicking
// functions — run through a parallel server and a strictly serial one
// yields the same results in the same (module) order, the same aggregate
// counts, and byte-identical quarantine captures.
func TestBatchParallelDeterminism(t *testing.T) {
	hook := func(req optimizeRequest) {
		if strings.Contains(req.Program, "boom") {
			panic("injected worker fault")
		}
	}
	dirPar, dirSer := t.TempDir(), t.TempDir()
	sPar, tsPar := newTestServer(t, Config{Workers: 4, Quarantine: dirPar, hook: hook})
	sSer, tsSer := newTestServer(t, Config{Workers: 1, Quarantine: dirSer, hook: hook})

	codePar, outPar := postBatch(t, tsPar, optimizeRequest{Program: batchModule})
	codeSer, outSer := postBatch(t, tsSer, optimizeRequest{Program: batchModule})
	if codePar != http.StatusOK || codeSer != http.StatusOK {
		t.Fatalf("statuses %d/%d, want 200/200", codePar, codeSer)
	}
	if len(outPar.Results) != len(outSer.Results) {
		t.Fatalf("result counts %d != %d", len(outPar.Results), len(outSer.Results))
	}
	for i := range outPar.Results {
		p, q := outPar.Results[i], outSer.Results[i]
		if p.Name != q.Name {
			t.Errorf("result %d: order diverged, %q vs %q", i, p.Name, q.Name)
		}
		if p.Status != q.Status || p.Program != q.Program || p.FellBack != q.FellBack || p.Kind != q.Kind {
			t.Errorf("result %d (%s): parallel %+v != serial %+v", i, p.Name, p, q)
		}
	}
	if outPar.Optimized != outSer.Optimized || outPar.FellBack != outSer.FellBack || outPar.Failed != outSer.Failed {
		t.Errorf("aggregates diverged: parallel %d/%d/%d, serial %d/%d/%d",
			outPar.Optimized, outPar.FellBack, outPar.Failed,
			outSer.Optimized, outSer.FellBack, outSer.Failed)
	}

	// Both servers captured the same defects: identical file names
	// (content-hashed) with identical bytes.
	waitFor(t, func() bool { return sPar.quarantined.Load() == 1 && sSer.quarantined.Load() == 1 })
	readDir := func(dir string) map[string]string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]string{}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			m[e.Name()] = string(b)
		}
		return m
	}
	capPar, capSer := readDir(dirPar), readDir(dirSer)
	if len(capPar) == 0 {
		t.Error("no quarantine captures")
	}
	if !maps.Equal(capPar, capSer) {
		t.Errorf("quarantine diverged:\nparallel %v\nserial %v", capPar, capSer)
	}
}

// TestBatchDeadlineRedistribution: time an early item does not use must
// flow to later items instead of expiring with it. One slow function at
// the end of a module of fast ones succeeds only if it inherits the
// budget its predecessors left behind — a fixed budget/n slice (the old
// scheme) would cancel it.
func TestBatchDeadlineRedistribution(t *testing.T) {
	const hold = 600 * time.Millisecond
	_, ts := newTestServer(t, Config{
		Workers: 1, Queue: 16, CacheSize: -1,
		hook: func(req optimizeRequest) {
			if strings.Contains(req.Program, "slowpoke") {
				time.Sleep(hold)
			}
		},
	})
	var b strings.Builder
	for i := 0; i < 9; i++ {
		fmt.Fprintf(&b, "func fast%d(a, b) {\ne:\n  x = a + b\n  y = a + b\n  print x\n  ret y\n}\n\n", i)
	}
	b.WriteString("func slowpoke(a, b) {\ne:\n  x = a + b\n  y = a + b\n  print x\n  ret y\n}\n")

	// Ten items in 3s: a fixed split gives every item 300ms, under the
	// 600ms the slow item needs. Redistribution hands it the ~2.9s the
	// nine fast items left unspent.
	code, out := postBatch(t, ts, optimizeRequest{Program: b.String(), TimeoutMS: 3000})
	if code != http.StatusOK {
		t.Fatalf("batch status %d, want 200", code)
	}
	if out.Optimized != out.Functions || out.Failed != 0 {
		t.Fatalf("optimized=%d failed=%d of %d, want all optimized (slow item starved?)",
			out.Optimized, out.Failed, out.Functions)
	}
	last := out.Results[len(out.Results)-1]
	if last.Name != "slowpoke" || last.Status != http.StatusOK || last.Canceled {
		t.Errorf("slow item did not inherit unused budget: %+v", last)
	}
}

// TestBatchDeadlineSlices: a starved batch budget is divided among the
// items; every item reports its own deadline instead of the batch
// hanging, and the program that does come back is never a partial
// rewrite.
func TestBatchDeadlineSlices(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	module := bigProgram(t) + "\n" + strings.Replace(bigProgram(t), "func ", "func second_", 1)
	code, out := postBatch(t, ts, optimizeRequest{Program: module, TimeoutMS: 1})
	if code != http.StatusOK {
		t.Fatalf("batch status %d, want 200 with per-item deadlines", code)
	}
	if out.Failed != out.Functions {
		t.Fatalf("failed=%d, want all %d items", out.Failed, out.Functions)
	}
	for _, r := range out.Results {
		if r.Status != http.StatusGatewayTimeout || !r.Canceled {
			t.Errorf("%s: %+v, want 504 deadline", r.Name, r.optimizeResponse)
		}
		if r.Program != "" {
			if _, err := textir.Parse(r.Program); err != nil {
				t.Errorf("%s: canceled item ships unparseable program: %v", r.Name, err)
			}
		}
	}
}
