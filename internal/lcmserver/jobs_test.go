package lcmserver

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"lazycm/internal/vfs"
	"strings"
	"sync"
	"testing"
	"time"

	"lazycm/internal/textir"
)

// jobsModule is three strict-parser-clean functions, each with hoistable
// redundancy — the all-healthy streaming workload.
const jobsModule = diamond + `
func second(m, n) {
top:
  s = m * n
  t = m * n
  print s
  ret t
}

func third(q, r) {
top:
  u = q + r
  v = q + r
  ret v
}
`

// streamRecord is the union of every NDJSON record type a stream emits,
// decoded loosely for assertions. (Item and trailer records both carry a
// fell_back field of different types, so neither is declared here.)
type streamRecord struct {
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
	Error     string `json:"error"`
}

// readStream consumes one NDJSON response to its end and returns every
// record in arrival order.
func readStream(t *testing.T, body *http.Response) []streamRecord {
	t.Helper()
	defer body.Body.Close()
	var recs []streamRecord
	sc := bufio.NewScanner(body.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec streamRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("malformed stream record %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return recs
}

func postStream(t *testing.T, ts *httptest.Server, req optimizeRequest, job bool) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/optimize/stream"
	if job {
		url += "?job=1"
	}
	resp, err := ts.Client().Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// splitRecords separates a stream's records by type and sanity-checks
// the framing: exactly one meta first, exactly one trailer last.
func splitRecords(t *testing.T, recs []streamRecord) (meta streamRecord, items []streamRecord, trailer streamRecord) {
	t.Helper()
	if len(recs) < 2 || recs[0].Type != "job" || recs[len(recs)-1].Type != "trailer" {
		t.Fatalf("bad stream framing: %+v", recs)
	}
	for _, r := range recs[1 : len(recs)-1] {
		if r.Type == "item" {
			items = append(items, r)
		} else if r.Type != "heartbeat" {
			t.Fatalf("unexpected mid-stream record type %q", r.Type)
		}
	}
	return recs[0], items, recs[len(recs)-1]
}

// assembleItems joins item programs in module order — the client-side
// reconstruction whose bytes must match a single /optimize of the module.
func assembleItems(t *testing.T, items []streamRecord, n int) string {
	t.Helper()
	parts := make([]string, n)
	seen := 0
	for _, it := range items {
		if it.Index < 0 || it.Index >= n || parts[it.Index] != "" {
			t.Fatalf("bad or duplicate item index %d", it.Index)
		}
		parts[it.Index] = it.Program
		seen++
	}
	if seen != n {
		t.Fatalf("assembled %d of %d items", seen, n)
	}
	return strings.Join(parts, "\n")
}

// TestStreamTransient: a plain /optimize/stream emits one record per
// function plus a done trailer, and the assembled module is byte-
// identical to the buffered /optimize answer for the same input.
func TestStreamTransient(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code, whole := postOptimize(t, ts, optimizeRequest{Program: jobsModule})
	if code != http.StatusOK {
		t.Fatalf("reference optimize: %d %+v", code, whole)
	}

	resp := postStream(t, ts, optimizeRequest{Program: jobsModule}, false)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	meta, items, trailer := splitRecords(t, readStream(t, resp))
	if meta.ID != "" {
		t.Errorf("transient stream advertised a job ID %q", meta.ID)
	}
	if meta.Functions != 3 || len(items) != 3 {
		t.Fatalf("functions=%d items=%d, want 3/3", meta.Functions, len(items))
	}
	if !trailer.Done || trailer.Completed != 3 || trailer.Optimized != 3 {
		t.Errorf("trailer %+v, want done with 3/3 optimized", trailer)
	}
	if got := assembleItems(t, items, 3); got != whole.Program {
		t.Errorf("assembled stream diverges from /optimize:\n got: %q\nwant: %q", got, whole.Program)
	}
	// Per-function cache: the stream's items were computed by /optimize
	// already, so every one replayed.
	if s.cacheHits.Load() != 3 {
		t.Errorf("cache hits = %d, want 3 (stream replays /optimize's per-function entries)", s.cacheHits.Load())
	}
}

// TestStreamJobIdempotent: ?job= registers a durable, content-addressed
// job. Resubmitting the same module attaches to the finished job and
// replays it — no second admission, no recompute — and the journal on
// disk carries the done marker.
func TestStreamJobIdempotent(t *testing.T) {
	jdir := t.TempDir()
	s, ts := newTestServer(t, Config{JournalDir: jdir, CacheDir: t.TempDir()})

	resp := postStream(t, ts, optimizeRequest{Program: jobsModule}, true)
	meta, items, trailer := splitRecords(t, readStream(t, resp))
	if meta.ID == "" || !strings.HasPrefix(meta.ID, "j-") {
		t.Fatalf("job stream meta ID = %q", meta.ID)
	}
	if len(items) != 3 || !trailer.Done {
		t.Fatalf("first run: %d items, done=%v", len(items), trailer.Done)
	}
	reqs, opt := s.requests.Load(), s.optimized.Load()

	hdr, recs, finished, err := readJournal(vfs.OS, filepath.Join(jdir, meta.ID+journalExt))
	if err != nil || !finished || len(recs) != 3 || hdr.ID != meta.ID {
		t.Fatalf("journal: hdr.ID=%q records=%d finished=%v err=%v", hdr.ID, len(recs), finished, err)
	}
	for _, rec := range recs {
		if rec.Key == "" || rec.Body != nil {
			t.Errorf("clean item journaled inline (key=%q body=%v), want key-only", rec.Key, rec.Body)
		}
	}

	// Idempotent resubmission: same records, same trailer, zero new work.
	resp = postStream(t, ts, optimizeRequest{Program: jobsModule}, true)
	meta2, items2, trailer2 := splitRecords(t, readStream(t, resp))
	if meta2.ID != meta.ID {
		t.Errorf("resubmission got job %q, want %q", meta2.ID, meta.ID)
	}
	if len(items2) != 3 || !trailer2.Done {
		t.Errorf("resubmission replay: %d items, done=%v", len(items2), trailer2.Done)
	}
	if s.requests.Load() != reqs || s.optimized.Load() != opt {
		t.Errorf("resubmission admitted new work: requests %d→%d optimized %d→%d",
			reqs, s.requests.Load(), opt, s.optimized.Load())
	}

	// GET /jobs/{id} serves the snapshot.
	st, snap := getJob(t, ts, meta.ID)
	if st != http.StatusOK || !snap.Done || snap.Completed != 3 {
		t.Errorf("job snapshot: status %d %+v", st, snap)
	}
	// Unknown job: authoritative 404.
	if st, _ := getJob(t, ts, "j-0000000000000000"); st != http.StatusNotFound {
		t.Errorf("unknown job answered %d, want 404", st)
	}
}

func getJob(t *testing.T, ts *httptest.Server, id string) (int, jobSnapshot) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap jobSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("bad job snapshot: %v", err)
	}
	return resp.StatusCode, snap
}

// TestBatchJobRoundTrip: POST /optimize/batch?job= answers the batch
// shape plus job_id, waits for completion, and resubmission replays
// without admitting again.
func TestBatchJobRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, Config{JournalDir: t.TempDir(), CacheDir: t.TempDir()})
	postJobBatch := func() (int, batchResponse) {
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
		return resp.StatusCode, out
	}
	code, out := postJobBatch()
	if code != http.StatusOK || out.JobID == "" || out.Optimized != 3 || out.Pending != 0 {
		t.Fatalf("batch job: %d %+v", code, out)
	}
	reqs := s.requests.Load()
	code2, out2 := postJobBatch()
	if code2 != http.StatusOK || out2.JobID != out.JobID || out2.Optimized != 3 {
		t.Fatalf("batch job replay: %d %+v", code2, out2)
	}
	if s.requests.Load() != reqs {
		t.Errorf("batch job resubmission admitted new work: %d → %d", reqs, s.requests.Load())
	}
	for i, r := range out.Results {
		if r.Program != out2.Results[i].Program {
			t.Errorf("replayed item %d diverges", i)
		}
	}
}

// TestJobRebootAttachResolvesResults: a finished journaled job boots
// with key-only records, and a POST attach (stream or batch ?job=) must
// resolve them from the durable cache before answering — not reply with
// a done trailer carrying zero items, which is what a client that lost
// its response and resubmitted after a server restart would otherwise
// get. The GET paths already resolve; this pins the POST paths.
func TestJobRebootAttachResolvesResults(t *testing.T) {
	jdir, cdir := t.TempDir(), t.TempDir()
	cfg := Config{Workers: 2, Queue: 16, JournalDir: jdir, CacheDir: cdir, Quarantine: ""}
	a := NewServer(cfg)
	ats := httptest.NewServer(a.Handler())
	resp := postStream(t, ats, optimizeRequest{Program: jobsModule}, true)
	meta, items, _ := splitRecords(t, readStream(t, resp))
	want := assembleItems(t, items, 3)
	ats.Close()
	a.Close()

	b := NewServer(cfg)
	bts := httptest.NewServer(b.Handler())
	defer func() {
		bts.Close()
		b.Close()
	}()

	// Stream attach: every completed item replays, trailer counts them.
	resp = postStream(t, bts, optimizeRequest{Program: jobsModule}, true)
	meta2, items2, trailer2 := splitRecords(t, readStream(t, resp))
	if meta2.ID != meta.ID {
		t.Fatalf("reboot attach got job %q, want %q", meta2.ID, meta.ID)
	}
	if len(items2) != 3 || !trailer2.Done || trailer2.Completed != 3 {
		t.Fatalf("reboot stream attach: %d items, done=%v completed=%d, want 3/true/3",
			len(items2), trailer2.Done, trailer2.Completed)
	}
	if got := assembleItems(t, items2, 3); got != want {
		t.Errorf("reboot replay diverges:\n got: %q\nwant: %q", got, want)
	}

	// Batch attach: full results, nothing pending, nothing recomputed.
	body, _ := json.Marshal(optimizeRequest{Program: jobsModule})
	bresp, err := bts.Client().Post(bts.URL+"/optimize/batch?job=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	var out batchResponse
	if err := json.NewDecoder(bresp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if bresp.StatusCode != http.StatusOK || out.Pending != 0 || out.Optimized != 3 || len(out.Results) != 3 {
		t.Fatalf("reboot batch attach: %d %+v", bresp.StatusCode, out)
	}
	if b.requests.Load() != 0 {
		t.Errorf("reboot attach admitted %d requests, want 0 (everything from the journal + cache)", b.requests.Load())
	}
}

// rebootLosingEntry finishes jobsModule as a journaled stream job, takes
// the server down, deletes one of the three durable cache entries, and
// boots a second server over the same directories. It returns the
// second server with the first run's assembled module.
func rebootLosingEntry(t *testing.T, cfg Config) (*Server, *httptest.Server, string, string) {
	t.Helper()
	a := NewServer(cfg)
	ats := httptest.NewServer(a.Handler())
	meta, items, trailer := splitRecords(t, readStream(t, postStream(t, ats, optimizeRequest{Program: jobsModule}, true)))
	ats.Close()
	a.Close()
	if !trailer.Done || len(items) != 3 {
		t.Fatalf("first run: done=%v with %d items, want a finished 3-item job", trailer.Done, len(items))
	}
	entries := entryFiles(t, cfg.CacheDir)
	if len(entries) != 3 {
		t.Fatalf("first run left %d cache entries, want 3", len(entries))
	}
	if err := os.Remove(entries[1]); err != nil {
		t.Fatal(err)
	}
	b, bts := newTestServer(t, cfg)
	return b, bts, meta.ID, assembleItems(t, items, 3)
}

// TestJobRebootRecomputesLostEntry: a finished job whose journal names a
// cache entry the cache no longer holds reopens that item when the job
// is read back, so re-submitting recomputes exactly the lost function
// and the answer is whole; a second re-submission attaches with no work.
// Concurrent first lookups register one copy and count its hits once.
func TestJobRebootRecomputesLostEntry(t *testing.T) {
	cfg := Config{Workers: 2, Queue: 16, JournalDir: t.TempDir(), CacheDir: t.TempDir(), Quarantine: ""}
	b, bts, id, want := rebootLosingEntry(t, cfg)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := bts.Client().Get(bts.URL + "/jobs/" + id)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var snap jobSnapshot
			if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil || resp.StatusCode != http.StatusOK ||
				snap.Done || snap.Completed != 2 {
				t.Errorf("GET /jobs: status %d done=%v completed=%d err=%v, want 200/false/2",
					resp.StatusCode, snap.Done, snap.Completed, err)
			}
		}()
	}
	wg.Wait()
	if st := b.Stats(); st.CacheHits != 2 || st.Requests != 0 {
		t.Fatalf("after concurrent lookups: hits/requests = %d/%d, want 2/0", st.CacheHits, st.Requests)
	}

	for attempt := 1; attempt <= 2; attempt++ {
		meta, items, trailer := splitRecords(t, readStream(t, postStream(t, bts, optimizeRequest{Program: jobsModule}, true)))
		if meta.ID != id {
			t.Fatalf("attempt %d attached to job %q, want %q", attempt, meta.ID, id)
		}
		if !trailer.Done || trailer.Completed != 3 || len(items) != 3 {
			t.Fatalf("attempt %d: done=%v completed=%d with %d items, want true/3/3",
				attempt, trailer.Done, trailer.Completed, len(items))
		}
		if got := assembleItems(t, items, 3); got != want {
			t.Errorf("attempt %d diverges:\n got: %q\nwant: %q", attempt, got, want)
		}
		st := b.Stats()
		if st.Requests != 1 || st.CacheMisses != 1 || st.CacheHits != 2 {
			t.Errorf("attempt %d: requests/misses/hits = %d/%d/%d, want 1/1/2 (only the lost function recomputes, once)",
				attempt, st.Requests, st.CacheMisses, st.CacheHits)
		}
	}
}

// TestJobLookupWithDiskQuarantined: a journal read back while the disk
// tier is quarantined cannot resolve any key-only record, so every item
// reopens and recomputes instead of the job answering done with holes.
func TestJobLookupWithDiskQuarantined(t *testing.T) {
	cfg := Config{
		Workers: 2, Queue: 16, JournalDir: t.TempDir(), CacheDir: t.TempDir(), Quarantine: "",
		DiskHealth: DiskHealthConfig{ProbeInterval: time.Hour},
	}
	b, bts, id, want := rebootLosingEntry(t, cfg)
	b.diskHealth.disabled.Store(true)

	code, snap := getJob(t, bts, id)
	if code != http.StatusOK || snap.Done || snap.Completed != 0 {
		t.Fatalf("GET /jobs while quarantined: status %d done=%v completed=%d, want 200/false/0", code, snap.Done, snap.Completed)
	}
	_, items, trailer := splitRecords(t, readStream(t, postStream(t, bts, optimizeRequest{Program: jobsModule}, true)))
	if !trailer.Done || trailer.Completed != 3 {
		t.Fatalf("attach while quarantined: done=%v completed=%d, want true/3", trailer.Done, trailer.Completed)
	}
	if got := assembleItems(t, items, 3); got != want {
		t.Errorf("attach while quarantined diverges:\n got: %q\nwant: %q", got, want)
	}
	if st := b.Stats(); st.Requests != 3 || st.CacheHits != 0 {
		t.Errorf("requests/hits = %d/%d, want 3/0 (nothing resolvable behind a quarantined tier)", st.Requests, st.CacheHits)
	}
}

// lookupFS records every path the server reads or opens.
type lookupFS struct {
	vfs.FS
	mu    sync.Mutex
	names []string
}

func (l *lookupFS) note(name string) {
	l.mu.Lock()
	l.names = append(l.names, name)
	l.mu.Unlock()
}

func (l *lookupFS) seen() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.names...)
}

func (l *lookupFS) ReadFile(name string) ([]byte, error) {
	l.note(name)
	return l.FS.ReadFile(name)
}

func (l *lookupFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	l.note(name)
	return l.FS.OpenFile(name, flag, perm)
}

// TestJobLookupRejectsMalformedID: a job ID that does not have
// deriveJobID's shape answers 404 without touching the filesystem, so a
// client-chosen ID can never name a file outside the journal directory.
func TestJobLookupRejectsMalformedID(t *testing.T) {
	jdir := t.TempDir()
	fsys := &lookupFS{FS: vfs.OS}
	s, ts := newTestServer(t, Config{JournalDir: jdir, FS: fsys, Quarantine: ""})
	boot := len(fsys.seen())

	for _, id := range []string{
		"nope", "j-", "j-0123456789abcde", "j-0123456789abcdef0", "j-0123456789ABCDEF",
		"j-0123456789abcdeg", "k-0123456789abcdef", "..", "..%2F..%2Fj-0123456789abcdef",
	} {
		for _, suffix := range []string{"", "/stream"} {
			resp, err := ts.Client().Get(ts.URL + "/jobs/" + id + suffix)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("GET /jobs/%s%s = %d, want 404", id, suffix, resp.StatusCode)
			}
		}
	}
	for _, id := range []string{"../j-0123456789abcdef", "j-0123456789abcdef/../x", "/etc/passwd"} {
		if js := s.job(id); js != nil {
			t.Errorf("job(%q) found a job", id)
		}
	}
	if got := fsys.seen()[boot:]; len(got) != 0 {
		t.Errorf("malformed lookups touched the filesystem: %q", got)
	}

	// A well-formed unknown ID is looked for in the journal directory,
	// and only there.
	if code, _ := getJob(t, ts, "j-0123456789abcdef"); code != http.StatusNotFound {
		t.Errorf("unknown well-formed ID answered %d, want 404", code)
	}
	want := filepath.Join(jdir, "j-0123456789abcdef"+journalExt)
	if got := fsys.seen()[boot:]; len(got) != 1 || got[0] != want {
		t.Errorf("well-formed lookup read %q, want [%s]", got, want)
	}
}

// TestJobBootResumeNoRecompute is the crash-resume kernel: a journaled
// job is cut short (two of three functions complete), the process goes
// away, and a new server booted over the same journal and cache
// directories finishes the job — serving the completed functions from
// the durable cache (cache hits, zero recompute) and computing only the
// pending one. Admission sums across the two generations and the final
// module is byte-identical to an uninterrupted run.
func TestJobBootResumeNoRecompute(t *testing.T) {
	jdir, cdir := t.TempDir(), t.TempDir()
	release := make(chan struct{})
	cfg := func(hooked bool) Config {
		c := Config{Workers: 2, Queue: 16, JournalDir: jdir, CacheDir: cdir, Quarantine: ""}
		if hooked {
			c.hook = func(req optimizeRequest) {
				if strings.Contains(req.Program, "func third(") {
					<-release
				}
			}
		}
		return c
	}

	// Reference: the whole module on a pristine node.
	_, refTS := newTestServer(t, Config{Quarantine: ""})
	code, want := postOptimize(t, refTS, optimizeRequest{Program: jobsModule})
	if code != http.StatusOK {
		t.Fatalf("reference: %d", code)
	}

	// Generation 1: admit the job, let two items finish, then go down
	// mid-batch. The third function's worker is pinned in the test hook,
	// so it provably cannot complete in this generation.
	a := NewServer(cfg(true))
	ats := httptest.NewServer(a.Handler())
	resp := postStream(t, ats, optimizeRequest{Program: jobsModule}, true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	var jobID string
	emitted := 0
	for emitted < 2 && sc.Scan() {
		var rec streamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		switch rec.Type {
		case "job":
			jobID = rec.ID
		case "item":
			emitted++
		}
	}
	if jobID == "" || emitted != 2 {
		t.Fatalf("saw job=%q emitted=%d before crash", jobID, emitted)
	}
	resp.Body.Close()

	// Crash: Close cancels the job context first; the pinned worker is
	// released into a dead context, so its item is abandoned (504), left
	// out of the journal, and stays pending.
	closed := make(chan struct{})
	go func() { a.Close(); close(closed) }()
	waitFor(t, func() bool { return a.jobsCtx.Err() != nil })
	close(release)
	<-closed
	ats.Close()

	ast := a.Stats()
	if ast.Requests != 3 {
		t.Errorf("gen1 admitted %d, want 3", ast.Requests)
	}
	if sum := ast.Optimized + ast.FellBack + ast.Canceled + ast.Invalid + ast.Panics; sum != ast.Requests {
		t.Errorf("gen1 outcome sum %d != requests %d", sum, ast.Requests)
	}
	hdr, recs, finished, err := readJournal(vfs.OS, filepath.Join(jdir, jobID+journalExt))
	if err != nil || finished {
		t.Fatalf("gen1 journal: finished=%v err=%v", finished, err)
	}
	if len(recs) != 2 {
		t.Fatalf("gen1 journaled %d items, want exactly the 2 completed ones", len(recs))
	}
	if len(hdr.Funcs) != 3 {
		t.Fatalf("journal header names %d functions, want 3", len(hdr.Funcs))
	}

	// Generation 2: boot over the same directories. The job re-admits
	// itself, adopts the two journaled completions from the durable cache
	// and computes only the third function.
	b := NewServer(cfg(false))
	bts := httptest.NewServer(b.Handler())
	defer func() {
		bts.Close()
		b.Close()
	}()
	js := b.jobStore.get(jobID)
	if js == nil {
		t.Fatal("gen2 did not re-admit the journaled job")
	}
	select {
	case <-js.doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("resumed job did not finish")
	}

	st := b.Stats()
	if st.JobsResumed != 1 {
		t.Errorf("gen2 jobs_resumed = %d, want 1", st.JobsResumed)
	}
	if st.CacheHits != 2 {
		t.Errorf("gen2 cache hits = %d, want 2 (both completed functions adopted, not recomputed)", st.CacheHits)
	}
	if st.CacheMisses != 1 || st.Optimized != 1 {
		t.Errorf("gen2 misses/optimized = %d/%d, want 1/1 (only the pending function computes)", st.CacheMisses, st.Optimized)
	}
	// Admission sums across generations: gen1 admitted all three (one
	// ended canceled and stayed pending), gen2 re-admitted exactly the
	// pending one. No item was admitted-and-completed twice.
	if st.Requests != 1 {
		t.Errorf("gen2 admitted %d, want 1", st.Requests)
	}
	if total := ast.Optimized + st.Optimized; total != 3 {
		t.Errorf("functions computed across generations = %d, want 3 (each exactly once)", total)
	}

	// The resumed stream replays everything and the assembled module is
	// byte-identical to the uninterrupted reference.
	sresp, err := bts.Client().Get(bts.URL + "/jobs/" + jobID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("resume stream status %d", sresp.StatusCode)
	}
	_, items, trailer := splitRecords(t, readStream(t, sresp))
	if !trailer.Done {
		t.Errorf("resume trailer not done: %+v", trailer)
	}
	if got := assembleItems(t, items, 3); got != want.Program {
		t.Errorf("resumed module diverges from uninterrupted run:\n got: %q\nwant: %q", got, want.Program)
	}
}

// TestJobBootExpiryAndSweep: boot removes journals past their TTL and
// undecodable ones, counts them, and sweeps atomicio's *.tmp partials.
func TestJobBootExpiryAndSweep(t *testing.T) {
	jdir := t.TempDir()
	old := jobHeader{
		Type: "header", ID: "j-aaaaaaaaaaaaaaaa", Created: time.Now().Add(-2 * time.Hour),
		Funcs: []jobUnit{{Name: "f", Src: diamond}},
	}
	b, _ := json.Marshal(old)
	if err := os.WriteFile(filepath.Join(jdir, old.ID+journalExt), append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jdir, "j-bbbbbbbbbbbbbbbb"+journalExt), []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(jdir, "j-cccccccccccccccc"+journalExt+".tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{JournalDir: jdir})
	if got := s.jobsExpired.Load(); got != 2 {
		t.Errorf("jobs_expired = %d, want 2 (one stale, one undecodable)", got)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("tmp partial survived boot: %v", err)
	}
	ents, err := os.ReadDir(jdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("journal dir not cleaned at boot: %d entries remain", len(ents))
	}
	if st, _ := getJob(t, ts, old.ID); st != http.StatusNotFound {
		t.Errorf("expired job answered %d, want 404", st)
	}
}

// TestStreamClientDisconnect: a consumer that vanishes mid-stream must
// not hurt the job — the server notices (stream_clients returns to
// zero), the persisted job runs to completion, the journal stays
// consistent, nothing is refunded or counted twice, and a reconnect
// replays the full result set.
func TestStreamClientDisconnect(t *testing.T) {
	jdir := t.TempDir()
	s, ts := newTestServer(t, Config{
		Workers: 1, JournalDir: jdir, CacheDir: t.TempDir(),
		hook: func(optimizeRequest) { time.Sleep(20 * time.Millisecond) },
	})

	body, _ := json.Marshal(optimizeRequest{Program: jobsModule})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/optimize/stream?job=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	var jobID string
	for sc.Scan() {
		var rec streamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type == "job" {
			jobID = rec.ID
		}
		if rec.Type == "item" {
			break // one item seen: hang up mid-stream
		}
	}
	cancel()
	resp.Body.Close()

	js := s.jobStore.get(jobID)
	if js == nil {
		t.Fatal("job not registered")
	}
	select {
	case <-js.doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("job did not finish after its consumer left")
	}
	waitFor(t, func() bool { return s.streamClients.Load() == 0 })

	// Accounting is exact: the disconnect refunded nothing and double-
	// counted nothing.
	if r, o := s.requests.Load(), s.optimized.Load(); r != 3 || o != 3 {
		t.Errorf("requests/optimized = %d/%d, want 3/3", r, o)
	}
	_, recs, finished, err := readJournal(vfs.OS, filepath.Join(jdir, jobID+journalExt))
	if err != nil || !finished || len(recs) != 3 {
		t.Fatalf("journal after disconnect: records=%d finished=%v err=%v", len(recs), finished, err)
	}

	// Reconnect: the full result set replays.
	sresp, err := ts.Client().Get(ts.URL + "/jobs/" + jobID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	_, items, trailer := splitRecords(t, readStream(t, sresp))
	if len(items) != 3 || !trailer.Done {
		t.Errorf("reconnect replayed %d items, done=%v; want 3/true", len(items), trailer.Done)
	}
}

// TestStreamDegradeContract: the new endpoints obey the same ladder and
// rejection contract as batches — level 2+ sheds stream submissions with
// 429 + Retry-After, and a draining server answers 503 + Retry-After.
func TestStreamDegradeContract(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Degrade: climbingLadder, JournalDir: t.TempDir()})
	getHealthz(t, ts) // observe #1 → level 1

	// The POST below observes (#2 → level 2) and must shed.
	resp := postStream(t, ts, optimizeRequest{Program: jobsModule}, true)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("stream at level 2: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("stream shed without a Retry-After header")
	}
	var out optimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != "overload" || out.RetryAfterMS <= 0 || out.DegradeLevel < 2 {
		t.Errorf("stream shed body %+v, want overload kind with retry_after_ms and level ≥ 2", out)
	}
	if s.shed.Load() != 3 {
		t.Errorf("shed = %d, want 3 (item-exact, one per function)", s.shed.Load())
	}

	// Batch jobs shed identically (this observes #3 → level 3).
	body, _ := json.Marshal(optimizeRequest{Program: jobsModule})
	bresp, err := ts.Client().Post(ts.URL+"/optimize/batch?job=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	if bresp.StatusCode != http.StatusTooManyRequests || bresp.Header.Get("Retry-After") == "" {
		t.Errorf("batch job at level 3: status %d Retry-After %q", bresp.StatusCode, bresp.Header.Get("Retry-After"))
	}

	// Draining beats everything: 503 with the same hint contract.
	s.BeginDrain()
	dresp := postStream(t, ts, optimizeRequest{Program: jobsModule}, false)
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusServiceUnavailable || dresp.Header.Get("Retry-After") == "" {
		t.Errorf("stream while draining: status %d Retry-After %q, want 503 with hint",
			dresp.StatusCode, dresp.Header.Get("Retry-After"))
	}
}

// TestJobStreamWithholdsRunnerWhenShedding: at level 2+ a resume stream
// still replays what is already computed — replay costs no pipeline work
// — but the idle job's runner is not restarted; the trailer's done:false
// tells the client to come back.
func TestJobStreamWithholdsRunnerWhenShedding(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Degrade: climbingLadder, JournalDir: t.TempDir()})
	mod, err := textir.ParseModule(jobsModule)
	if err != nil {
		t.Fatal(err)
	}
	units := s.unitsFor(optimizeRequest{}, mod, false)
	hdr := jobHeader{Type: "header", Created: time.Now(), Funcs: units}
	hdr.ID = deriveJobID(hdr)
	js, created := s.createJob(hdr)
	if !created {
		t.Fatal("job not created")
	}
	js.complete(0, outcome{status: http.StatusOK, body: optimizeResponse{Program: units[0].Src, Functions: 1}}, true)

	getHealthz(t, ts) // observe #1 → level 1; the GET below observes #2 → level 2
	resp, err := ts.Client().Get(ts.URL + "/jobs/" + hdr.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume stream at level 2: status %d, want 200 (replay is free)", resp.StatusCode)
	}
	_, items, trailer := splitRecords(t, readStream(t, resp))
	if len(items) != 1 || trailer.Done {
		t.Errorf("replay at level 2: %d items done=%v, want 1/false", len(items), trailer.Done)
	}
	js.mu.Lock()
	running := js.running
	js.mu.Unlock()
	if running {
		t.Error("shedding level restarted the job runner")
	}
	if s.requests.Load() != 0 {
		t.Errorf("shedding-level replay admitted %d items", s.requests.Load())
	}
}

// TestFunctionCacheModuleEdit is the re-keying payoff: after one module
// optimization, editing a single function and resubmitting costs exactly
// one pipeline run — every untouched function replays from its
// per-function cache entry.
func TestFunctionCacheModuleEdit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code, first := postOptimize(t, ts, optimizeRequest{Program: jobsModule})
	if code != http.StatusOK {
		t.Fatalf("first optimize: %d", code)
	}
	if h, m := s.cacheHits.Load(), s.cacheMisses.Load(); h != 0 || m != 3 {
		t.Fatalf("cold module: hits/misses = %d/%d, want 0/3", h, m)
	}

	edited := strings.Replace(jobsModule, "z = a + b", "z = a - b", 1) // touches only f
	code, second := postOptimize(t, ts, optimizeRequest{Program: edited})
	if code != http.StatusOK {
		t.Fatalf("edited optimize: %d", code)
	}
	if h, m := s.cacheHits.Load(), s.cacheMisses.Load(); h != 2 || m != 4 {
		t.Errorf("one-function edit: hits/misses = %d/%d, want 2/4 (N−1 replay, 1 compute)", h, m)
	}
	// The unchanged functions' output is byte-identical between runs.
	firstFns, err := textir.Parse(first.Program)
	if err != nil {
		t.Fatal(err)
	}
	secondFns, err := textir.Parse(second.Program)
	if err != nil {
		t.Fatal(err)
	}
	if len(firstFns) != 3 || len(secondFns) != 3 {
		t.Fatalf("parsed %d/%d functions", len(firstFns), len(secondFns))
	}
	for i := 1; i < 3; i++ {
		if firstFns[i].String() != secondFns[i].String() {
			t.Errorf("untouched function %q changed across the edit", firstFns[i].Name)
		}
	}
}

// TestJobItemsKeyOnClientFuel: a job item's request carries no fuel of
// its own, so the worker stores its result under the key the job derived
// from the client's request. A single request with the same fuel then
// replays every function the job computed.
func TestJobItemsKeyOnClientFuel(t *testing.T) {
	s, ts := newTestServer(t, Config{Degrade: steadyLadder})
	req := optimizeRequest{Program: jobsModule, Fuel: 5000}
	_, items, trailer := splitRecords(t, readStream(t, postStream(t, ts, req, true)))
	if len(items) != 3 || !trailer.Done {
		t.Fatalf("job stream: %d items done=%v, want 3/true", len(items), trailer.Done)
	}
	if h, m := s.cacheHits.Load(), s.cacheMisses.Load(); h != 0 || m != 3 {
		t.Fatalf("job: hits/misses = %d/%d, want 0/3", h, m)
	}
	if code, _ := postOptimize(t, ts, req); code != http.StatusOK {
		t.Fatalf("single request: %d", code)
	}
	if h, m := s.cacheHits.Load(), s.cacheMisses.Load(); h != 3 || m != 3 {
		t.Errorf("single request after the job: hits/misses = %d/%d, want 3/3", h, m)
	}
}
