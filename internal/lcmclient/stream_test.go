package lcmclient

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// streamScript is a scripted NDJSON server: each request pops the next
// step (the last repeats) and records "METHOD path" for routing
// assertions. A step's body is written as-is; returning without a done
// trailer is exactly the clean-EOF shape of a cut stream.
type streamScript struct {
	mu    sync.Mutex
	steps []step
	calls []string
}

func (sc *streamScript) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sc.mu.Lock()
		st := sc.steps[min(len(sc.calls), len(sc.steps)-1)]
		sc.calls = append(sc.calls, r.Method+" "+r.URL.Path)
		sc.mu.Unlock()
		if st.retryAfter != "" {
			w.Header().Set("Retry-After", st.retryAfter)
		}
		if st.status != http.StatusOK {
			w.Header().Set("Content-Type", "application/json")
		} else {
			w.Header().Set("Content-Type", "application/x-ndjson")
		}
		w.WriteHeader(st.status)
		body := st.body
		if body == "" {
			body = `{"error":"scripted","kind":"overload","elapsed_ms":0}`
		}
		w.Write([]byte(body))
	}
}

func (sc *streamScript) seen() []string {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return append([]string(nil), sc.calls...)
}

const (
	metaJob   = `{"type":"job","id":"j-feedfacecafebeef","functions":2}` + "\n"
	metaAnon  = `{"type":"job","functions":2}` + "\n"
	item0     = `{"type":"item","index":0,"name":"f","status":200,"program":"AAA"}` + "\n"
	item1     = `{"type":"item","index":1,"name":"g","status":200,"program":"BBB"}` + "\n"
	beat      = `{"type":"heartbeat","elapsed_ms":5}` + "\n"
	trailerOK = `{"type":"trailer","id":"j-feedfacecafebeef","done":true,"functions":2,"completed":2,"optimized":2}` + "\n"
	trailerNo = `{"type":"trailer","id":"j-feedfacecafebeef","done":false,"functions":2,"completed":1,"optimized":1}` + "\n"
)

func TestStreamBatchHappyPath(t *testing.T) {
	sc := &streamScript{steps: []step{
		{status: 200, body: metaJob + item0 + beat + item1 + trailerOK},
	}}
	ts := httptest.NewServer(sc.handler())
	defer ts.Close()

	var order []int
	res, err := newClient(ts, nil).StreamBatch(context.Background(), Request{Program: "p"}, StreamOptions{
		Resumable: true,
		OnItem:    func(it StreamItem) { order = append(order, it.Index) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.JobID != "j-feedfacecafebeef" || res.Functions != 2 || res.Optimized != 2 || res.Reconnects != 0 {
		t.Errorf("result %+v", res)
	}
	if res.Program != "AAA\nBBB" {
		t.Errorf("program = %q, want items joined in module order", res.Program)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Errorf("OnItem order = %v", order)
	}
	if calls := sc.seen(); len(calls) != 1 || calls[0] != "POST /optimize/stream" {
		t.Errorf("calls = %v", calls)
	}
}

// TestStreamBatchResumesAfterCut: a stream that ends before its trailer
// is cured by resuming the job by ID; replayed records dedupe, and the
// final result is exactly what an uninterrupted stream would have built.
func TestStreamBatchResumesAfterCut(t *testing.T) {
	sc := &streamScript{steps: []step{
		{status: 200, body: metaJob + item0}, // cut: EOF before the trailer
		{status: 200, body: metaJob + item0 + item1 + trailerOK},
	}}
	ts := httptest.NewServer(sc.handler())
	defer ts.Close()

	var waits []time.Duration
	hits := map[int]int{}
	res, err := newClient(ts, &waits).StreamBatch(context.Background(), Request{Program: "p"}, StreamOptions{
		Resumable: true,
		OnItem:    func(it StreamItem) { hits[it.Index]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconnects != 1 || res.Optimized != 2 || res.Program != "AAA\nBBB" {
		t.Errorf("result %+v (program %q)", res, res.Program)
	}
	if hits[0] != 1 || hits[1] != 1 {
		t.Errorf("OnItem hits = %v, want each index exactly once despite the replay", hits)
	}
	calls := sc.seen()
	want := []string{"POST /optimize/stream", "GET /jobs/j-feedfacecafebeef/stream"}
	if fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Errorf("calls = %v, want %v", calls, want)
	}
	if len(waits) != 1 {
		t.Errorf("client waited %d times, want 1 (one backoff between generations)", len(waits))
	}
}

// TestStreamBatchResumesOnUnfinishedTrailer: a trailer with done:false
// (a drained or restarted server generation) is a reconnect signal, not
// a completion.
func TestStreamBatchResumesOnUnfinishedTrailer(t *testing.T) {
	sc := &streamScript{steps: []step{
		{status: 200, body: metaJob + item0 + trailerNo},
		{status: 200, body: metaJob + item0 + item1 + trailerOK},
	}}
	ts := httptest.NewServer(sc.handler())
	defer ts.Close()

	res, err := newClient(ts, nil).StreamBatch(context.Background(), Request{Program: "p"}, StreamOptions{Resumable: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconnects != 1 || res.Optimized != 2 {
		t.Errorf("result %+v", res)
	}
}

// TestStreamBatchTransientCutIsTerminal: without ?job= there is nothing
// to resume — an interrupted transient stream fails fast and says so.
func TestStreamBatchTransientCutIsTerminal(t *testing.T) {
	sc := &streamScript{steps: []step{
		{status: 200, body: metaAnon + item0}, // no job ID, then EOF
	}}
	ts := httptest.NewServer(sc.handler())
	defer ts.Close()

	_, err := newClient(ts, nil).StreamBatch(context.Background(), Request{Program: "p"}, StreamOptions{})
	var term *TerminalError
	if !errors.As(err, &term) || term.Kind != "stream" {
		t.Fatalf("err = %v, want terminal stream error", err)
	}
	if calls := sc.seen(); len(calls) != 1 {
		t.Errorf("transient interrupt retried: calls = %v", calls)
	}
}

// TestStreamBatchResume404IsTerminal: the server no longer knows the
// job (expired, or a different fleet member) — retrying cannot help,
// the client must resubmit the module.
func TestStreamBatchResume404IsTerminal(t *testing.T) {
	sc := &streamScript{steps: []step{
		{status: 200, body: metaJob + item0}, // cut after progress
		{status: 404, body: `{"error":"no such job","kind":"job"}`},
	}}
	ts := httptest.NewServer(sc.handler())
	defer ts.Close()

	_, err := newClient(ts, nil).StreamBatch(context.Background(), Request{Program: "p"}, StreamOptions{Resumable: true})
	var term *TerminalError
	if !errors.As(err, &term) || term.Status != http.StatusNotFound || term.Kind != "job" {
		t.Fatalf("err = %v, want terminal 404 job error", err)
	}
	if calls := sc.seen(); len(calls) != 2 {
		t.Errorf("404 resume retried: calls = %v", calls)
	}
}

// TestStreamBatchHonorsRetryAfterOnShed: a shed submission (429) obeys
// the server's Retry-After hint before resubmitting, like Optimize.
func TestStreamBatchHonorsRetryAfterOnShed(t *testing.T) {
	sc := &streamScript{steps: []step{
		{status: 429, retryAfter: "1"},
		{status: 200, body: metaJob + item0 + item1 + trailerOK},
	}}
	ts := httptest.NewServer(sc.handler())
	defer ts.Close()

	var waits []time.Duration
	res, err := newClient(ts, &waits).StreamBatch(context.Background(), Request{Program: "p"}, StreamOptions{Resumable: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimized != 2 {
		t.Errorf("result %+v", res)
	}
	if len(waits) != 1 || waits[0] != time.Second {
		t.Errorf("waits = %v, want exactly the 1s Retry-After hint", waits)
	}
	calls := sc.seen()
	if len(calls) != 2 || calls[1] != "POST /optimize/stream" {
		t.Errorf("calls = %v, want the resubmission to POST again (nothing to resume yet)", calls)
	}
}
