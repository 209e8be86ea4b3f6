package lcmserver

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestJournalTornWriteEveryPrefix proves the journal's crash contract
// byte by byte: a journal truncated at ANY offset — the exact damage a
// power cut mid-append can leave — boots a server that (a) never
// wedges, (b) never reports a completed function as uncompleted or
// wrong, and (c) never recomputes a function whose clean body is in the
// durable cache (CacheMisses stays zero across every boot). A prefix
// that does not even contain the header is expired at boot and its file
// removed — a journal either names its whole job or does not exist.
func TestJournalTornWriteEveryPrefix(t *testing.T) {
	cacheDir := t.TempDir()

	// Donor run: a 4-function job completes on a healthy disk, filling
	// the journal (key-only records — durable cache present) and the
	// shared durable cache every truncated boot will resolve from.
	var program strings.Builder
	const n = 4
	for i := 0; i < n; i++ {
		program.WriteString(fnVariant(i))
	}
	donorJdir := t.TempDir()
	donor := NewServer(Config{Workers: 2, JournalDir: donorJdir, CacheDir: cacheDir})
	donorTS := httptest.NewServer(donor.Handler())
	code, br, _ := postBatchJob(t, donorTS, program.String())
	if code != http.StatusOK || br.Pending != 0 || len(br.Results) != n {
		t.Fatalf("donor job: status %d, %+v", code, br)
	}
	jobID := br.JobID
	reference := make(map[string]string, n) // function name -> optimized program
	for _, res := range br.Results {
		if res.Status != http.StatusOK || res.Program == "" {
			t.Fatalf("donor item %s unclean: %+v", res.Name, res)
		}
		reference[res.Name] = res.Program
	}
	donorTS.Close()
	donor.Close()

	journalPath := filepath.Join(donorJdir, jobID+journalExt)
	full, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	headerLen := strings.IndexByte(string(full), '\n') + 1
	if headerLen <= 0 {
		t.Fatal("donor journal has no header line")
	}

	step := 1
	if testing.Short() {
		step = 13
	}
	for cut := 0; cut <= len(full); cut += step {
		jdir := t.TempDir()
		path := filepath.Join(jdir, jobID+journalExt)
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s := NewServer(Config{Workers: 2, JournalDir: jdir, CacheDir: cacheDir})

		// The header is legible once its JSON is complete — the trailing
		// newline is not part of the contract (ReadBytes tolerates EOF).
		if cut < headerLen-1 {
			// No complete header: the job never legally existed. Boot must
			// expire the fragment, not wedge on it.
			if js := s.jobStore.get(jobID); js != nil {
				t.Fatalf("cut=%d: headerless journal registered a job", cut)
			}
			if got := s.jobsExpired.Load(); got != 1 {
				t.Fatalf("cut=%d: jobsExpired = %d, want 1", cut, got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("cut=%d: headerless journal not removed: %v", cut, err)
			}
			s.Close()
			continue
		}

		js := s.job(jobID)
		if js == nil {
			t.Fatalf("cut=%d: journal with intact header lost its job", cut)
		}
		// A prefix without the done marker resumes at boot; wait for that
		// generation (it resolves everything from the durable cache). A
		// prefix with the marker is loaded by the lookup, like GET /jobs.
		select {
		case <-js.doneCh:
		case <-time.After(10 * time.Second):
			t.Fatalf("cut=%d: resumed job did not finish — boot wedged", cut)
		}

		js.mu.Lock()
		results := make(map[int]outcome, len(js.results))
		for i, out := range js.results {
			results[i] = out
		}
		js.mu.Unlock()
		if len(results) != n {
			t.Fatalf("cut=%d: %d/%d items resolved", cut, len(results), n)
		}
		for i := 0; i < n; i++ {
			out := results[i]
			name := js.hdr.Funcs[i].Name
			if out.status != http.StatusOK || out.body.Program != reference[name] {
				t.Fatalf("cut=%d item %d (%s): status %d, program mismatch", cut, i, name, out.status)
			}
		}
		// The zero-recompute invariant: every intact item record resolved
		// from its journaled key, and every torn-off one was still a
		// function-granular cache hit — the pipeline never re-ran.
		if got := s.cacheMisses.Load(); got != 0 {
			t.Fatalf("cut=%d: CacheMisses = %d, want 0 — a completed function recomputed", cut, got)
		}
		s.Close()
	}
}
