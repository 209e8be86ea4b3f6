package lcmserver

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"lazycm/internal/atomicio"
	"lazycm/internal/conc"
	"lazycm/internal/textir"
	"lazycm/internal/vfs"
)

// DefaultJobTTL is how long an unfinished (or finished-but-unclaimed)
// journaled job survives across restarts before boot expires it.
const DefaultJobTTL = time.Hour

// journalExt names on-disk job journals; atomicio's *.tmp partials in
// the same directory are swept at boot, so a crash mid-write can never
// wedge a restart.
const journalExt = ".journal"

// jobUnit is one function of a job: its name, its canonical source, and
// its function-granular cache key. Key is empty when the chunk fails
// the strict parser — such an item can never be served from cache, so
// its outcome is always journaled inline.
type jobUnit struct {
	Name string `json:"name"`
	Key  string `json:"key,omitempty"`
	Src  string `json:"src"`
}

// jobHeader is the first journal line: everything needed to recompute
// the job from scratch after a crash. The resolved directives (fuel,
// verify — degrade-level dependent at admission time) are frozen here,
// so a resume runs under exactly the options the client was admitted
// with and cannot produce different results.
type jobHeader struct {
	Type      string    `json:"type"` // "header"
	ID        string    `json:"id"`
	Mode      string    `json:"mode"`
	Fuel      int       `json:"fuel"`
	Verify    bool      `json:"verify,omitempty"`
	Canonical bool      `json:"canonical,omitempty"`
	Created   time.Time `json:"created"`
	Funcs     []jobUnit `json:"funcs"`
}

// jobRecord is one post-header journal line: a per-function completion
// ("item") or the job-finished marker ("done"). Clean successes record
// only their cache key — the body lives in the durable result cache and
// is reloaded from there on resume, which is what makes "no completed
// function recomputes" provable from cache counters. Everything else
// (per-item failures) inlines its body.
type jobRecord struct {
	Type   string            `json:"type"`
	Index  int               `json:"index"`
	Status int               `json:"status,omitempty"`
	Key    string            `json:"key,omitempty"`
	Body   *optimizeResponse `json:"body,omitempty"`
}

// jobState is one batch/stream job's in-memory state. A persisted job
// outlives its submitting request (and, when journaled, the process);
// a transient job is the plumbing behind one /optimize/stream response
// and dies with it.
type jobState struct {
	id        string
	hdr       jobHeader
	persisted bool
	path      string // journal path; "" when not journaled

	mu      sync.Mutex
	file    vfs.File        // open journal append handle
	results map[int]outcome // completed items
	order   []int           // completion order, what stream followers replay
	// recorded maps journaled-but-unresolved clean items (known only by
	// cache key after a restart) until adopt/drop resolves them.
	recorded map[int]string
	running  bool // a runner generation is driving pending items
	done     bool
	doneCh   chan struct{}
	notify   chan struct{} // broadcast: closed+replaced on every state change
}

func newJobState(hdr jobHeader, persisted bool) *jobState {
	return &jobState{
		id: hdr.ID, hdr: hdr, persisted: persisted,
		results:  make(map[int]outcome, len(hdr.Funcs)),
		recorded: make(map[int]string),
		doneCh:   make(chan struct{}),
		notify:   make(chan struct{}),
	}
}

// broadcast wakes every follower; callers must hold mu.
func (js *jobState) broadcastLocked() {
	close(js.notify)
	js.notify = make(chan struct{})
}

// complete records one item's outcome: into memory, into the journal,
// and — when it is the last item — the done marker. Duplicate
// completions are dropped, which is what guarantees an item is
// journaled (and refunded, and counted) at most once no matter how many
// followers or generations observe it.
func (js *jobState) complete(i int, out outcome, inlineClean bool) bool {
	js.mu.Lock()
	if _, dup := js.results[i]; dup || js.done {
		js.mu.Unlock()
		return false
	}
	js.results[i] = out
	delete(js.recorded, i)
	js.order = append(js.order, i)
	if js.file != nil {
		rec := jobRecord{Type: "item", Index: i, Status: out.status}
		if key := js.hdr.Funcs[i].Key; key != "" && isCleanOutcome(out) && !inlineClean {
			rec.Key = key
		} else {
			body := out.body
			rec.Body = &body
		}
		appendJournalLine(js.file, rec)
	}
	finished := len(js.results) == len(js.hdr.Funcs)
	if finished {
		js.done = true
		if js.file != nil {
			appendJournalLine(js.file, jobRecord{Type: "done"})
			js.file.Close()
			js.file = nil
		}
	}
	js.broadcastLocked()
	js.mu.Unlock()
	if finished {
		close(js.doneCh)
	}
	return true
}

// adopt restores one journaled completion from the durable cache
// without re-journaling its item record (it is already on disk).
func (js *jobState) adopt(i int, out outcome) {
	js.mu.Lock()
	if _, dup := js.results[i]; !dup {
		js.results[i] = out
		js.order = append(js.order, i)
	}
	delete(js.recorded, i)
	finished := !js.done && len(js.results) == len(js.hdr.Funcs)
	if finished {
		js.done = true
		if js.file != nil {
			appendJournalLine(js.file, jobRecord{Type: "done"})
			js.file.Close()
			js.file = nil
		}
	}
	js.broadcastLocked()
	js.mu.Unlock()
	if finished {
		close(js.doneCh)
	}
}

// drop forgets a journaled completion whose cached body is gone (cache
// eviction or loss); the item recomputes like any pending one.
func (js *jobState) drop(i int) {
	js.mu.Lock()
	delete(js.recorded, i)
	js.mu.Unlock()
}

// settle ends one runner generation: pending items stay pending (the
// journal keeps the job resumable), followers are woken so they can
// tell their client to reconnect rather than hang.
func (js *jobState) settle() {
	js.mu.Lock()
	js.running = false
	if js.file != nil {
		js.file.Close()
		js.file = nil
	}
	js.broadcastLocked()
	js.mu.Unlock()
}

// pendingIndexes lists items with neither a result nor a journaled
// completion awaiting cache resolution.
func (js *jobState) pendingIndexes() []int {
	js.mu.Lock()
	defer js.mu.Unlock()
	var p []int
	for i := range js.hdr.Funcs {
		if _, ok := js.results[i]; ok {
			continue
		}
		if _, ok := js.recorded[i]; ok {
			continue
		}
		p = append(p, i)
	}
	return p
}

// isCleanOutcome mirrors decodeOutcome's semantic gate: only a clean
// success may round-trip through the durable cache.
func isCleanOutcome(out outcome) bool {
	return out.status == http.StatusOK && !out.body.FellBack && !out.body.Canceled &&
		out.body.Error == "" && out.body.Program != ""
}

// appendJournalLine appends one JSON record and syncs it. A torn append
// (crash mid-write) leaves a partial final line the journal reader
// drops — the item just recomputes, it can never resurrect garbage. A
// failed append (hostile disk) is likewise safe: the item's outcome
// still lives in memory for this generation, and after a crash it
// recomputes — journaling accelerates resume, it never gates results.
func appendJournalLine(f vfs.File, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	b = append(b, '\n')
	if _, err := f.Write(b); err == nil {
		f.Sync()
	}
}

// jobStore registers live jobs by ID and owns the journal directory.
type jobStore struct {
	dir string
	ttl time.Duration
	fs  vfs.FS // the server's observed durable-path filesystem
	mu  sync.Mutex
	m   map[string]*jobState
}

func newJobStore(dir string, ttl time.Duration) *jobStore {
	if ttl <= 0 {
		ttl = DefaultJobTTL
	}
	return &jobStore{dir: dir, ttl: ttl, fs: vfs.OS, m: make(map[string]*jobState)}
}

func (st *jobStore) get(id string) *jobState {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.m[id]
}

// deriveJobID content-addresses a job: the same module under the same
// resolved directives is the same job, so a duplicate submission (a
// client retrying a request whose response it lost) attaches to the
// in-flight job instead of admitting the work twice.
func deriveJobID(hdr jobHeader) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%t|%d|%t", hdr.Mode, hdr.Canonical, hdr.Fuel, hdr.Verify)
	for _, u := range hdr.Funcs {
		h.Write([]byte{0})
		h.Write([]byte(u.Src))
	}
	return "j-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// unitsFor splits a module into job units. Each chunk that passes the
// strict parser is canonicalized and keyed function-granularly (the
// same entries single requests and other jobs hit); a chunk that does
// not keeps its loose source and no key — it will fail per-item in the
// worker exactly like a batch item does.
func (s *Server) unitsFor(req optimizeRequest, mod *textir.Module, verify bool) []jobUnit {
	units := make([]jobUnit, len(mod.Funcs))
	for i, fd := range mod.Funcs {
		src := fd.String()
		u := jobUnit{Name: fd.Name, Src: src}
		if s.cache != nil {
			if fns, err := textir.Parse(src); err == nil && len(fns) == 1 {
				canon := fns[0].String()
				u.Src = canon
				u.Key = fnCacheKey(req, canon, s.effectiveFuel(req), verify)
			}
		}
		units[i] = u
	}
	return units
}

// createJob registers a new persisted job (journaled when a journal
// directory is configured) or returns the existing one for the same ID.
func (s *Server) createJob(hdr jobHeader) (*jobState, bool) {
	st := s.jobStore
	st.mu.Lock()
	defer st.mu.Unlock()
	if js := st.m[hdr.ID]; js != nil {
		return js, false
	}
	js := newJobState(hdr, true)
	if st.dir != "" {
		js.path = filepath.Join(st.dir, hdr.ID+journalExt)
		if b, err := json.Marshal(hdr); err == nil {
			// The header lands crash-atomically (tmp + fsync + rename): a
			// journal either names every function of its job or does not
			// exist. Item records are then plain syncs appended behind it.
			if err := atomicio.WriteFileFS(st.fs, js.path, append(b, '\n'), 0o644); err == nil {
				if f, err := st.fs.OpenFile(js.path, os.O_WRONLY|os.O_APPEND, 0o644); err == nil {
					js.file = f
				}
			}
		}
	}
	st.m[hdr.ID] = js
	return js, true
}

// readJournal replays one journal file. It tolerates exactly the damage
// a crash can cause — a torn final line — by dropping undecodable
// trailing data; the affected item simply recomputes.
func readJournal(fsys vfs.FS, path string) (hdr jobHeader, items []jobRecord, finished bool, err error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return hdr, nil, false, err
	}
	r := bufio.NewReader(bytes.NewReader(data))
	first := true
	for {
		line, rerr := r.ReadBytes('\n')
		line = bytes.TrimSpace(line)
		if len(line) > 0 {
			if first {
				if jerr := json.Unmarshal(line, &hdr); jerr != nil || hdr.Type != "header" || len(hdr.Funcs) == 0 {
					return hdr, nil, false, fmt.Errorf("journal %s: bad header", path)
				}
				first = false
			} else {
				var rec jobRecord
				if jerr := json.Unmarshal(line, &rec); jerr != nil {
					break // torn append; nothing after it is reachable
				}
				switch rec.Type {
				case "item":
					if rec.Index >= 0 && rec.Index < len(hdr.Funcs) {
						items = append(items, rec)
					}
				case "done":
					finished = true
				}
			}
		}
		if rerr != nil {
			break
		}
	}
	if first {
		return hdr, nil, false, fmt.Errorf("journal %s: empty", path)
	}
	return hdr, items, finished, nil
}

// bootJobs scans the journal directory at startup: sweep *.tmp
// partials, expire journals past their TTL (and undecodable ones),
// register finished jobs for GET /jobs serving, and return unfinished
// ones for re-admission.
func (s *Server) bootJobs() []*jobState {
	st := s.jobStore
	if st == nil || st.dir == "" {
		return nil
	}
	if err := st.fs.MkdirAll(st.dir, 0o755); err != nil {
		return nil
	}
	atomicio.SweepTmpFS(st.fs, st.dir)
	ents, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return nil
	}
	var resumable []*jobState
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), journalExt) {
			continue
		}
		path := filepath.Join(st.dir, ent.Name())
		hdr, items, finished, err := readJournal(st.fs, path)
		if err != nil || time.Since(hdr.Created) > st.ttl {
			st.fs.Remove(path)
			s.jobsExpired.Add(1)
			continue
		}
		js := newJobState(hdr, true)
		js.path = path
		for _, rec := range items {
			if rec.Body != nil {
				js.results[rec.Index] = outcome{status: rec.Status, body: *rec.Body}
				js.order = append(js.order, rec.Index)
			} else if rec.Key != "" {
				js.recorded[rec.Index] = rec.Key
			}
		}
		if finished {
			js.done = true
			close(js.doneCh)
		}
		st.mu.Lock()
		st.m[hdr.ID] = js
		st.mu.Unlock()
		if !finished {
			resumable = append(resumable, js)
		}
	}
	return resumable
}

// resolveRecorded turns journaled clean completions back into served
// results by reloading their bodies from the durable cache — the step
// that makes a revived server answer already-computed functions without
// recomputation. An entry the cache lost is dropped back to pending and
// recomputes.
func (s *Server) resolveRecorded(js *jobState) {
	js.mu.Lock()
	recorded := make(map[int]string, len(js.recorded))
	for i, key := range js.recorded {
		recorded[i] = key
	}
	js.mu.Unlock()
	for i, key := range recorded {
		out, ok, corrupted := s.cache.get(key)
		if corrupted {
			s.cacheCorrupt.Add(1)
		}
		if ok {
			s.cacheHits.Add(1)
			js.adopt(i, out)
		} else {
			js.drop(i)
		}
	}
}

// ensureRunner starts a runner generation for an unfinished job that
// has none — the attach path (a reconnecting client) and the boot
// resume path share it. Items are admitted one by one, so a resumed job
// larger than the queue still drains through it.
func (s *Server) ensureRunner(js *jobState) {
	js.mu.Lock()
	if js.done || js.running || s.draining.Load() {
		js.mu.Unlock()
		return
	}
	if js.path != "" && js.file == nil {
		if f, err := s.jobStore.fs.OpenFile(js.path, os.O_WRONLY|os.O_APPEND, 0o644); err == nil {
			js.file = f
		}
	}
	js.running = true
	js.mu.Unlock()
	s.startRunner(js, s.jobsCtx, nil, false)
}

// startRunner launches one runner generation. The caller has already
// set js.running; budget, when non-nil, slices a live request's
// wall-clock across items (transient streams) — journaled generations
// instead give every item the full single-request budget, since a
// resumable job has no client waiting on a deadline.
func (s *Server) startRunner(js *jobState, ctx context.Context, budget *batchBudget, preAdmitted bool) {
	s.jobsActive.Add(1)
	s.jobsWG.Add(1)
	go s.runJob(ctx, js, budget, preAdmitted)
}

// admitOne reserves a single queue slot, waiting out a full queue —
// resumed work yields to live traffic instead of shedding it.
func (s *Server) admitOne(ctx context.Context) bool {
	for {
		if ctx.Err() != nil || s.draining.Load() {
			return false
		}
		if s.admit(1) {
			return true
		}
		t := time.NewTimer(5 * time.Millisecond)
		select {
		case <-ctx.Done():
			t.Stop()
			return false
		case <-t.C:
		}
	}
}

// runJob drives one job generation: resolve journaled completions from
// the durable cache, then dispatch every still-pending item through the
// worker pool. On drain or shutdown the reserved-but-undispatched slots
// are refunded (not shed — the journal keeps the items, a later
// generation completes them), which is what keeps per-item admission
// accounting summing exactly across server generations.
func (s *Server) runJob(ctx context.Context, js *jobState, budget *batchBudget, preAdmitted bool) {
	defer s.jobsWG.Done()
	defer s.jobsActive.Add(-1)
	defer js.settle()

	if s.cache != nil {
		s.resolveRecorded(js)
	}
	pending := js.pendingIndexes()
	if len(pending) == 0 {
		js.mu.Lock()
		finished := !js.done && len(js.results) == len(js.hdr.Funcs)
		if finished {
			js.done = true
			if js.file != nil {
				appendJournalLine(js.file, jobRecord{Type: "done"})
				js.file.Close()
				js.file = nil
			}
		}
		js.mu.Unlock()
		if finished {
			close(js.doneCh)
		}
		return
	}
	hdr := js.hdr
	lanes := min(s.cfg.Workers, len(pending))
	_ = conc.Parallel(len(pending), lanes, func(k int) error {
		i := pending[k]
		stopped := ctx.Err() != nil || s.draining.Load()
		if stopped && js.persisted {
			if preAdmitted {
				// Refund the reserved slot: the item was neither dispatched
				// nor shed — it stays journaled and completes next generation.
				s.queued.Add(-1)
				s.requests.Add(-1)
			}
			return nil
		}
		if !preAdmitted && !s.admitOne(ctx) {
			return nil
		}
		ireq := optimizeRequest{
			Program: hdr.Funcs[i].Src, Mode: hdr.Mode, Canonical: hdr.Canonical,
		}
		slice := s.budgetFor(optimizeRequest{Mode: hdr.Mode})
		if budget != nil {
			slice = budget.next()
		}
		ictx, cancel := context.WithTimeout(ctx, slice)
		defer cancel()
		j := &job{
			ctx: ictx, req: ireq, done: make(chan outcome, 1), start: time.Now(),
			fuel: hdr.Fuel, verify: hdr.Verify, key: hdr.Funcs[i].Key,
		}
		// Even a stopped transient job dispatches (the worker observes the
		// dead context and does the canceled accounting), mirroring batch.
		s.jobs <- j
		out := <-j.done
		if js.persisted && out.body.Canceled {
			// A deadline loss is retryable: leave the item pending rather
			// than journaling a 504 — a later generation recomputes it.
			return nil
		}
		js.complete(i, out, s.inlineClean())
		return nil
	})
}

// inlineClean reports whether clean outcomes must be journaled with
// their bodies inline: without a durable cache tier — or while the
// disk-health tracker has it quarantined, when write-through is off —
// a key-only record could not be resolved after a restart.
func (s *Server) inlineClean() bool {
	return s.cache == nil || !s.cache.diskEnabled()
}
