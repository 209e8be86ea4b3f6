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
	"sync/atomic"
	"time"

	"lazycm/internal/atomicio"
	"lazycm/internal/cachestore"
	"lazycm/internal/ir"
	"lazycm/internal/overload"
	"lazycm/internal/textir"
	"lazycm/internal/vfs"
)

// jobTTL is how long an unfinished (or finished-but-unclaimed)
// journaled job survives across restarts before boot expires it.
const jobTTL = time.Hour

// journalExt names on-disk job journals; atomicio's *.tmp partials in
// the same directory are swept at boot, so a crash mid-write can never
// wedge a restart.
const journalExt = ".journal"

// jobUnit is one function of a job: its name, its canonical source, and
// its function-granular cache key. Key is empty when caching is off or
// the strict parser rejects the function — such an item can never be
// served from cache, so its outcome is always journaled inline.
type jobUnit struct {
	Name string `json:"name"`
	Key  string `json:"key,omitempty"`
	Src  string `json:"src"`

	// fn is the function parsed at submit. A unit without it — taken from
	// the chunk alias, read back from a journal, or rejected by the
	// parser — has its worker parse Src once every cache tier has missed,
	// so a rejected unit answers the parser's error on Src. fn is released
	// once the unit's item completes.
	fn *ir.Function
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

// jobState is one module request's in-memory state — every endpoint
// that takes a module runs one. A persisted job (?job=) outlives its
// submitting request (and, when journaled, the process); a transient
// job is the plumbing behind one /optimize, /optimize/batch or
// /optimize/stream response and dies with it.
type jobState struct {
	id        string
	hdr       jobHeader
	persisted bool
	path      string // journal path; "" when not journaled

	mu      sync.Mutex
	file    vfs.File        // open journal append handle
	results map[int]outcome // completed items
	order   []int           // completion order, what stream followers replay
	running bool            // a runner generation is driving pending items
	done    bool
	doneCh  chan struct{}
	notify  chan struct{} // broadcast: closed+replaced on every state change
}

func newJobState(hdr jobHeader, persisted bool) *jobState {
	return &jobState{
		id: hdr.ID, hdr: hdr, persisted: persisted,
		results: make(map[int]outcome, len(hdr.Funcs)),
		doneCh:  make(chan struct{}),
		notify:  make(chan struct{}),
	}
}

// broadcast wakes every follower; callers must hold mu.
func (js *jobState) broadcastLocked() {
	close(js.notify)
	js.notify = make(chan struct{})
}

// complete records one item's outcome: into memory, into the journal,
// and — when it is the last item — the done marker.
func (js *jobState) complete(i int, out outcome, inlineClean bool) bool {
	rec := jobRecord{Type: "item", Index: i, Status: out.status}
	if key := js.hdr.Funcs[i].Key; key != "" && isCleanOutcome(out) && !inlineClean {
		rec.Key = key
	} else {
		body := out.body
		rec.Body = &body
	}
	return js.record(i, out, &rec)
}

// record stores one item's outcome, appends rec (when non-nil) to the
// journal, and finishes the job with its last item. A completion replayed
// from the cache into a transient job passes no rec.
// Duplicate completions are dropped, which is what guarantees an item is
// journaled (and refunded, and counted) at most once no matter how many
// followers or generations observe it.
func (js *jobState) record(i int, out outcome, rec *jobRecord) bool {
	js.mu.Lock()
	defer js.mu.Unlock()
	if _, dup := js.results[i]; dup {
		return false
	}
	js.results[i] = out
	js.order = append(js.order, i)
	js.hdr.Funcs[i].fn = nil
	if rec != nil && js.file != nil {
		appendJournalLine(js.file, *rec)
	}
	js.finishLocked()
	js.broadcastLocked()
	return true
}

// finishLocked marks the job done once every item has a result: the
// journal gets its done marker and closes, and doneCh is closed.
// Callers must hold mu.
func (js *jobState) finishLocked() {
	if js.done || len(js.results) < len(js.hdr.Funcs) {
		return
	}
	js.done = true
	if js.file != nil {
		appendJournalLine(js.file, jobRecord{Type: "done"})
		js.file.Close()
		js.file = nil
	}
	close(js.doneCh)
}

// claim makes the caller the job's next runner generation, reopening
// its journal when a previous generation closed it. It reports false
// when the job is finished or a generation is already running.
func (js *jobState) claim(fsys vfs.FS) bool {
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.done || js.running {
		return false
	}
	if js.path != "" && js.file == nil {
		if f, err := fsys.OpenFile(js.path, os.O_WRONLY|os.O_APPEND, 0o644); err == nil {
			js.file = f
		}
	}
	js.running = true
	return true
}

// settle ends one runner generation: a job whose every item has a
// result finishes, pending items stay pending (the journal keeps the
// job resumable), and followers are woken so they can tell their
// client to reconnect rather than hang.
func (js *jobState) settle() {
	js.mu.Lock()
	js.running = false
	js.finishLocked()
	if js.file != nil {
		js.file.Close()
		js.file = nil
	}
	js.broadcastLocked()
	js.mu.Unlock()
}

// wait blocks until the job is done or its runner generation settles
// with items pending, and reports false when ctx ends first.
func (js *jobState) wait(ctx context.Context) bool {
	for {
		js.mu.Lock()
		settled, notify := js.done || !js.running, js.notify
		js.mu.Unlock()
		if settled {
			return true
		}
		select {
		case <-notify:
		case <-ctx.Done():
			return false
		}
	}
}

// pendingIndexes lists the items without a result.
func (js *jobState) pendingIndexes() []int {
	js.mu.Lock()
	defer js.mu.Unlock()
	var p []int
	for i := range js.hdr.Funcs {
		if _, ok := js.results[i]; !ok {
			p = append(p, i)
		}
	}
	return p
}

// tally classifies finished items the way every aggregate — batch
// counters, stream trailer, job snapshot — reports them.
type tally struct {
	Functions int `json:"functions"`
	Completed int `json:"completed"`
	Optimized int `json:"optimized"`
	FellBack  int `json:"fell_back"`
	Failed    int `json:"failed"`
}

func (t *tally) add(out outcome) {
	t.Completed++
	switch {
	case out.status == http.StatusOK && !out.body.FellBack && !out.body.Canceled:
		t.Optimized++
	case out.status == http.StatusOK:
		t.FellBack++
	default:
		t.Failed++
	}
}

// isCleanOutcome is the cache's semantic gate: only a clean success may
// round-trip through the durable cache or a journal key-only record.
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
	fs  vfs.FS // the server's observed durable-path filesystem
	mu  sync.Mutex
	m   map[string]*jobState
}

func newJobStore(dir string, fsys vfs.FS) *jobStore {
	return &jobStore{dir: dir, fs: fsys, m: make(map[string]*jobState)}
}

func (st *jobStore) get(id string) *jobState {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.m[id]
}

// validJobID reports whether id has deriveJobID's shape, "j-" and 16
// lowercase hex digits: the only IDs a lookup may turn into a journal
// file name.
func validJobID(id string) bool {
	return len(id) == 18 && strings.HasPrefix(id, "j-") && cachestore.ValidKey(id[2:])
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

// view is the rendering a module request asked for. Every view runs the
// same job; it decides only how the program is split into units, how
// per-item deadlines are cut, and how the result is written.
type view int

const (
	// viewSingle is POST /optimize: the program's functions run as one
	// job, and the answer joins them into a single response (see joined).
	viewSingle view = iota
	// viewBatch is POST /optimize/batch: a whole module with per-function
	// fault isolation — each function is its own item with its own slice
	// of the batch deadline, its own panic guard and its own quarantine
	// capture — answered as one entry per function in module order, so
	// the parallel dispatch is invisible in the response. With ?job= the
	// batch is a resumable job: submission is idempotent (the job is
	// content-addressed, so a client retrying a response it lost attaches
	// to the in-flight or finished job instead of admitting the work
	// twice), and if the job's runner generation is cut short (drain,
	// shutdown) the answer is 202 with the completed prefix and a pending
	// count, for the client to follow up with GET /jobs/{id}.
	viewBatch
	// viewStream is POST /optimize/stream: the batch workload with
	// incremental results — one NDJSON record per function as it lands,
	// heartbeats while nothing does, a trailer with the aggregates. With
	// ?job= the work is a resumable job (journaled when a journal
	// directory is configured) that survives client disconnects and
	// server crashes; without it the stream is transient and cancels with
	// the request, exactly like a batch.
	viewStream
)

// unitsFor builds a request's job units, one per chunk of its cut. A
// chunk the alias holds takes its canonical print from there, unparsed;
// any other is strictly parsed and printed, and fills the alias. The
// print is the unit's source and what its cache key hashes, so single,
// batch and stream requests share entries. An /optimize (whole) that
// does not cut, or has a chunk the parser rejects, is one keyless unit
// holding the whole program: its worker answers the whole-program
// parser's error, text and line number. A batch or stream chunk the
// parser rejects is a keyless unit of its own holding the chunk's loose
// print, and fails alone. Units may slice the request; createJob clones
// what it keeps.
func (s *Server) unitsFor(req optimizeRequest, chunks []textir.Chunk, whole, verify bool) []jobUnit {
	if len(chunks) == 0 {
		return []jobUnit{{Src: req.Program}}
	}
	units := make([]jobUnit, len(chunks))
	for i, c := range chunks {
		print, sum, ok := s.aliased(c.Text)
		u := jobUnit{Name: c.Name, Src: print}
		if !ok {
			f, err := textir.ParseFunction(c.Text)
			switch {
			case err == nil:
				u.Src, u.fn = f.String(), f
				s.alias.put(sum, c.Text, u.Src)
			case whole:
				return []jobUnit{{Src: req.Program}}
			default:
				// A chunk is one function to the loose structure, so it
				// splits into just its loose print.
				loose, _ := textir.SplitFunctions(c.Text)
				units[i] = jobUnit{Name: c.Name, Src: loose[0]}
				continue
			}
		}
		if s.cache != nil {
			u.Key = cacheKey(req, u.Src, s.effectiveFuel(req), verify)
		}
		units[i] = u
	}
	return units
}

// aliased returns the canonical print the alias holds for chunk (the
// chunk itself when it is already canonical) and the chunk's hash, which
// fills the alias on a miss. It counts alias hits and entries that fail
// their checksum.
func (s *Server) aliased(chunk string) (print string, sum [sha256.Size]byte, ok bool) {
	if s.alias == nil {
		return "", sum, false
	}
	sum = sha256.Sum256([]byte(chunk))
	print, ok, corrupted := s.alias.get(sum, chunk)
	if corrupted {
		s.cacheCorrupt.Add(1)
	}
	if ok {
		s.aliasHits.Add(1)
	}
	return print, sum, ok
}

// submit is the one front door for module requests. It cuts the
// program into its functions, attaches to an existing ?job= or applies
// the one admission policy, builds the units, and starts the job's
// runner. Transient runs live under ctx. It returns nil when it has
// already answered the request (a refusal); the caller renders the
// returned job in its view. Units are built ahead of admission only
// where a decision needs them (a ?job= ID hashes them, a degraded
// /optimize replays their keys), so any other refusal costs the cut.
func (s *Server) submit(ctx context.Context, w http.ResponseWriter, r *http.Request, req optimizeRequest, v view, start time.Time) (*jobState, overload.Level) {
	lvl := s.observe()
	if s.draining.Load() {
		s.reject(w, http.StatusServiceUnavailable, "draining", "server is draining", start, lvl, req.seed())
		return nil, lvl
	}
	whole := v == viewSingle
	// The cut is structural, not strict, so a function the strict parser
	// rejects is still an item of its own. A batch or stream that does not
	// cut is refused here; an /optimize is answered by its units.
	chunks, err := textir.Cut(req.Program)
	if err != nil && !whole {
		writeJSON(w, http.StatusBadRequest, optimizeResponse{Error: err.Error(), Kind: "parse", ElapsedMS: msSince(start)})
		return nil, lvl
	}
	fuel, verify := s.optionsFor(req, lvl)
	hdr := jobHeader{
		Type: "header", Mode: req.Mode, Fuel: fuel, Verify: verify,
		Canonical: req.Canonical, Created: start,
	}
	persist := !whole && r.URL.Query().Has("job")
	switch {
	case persist:
		hdr.Funcs = s.unitsFor(req, chunks, whole, verify)
		hdr.ID = deriveJobID(hdr)
		// Attach before admission: re-submitting an in-flight (or already
		// finished) job must not admit — or shed — its work twice. An item
		// whose journaled result the cache lost reopens, and the runner
		// recomputes it.
		if js := s.job(hdr.ID); js != nil {
			s.ensureRunner(js)
			return js, lvl
		}
		if s.journalDegraded() {
			s.rejectDegradedJournal(w, start, lvl, req.seed())
			return nil, lvl
		}
	case whole && lvl >= overload.LevelCacheSingle:
		// Degraded: a cached result costs no worker time, so serve it
		// even while shedding. At level 3 everything else sheds; at level
		// 2 the miss still competes for admission below.
		hdr.Funcs = s.unitsFor(req, chunks, whole, verify)
		if js := s.replay(hdr); js != nil {
			return js, lvl
		}
	}
	// Admission reserves queue slots all or nothing, so a module never
	// wedges half its functions into the queue: one per function of a
	// batch or stream, which is admitted or shed whole, and one for an
	// /optimize — the slot it always held — whose further functions take
	// free slots as they go (below, and runJob). Either way every function
	// is accounted exactly like a single-function request. n counts the
	// units where they are built, else the chunks (at least one). The
	// admit case runs only when no earlier case refused.
	n := max(len(chunks), 1)
	if hdr.Funcs != nil {
		n = len(hdr.Funcs)
	}
	reserve := n
	if whole {
		reserve = 1
	}
	var refusal string
	switch {
	case whole && lvl >= overload.LevelShed:
		refusal = "server is shedding all new work (degrade level 3)"
	case !whole && lvl >= overload.LevelCacheSingle:
		// A batch or stream is the widest work unit the service accepts,
		// so level 2 sheds it first while single requests and cache hits
		// keep flowing.
		noun := "batch"
		if v == viewStream || persist { // a ?job= batch is worded as stream work
			noun = "stream"
		}
		refusal = fmt.Sprintf("server is shedding %s work (degrade level %d)", noun, int(lvl))
	case !s.admit(int64(reserve)):
		refusal = "optimization queue is full"
		if !whole {
			refusal = fmt.Sprintf("optimization queue cannot hold %d functions", n)
		}
	}
	if refusal != "" {
		s.shed.Add(int64(n))
		s.reject(w, http.StatusTooManyRequests, "overload", refusal, start, lvl, req.seed())
		return nil, lvl
	}
	if hdr.Funcs == nil {
		hdr.Funcs = s.unitsFor(req, chunks, whole, verify)
	}
	if whole {
		// An admitted /optimize widens to one lane per worker while free
		// slots last, never waiting for one.
		for reserve < min(len(hdr.Funcs), s.cfg.Workers) && s.admit(1) {
			reserve++
		}
	}

	if persist {
		js, created := s.createJob(hdr)
		if !created || !js.claim(s.fs) {
			// Lost a create race: the winner's admission stands, refund ours.
			s.queued.Add(int64(-n))
			s.requests.Add(int64(-n))
			s.ensureRunner(js)
			return js, lvl
		}
		s.startRunner(js, s.jobsCtx, nil, n)
		return js, lvl
	}
	js := newJobState(hdr, false)
	js.claim(nil)
	var budget *batchBudget
	if !whole {
		// Batch and stream items each get a fair slice of the request's
		// deadline; the functions of one /optimize all run under it whole.
		deadline, _ := ctx.Deadline()
		budget = &batchBudget{deadline: deadline, remaining: n, lanes: min(s.cfg.Workers, n)}
	}
	s.startRunner(js, ctx, budget, reserve)
	return js, lvl
}

// replay is degraded /optimize service from the result cache alone:
// when every unit's key hits, the job is complete without a worker and
// is accounted like admitted, optimized work. A partial hit is a miss
// and counts nothing, keeping the hit counters exact.
func (s *Server) replay(hdr jobHeader) *jobState {
	outs := make([]outcome, len(hdr.Funcs))
	for i, u := range hdr.Funcs {
		if u.Key == "" {
			return nil
		}
		out, ok := s.cached(u.Key)
		if !ok {
			return nil
		}
		outs[i] = out
	}
	n := int64(len(outs))
	s.cacheHits.Add(n)
	s.requests.Add(n)
	s.optimized.Add(n)
	js := newJobState(hdr, false)
	for i, out := range outs {
		js.record(i, out, nil)
	}
	return js
}

// createJob registers a new persisted job (journaled when a journal
// directory is configured) or returns the existing one for the same ID.
// A persisted job outlives its request, so it clones its units' names
// and sources: one sliced from the request would keep the whole request
// body alive for as long as the job is held.
func (s *Server) createJob(hdr jobHeader) (*jobState, bool) {
	st := s.jobStore
	st.mu.Lock()
	defer st.mu.Unlock()
	if js := st.m[hdr.ID]; js != nil {
		return js, false
	}
	for i := range hdr.Funcs {
		u := &hdr.Funcs[i]
		u.Name, u.Src = strings.Clone(u.Name), strings.Clone(u.Src)
	}
	js := newJobState(hdr, true)
	if st.dir != "" {
		// The header lands crash-atomically (tmp + fsync + rename): a
		// journal either names every function of its job or does not
		// exist. Item records are then plain syncs appended behind it,
		// through the handle each runner generation opens (claim).
		path := filepath.Join(st.dir, hdr.ID+journalExt)
		if b, err := json.Marshal(hdr); err == nil && atomicio.WriteFileFS(st.fs, path, append(b, '\n'), 0o644) == nil {
			js.path = path
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
// partials, expire journals past their TTL (and undecodable ones), and
// load unfinished ones for re-admission. A finished journal stays on
// disk until a lookup reads it (see job).
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
		if err != nil || time.Since(hdr.Created) > jobTTL {
			st.fs.Remove(path)
			s.jobsExpired.Add(1)
			continue
		}
		if !finished {
			resumable = append(resumable, s.loadJob(path, hdr, items))
		}
	}
	return resumable
}

// loadJob builds a persisted job from its journal and registers it,
// unless a job with its ID already is. Inlined outcomes are taken as
// written and key-only records from the result cache — a replay, which
// is what makes a revived server answer already-computed functions
// without recomputation. A key the cache lost (evicted, corrupt, or
// behind a quarantined disk tier) leaves its item pending, and it
// recomputes. The job is done only when every item has a result. The
// cache hits count once, for the copy that is registered.
func (s *Server) loadJob(path string, hdr jobHeader, items []jobRecord) *jobState {
	js := newJobState(hdr, true)
	js.path = path
	var hits int64
	for _, rec := range items {
		if _, dup := js.results[rec.Index]; dup {
			continue
		}
		out := outcome{status: rec.Status}
		switch {
		case rec.Body != nil:
			out.body = *rec.Body
		case rec.Key == "":
			continue
		default:
			var ok bool
			if out, ok = s.cached(rec.Key); !ok {
				continue
			}
			hits++
		}
		js.results[rec.Index] = out
		js.order = append(js.order, rec.Index)
	}
	js.finishLocked() // not yet shared: no lock needed

	st := s.jobStore
	st.mu.Lock()
	defer st.mu.Unlock()
	if cur := st.m[js.id]; cur != nil {
		return cur
	}
	st.m[js.id] = js
	s.cacheHits.Add(hits)
	return js
}

// job finds the persisted job id names: the registered one, else the
// journal on disk, loaded and registered on first lookup. Only an ID of
// deriveJobID's shape reaches the filesystem.
func (s *Server) job(id string) *jobState {
	st := s.jobStore
	if js := st.get(id); js != nil || st.dir == "" || !validJobID(id) {
		return js
	}
	path := filepath.Join(st.dir, id+journalExt)
	hdr, items, _, err := readJournal(st.fs, path)
	if err != nil || hdr.ID != id {
		return nil
	}
	return s.loadJob(path, hdr, items)
}

// ensureRunner starts a runner generation for an unfinished job that
// has none — the attach path (a reconnecting client) and the boot
// resume path share it. Items are admitted one by one, so a resumed job
// larger than the queue still drains through it.
func (s *Server) ensureRunner(js *jobState) {
	if !s.draining.Load() && js.claim(s.fs) {
		s.startRunner(js, s.jobsCtx, nil, 0)
	}
}

// startRunner launches one runner generation of a job the caller has
// claimed, with reserved queue slots already admitted for its first
// items. Every module request in flight is one generation, which is
// what jobs_active counts.
func (s *Server) startRunner(js *jobState, ctx context.Context, budget *batchBudget, reserved int) {
	s.jobsActive.Add(1)
	s.jobsWG.Add(1)
	go s.runJob(ctx, js, budget, reserved)
}

// admitOne reserves a single queue slot, waiting out a full queue —
// resumed work yields to live traffic instead of shedding it.
func (s *Server) admitOne(ctx context.Context) bool {
	for ctx.Err() == nil && !s.draining.Load() {
		if s.admit(1) {
			return true
		}
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Millisecond):
		}
	}
	return false
}

// runJob is the executor: it drives one job generation for every view.
// It resolves journaled completions from the durable cache, then
// dispatches every still-pending item to the worker pool from up to
// Config.Workers concurrent lanes and stamps each item with its own
// dispatch-to-completion time. A repeat of a function the module already
// holds (same key) is dispatched only after every first occurrence has
// finished, so it is served from the cache rather than computed twice.
// Each item's deadline is its slice of budget (batch and stream), the
// full single-request budget (persisted jobs, which no client waits on),
// or ctx itself (/optimize).
//
// The first reserved items ride the slots admission reserved. A
// transient run has no more lanes than slots, so a further item takes
// its lane's freed slot without waiting; if other work took it, the
// item and the run's later ones are shed as 429 overload items with a
// retry hint. A persisted generation instead waits out a full queue.
//
// A drain stops the dispatch. A transient run refuses each undispatched
// item — a 503 draining item, any slot it held released and its
// admission re-accounted as shed — so no item is silently dropped. A
// persisted generation refunds the undispatched slots instead (also on
// shutdown): the journal keeps the items, and a later generation
// completes them. Either way queued drains to exactly zero and the
// outcome counters sum to the admissions, across server generations.
func (s *Server) runJob(ctx context.Context, js *jobState, budget *batchBudget, reserved int) {
	defer s.jobsWG.Done()
	defer s.jobsActive.Add(-1)
	defer js.settle()

	pending := js.pendingIndexes()
	hdr := &js.hdr
	// An /optimize (no budget to slice, no journal) feeds the pressure
	// gauge one sample for its module from request start, as a single
	// request: the gauge normalizes against a per-request budget.
	single := budget == nil && !js.persisted
	lanes := min(s.cfg.Workers, len(pending))
	if !js.persisted {
		lanes = min(lanes, reserved)
	}
	var slots atomic.Int64
	slots.Store(int64(reserved))
	var refused, missed atomic.Bool
	dispatch := func(i int) {
		held := slots.Add(-1) >= 0
		stop := "" // why the item is not dispatched
		switch {
		case s.draining.Load() || (js.persisted && ctx.Err() != nil):
			stop = "draining"
		case held:
		case js.persisted:
			if !s.admitOne(ctx) {
				stop = "draining" // or shut down: the item stays pending
			}
		case ctx.Err() != nil:
			// Never admitted: abandoned without being counted.
			js.complete(i, abandoned(ctx), true)
			return
		case refused.Load() || !s.admit(1):
			refused.Store(true)
			stop = "overload"
		}
		if stop != "" {
			if held {
				s.queued.Add(-1)
				s.requests.Add(-1)
			}
			if !js.persisted {
				status, msg := http.StatusServiceUnavailable, "server is draining; batch item not dispatched"
				if stop == "overload" {
					status, msg = http.StatusTooManyRequests, "optimization queue is full"
				}
				s.shed.Add(1)
				js.complete(i, outcome{status, optimizeResponse{
					Error: msg, Kind: stop,
					RetryAfterMS: s.retryAfterMS(s.ladder.Level(), overload.Seed(hdr.Funcs[i].Name, hdr.Mode)),
				}}, true)
			}
			return
		}
		ictx, cancel := ctx, context.CancelFunc(func() {})
		switch {
		case budget != nil:
			ictx, cancel = context.WithTimeout(ctx, budget.next())
		case js.persisted:
			ictx, cancel = context.WithTimeout(ctx, s.budgetFor(optimizeRequest{}))
		}
		defer cancel()
		j := &job{ctx: ictx, hdr: hdr, unit: hdr.Funcs[i], done: make(chan outcome, 1), start: time.Now(), gauged: !single}
		// The item holds a queue slot, so the send cannot block; a held
		// item is dispatched even past the run's deadline, and its worker
		// observes the dead context and does the canceled accounting,
		// which keeps admission item-exact.
		s.jobs <- j
		abandon := ctx.Done()
		if js.persisted {
			// A persisted run waits for its worker even through shutdown,
			// so a function that does finish is journaled and never
			// computed again by the next generation.
			abandon = nil
		}
		var out outcome
		select {
		case out = <-j.done:
		case <-abandon:
			// The run's deadline is gone (or its client left): report the
			// item abandoned. Its worker completes into the buffered done
			// channel and does the canceled accounting, so nothing leaks.
			out = abandoned(ctx)
		}
		out.body.ElapsedMS = msSince(j.start)
		if out.body.Canceled || out.body.FellBack {
			missed.Store(true)
		}
		if js.persisted && out.body.Canceled {
			// A deadline loss is retryable: leave the item pending rather
			// than journaling a 504 — a later generation recomputes it.
			return
		}
		// Clean outcomes are journaled by key only while the durable cache
		// tier takes write-through; otherwise a key-only record could not
		// be resolved after a restart, so the body goes inline.
		js.complete(i, out, s.cache == nil || !s.cache.diskEnabled())
	}
	// Lanes claim each round's items in order; slots, refusals, budget
	// and the gauge carry from the first round to the second.
	for _, round := range dispatchRounds(hdr.Funcs, pending) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for range min(lanes, len(round)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := next.Add(1) - 1; k < int64(len(round)); k = next.Add(1) - 1 {
					dispatch(round[k])
				}
			}()
		}
		wg.Wait()
	}
	if single {
		s.gauge.Record(time.Since(hdr.Created), missed.Load())
	}
}

// dispatchRounds splits pending items into two dispatch rounds: first
// every item whose non-empty key no earlier pending item holds, then the
// repeats, each round in index order.
func dispatchRounds(units []jobUnit, pending []int) [2][]int {
	var rounds [2][]int
	seen := make(map[string]bool, len(pending))
	for _, i := range pending {
		key := units[i].Key
		if key != "" && seen[key] {
			rounds[1] = append(rounds[1], i)
			continue
		}
		seen[key] = true
		rounds[0] = append(rounds[0], i)
	}
	return rounds
}

// abandoned is the outcome of an item whose run ended — deadline or
// departed client — before the item's worker answered.
func abandoned(ctx context.Context) outcome {
	return outcome{http.StatusGatewayTimeout, optimizeResponse{
		Error: fmt.Sprintf("batch abandoned: %v", ctx.Err()), Kind: "deadline", Canceled: true,
	}}
}
