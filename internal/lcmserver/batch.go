package lcmserver

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"lazycm/internal/conc"
	"lazycm/internal/overload"
	"lazycm/internal/textir"
)

// batchResult is one function's outcome inside a batch response: the
// standard optimize response plus the function's name and the HTTP
// status it would have received as a single request.
type batchResult struct {
	Name   string `json:"name,omitempty"`
	Status int    `json:"status"`
	optimizeResponse
}

// batchResponse is the JSON body of POST /optimize/batch. Results holds
// one entry per function of the submitted module, in module order; the
// aggregate counters classify them. The batch as a whole answers 200
// whenever it was admitted and processed — failure is per item, which is
// the point: one broken function must not poison its neighbors.
type batchResponse struct {
	Functions int           `json:"functions"`
	Optimized int           `json:"optimized"`
	FellBack  int           `json:"fell_back"`
	Failed    int           `json:"failed"`
	Results   []batchResult `json:"results"`
	Error     string        `json:"error,omitempty"`
	Kind      string        `json:"kind,omitempty"`
	// JobID names the resumable job behind a ?job= batch; Pending counts
	// items not yet complete when the response was cut (status 202) —
	// follow up with GET /jobs/{id}.
	JobID     string `json:"job_id,omitempty"`
	Pending   int    `json:"pending,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// batchBudget divides a batch's wall-clock budget among its items at
// dispatch time rather than up front. Each item's slice is its fair
// share of the time actually left:
//
//	slice = left × min(lanes, remaining) / remaining
//
// With `remaining` items still to dispatch across `lanes` concurrent
// lanes, the items drain in about remaining/lanes sequential waves, so
// one wave's fair share of the remaining time is left/(remaining/lanes).
// For a single lane and a fresh budget this reduces to the classic
// budget/n split; the difference is that time an early item did not use
// is redistributed to later items instead of expiring with it. One
// pathological item still exhausts only its own slice — the division is
// what keeps a batch's failure modes per-item.
type batchBudget struct {
	mu        sync.Mutex
	deadline  time.Time
	remaining int // items not yet dispatched
	lanes     int // concurrent dispatch lanes
}

func newBatchBudget(deadline time.Time, items, lanes int) *batchBudget {
	return &batchBudget{deadline: deadline, remaining: items, lanes: lanes}
}

// next returns the deadline slice for the next dispatched item. It is
// never less than a millisecond, so even an expired batch produces
// well-formed per-item contexts (which cancel immediately through the
// parent anyway).
func (b *batchBudget) next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	rem := b.remaining
	b.remaining--
	if rem < 1 {
		rem = 1
	}
	lanes := min(b.lanes, rem)
	slice := time.Until(b.deadline) * time.Duration(lanes) / time.Duration(rem)
	return max(slice, time.Millisecond)
}

// handleBatch optimizes a whole module with per-function fault isolation:
// the module is split once, each function becomes its own job with its
// own slice of the batch deadline, runs under its own panic guard, and
// quarantines its own source on failure. Admission reserves one queue
// slot per function, so a batch cannot starve single requests beyond its
// size and the counters balance item-for-item.
//
// Items are dispatched to the worker pool from up to Config.Workers
// concurrent lanes, so a batch keeps several workers busy at once instead
// of trickling jobs one handler-side wait at a time. Results are
// collected per index and assembled in module order — parallelism is
// invisible in the response. Every item is dispatched even when the
// batch deadline has already expired: the worker observes the dead
// context, does the canceled accounting, and the queued counter drains
// to zero, which is what keeps admission accounting item-exact.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	req, ok := s.decodeOptimize(w, r, start)
	if !ok {
		return
	}
	lvl := s.observe()
	seed := requestSeed(req)
	if s.draining.Load() {
		s.reject(w, http.StatusServiceUnavailable, "draining", "server is draining", start, lvl, seed)
		return
	}
	// Split structurally, not strictly: a function body the strict parser
	// rejects still becomes its own item (and its own per-item error)
	// instead of failing the whole module.
	mod, err := textir.ParseModule(req.Program)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, optimizeResponse{
			Error: err.Error(), Kind: "parse", ElapsedMS: msSince(start),
		})
		return
	}
	n := len(mod.Funcs)
	if r.URL.Query().Has("job") {
		s.handleBatchJob(w, r, req, mod, lvl, start, seed)
		return
	}
	if lvl >= overload.LevelCacheSingle {
		// Degraded: a batch is the widest work unit the service accepts,
		// so it is the first thing level 2 sheds — single requests and
		// cache hits keep flowing while modules wait out the pressure.
		// Shedding happens after the split so it stays item-exact: a shed
		// batch counts one shed item per function, same as a full queue.
		s.shed.Add(int64(n))
		s.reject(w, http.StatusTooManyRequests, "overload",
			fmt.Sprintf("server is shedding batch work (degrade level %d)", int(lvl)), start, lvl, seed)
		return
	}
	fuel, verify := s.optionsFor(req, lvl)
	if !s.admit(int64(n)) {
		s.shed.Add(int64(n))
		s.reject(w, http.StatusTooManyRequests, "overload",
			fmt.Sprintf("optimization queue cannot hold %d functions", n), start, lvl, seed)
		return
	}

	budget := s.budgetFor(req)
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()
	lanes := min(s.cfg.Workers, n)
	bb := newBatchBudget(time.Now().Add(budget), n, lanes)

	results := make([]outcome, n)
	elapsed := make([]int64, n)
	// conc.Parallel visits every index exactly once, and admit reserved n
	// queue slots, so every send below is non-blocking and every admitted
	// item reaches a worker — the accounting invariant does not depend on
	// deadlines or lane scheduling.
	_ = conc.Parallel(n, lanes, func(i int) error {
		if s.draining.Load() {
			// Drain arrived while this batch was mid-flight: stop feeding
			// the pool. The reserved slot is released and the admission
			// count rolled back, so "queued" still drains to exactly zero
			// and the outcome counters still sum to the requests counter —
			// the item is re-accounted as shed, and its result says
			// explicitly that it was refused, not silently dropped.
			s.queued.Add(-1)
			s.requests.Add(-1)
			s.shed.Add(1)
			results[i] = outcome{http.StatusServiceUnavailable, optimizeResponse{
				Error: "server is draining; batch item not dispatched", Kind: "draining",
				RetryAfterMS: s.retryAfterMS(lvl, overload.Seed(mod.Funcs[i].Name, req.Mode)),
			}}
			return nil
		}
		ictx, icancel := context.WithTimeout(ctx, bb.next())
		defer icancel()
		ireq := req
		ireq.Program = mod.Funcs[i].String()
		j := &job{
			ctx: ictx, req: ireq, done: make(chan outcome, 1), start: time.Now(),
			level: lvl, fuel: fuel, verify: verify,
		}
		s.jobs <- j
		select {
		case out := <-j.done:
			results[i] = out
		case <-ctx.Done():
			// The whole batch's deadline is gone; report this item as
			// abandoned. Its worker observes the same context, does the
			// canceled accounting, and completes into the buffered channel.
			results[i] = outcome{http.StatusGatewayTimeout, optimizeResponse{
				Error: fmt.Sprintf("batch abandoned: %v", ctx.Err()), Kind: "deadline", Canceled: true,
			}}
		}
		elapsed[i] = msSince(j.start)
		return nil
	})

	resp := batchResponse{Functions: n, Results: make([]batchResult, 0, n)}
	for i, out := range results {
		out.body.ElapsedMS = elapsed[i]
		resp.Results = append(resp.Results, batchResult{
			Name: mod.Funcs[i].Name, Status: out.status, optimizeResponse: out.body,
		})
		switch {
		case out.status == http.StatusOK && !out.body.FellBack:
			resp.Optimized++
		case out.status == http.StatusOK:
			resp.FellBack++
		default:
			resp.Failed++
		}
	}
	resp.ElapsedMS = msSince(start)
	writeJSON(w, http.StatusOK, resp)
}

// handleBatchJob is POST /optimize/batch?job=: the batch workload as a
// resumable job. Submission is idempotent — the job is content-
// addressed, so a client retrying a response it lost attaches to the
// in-flight (or finished) job instead of admitting the work twice. The
// handler waits for completion and answers the plain batch shape plus
// job_id; if the job's runner generation is cut short first (drain,
// shutdown) it answers 202 with the completed prefix and a pending
// count, and the client follows up with GET /jobs/{id}.
func (s *Server) handleBatchJob(w http.ResponseWriter, r *http.Request, req optimizeRequest, mod *textir.Module, lvl overload.Level, start time.Time, seed uint64) {
	n := len(mod.Funcs)
	fuel, verify := s.optionsFor(req, lvl)
	units := s.unitsFor(req, mod, verify)
	hdr := jobHeader{
		Type: "header", Mode: req.Mode, Fuel: fuel, Verify: verify,
		Canonical: req.Canonical, Created: time.Now(), Funcs: units,
	}
	hdr.ID = deriveJobID(hdr)
	js := s.jobStore.get(hdr.ID)
	if js == nil {
		if s.journalDegraded() {
			s.rejectDegradedJournal(w, start, lvl, seed)
			return
		}
		if !s.shedStream(w, n, lvl, start, seed) {
			return
		}
		var created bool
		js, created = s.createJob(hdr)
		if created {
			js.mu.Lock()
			js.running = true
			js.mu.Unlock()
			s.startRunner(js, s.jobsCtx, nil, true)
		} else {
			// Lost a create race: the winner's admission stands, refund ours.
			s.queued.Add(int64(-n))
			s.requests.Add(int64(-n))
			s.ensureRunner(js)
		}
	} else {
		// A job loaded from a journal holds key-only records until
		// resolved; without this an attach to a rebooted finished job
		// would answer done with every item still pending.
		if s.cache != nil {
			s.resolveRecorded(js)
		}
		s.ensureRunner(js)
	}

	for {
		_, done, running, notify := js.snapshotFollow(0)
		if done || !running {
			writeJSON(w, s.batchJobStatus(done), s.batchJobResponse(js, done, start))
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			// The client went away; the job keeps computing and the next
			// submission or GET /jobs/{id} picks the results up.
			return
		}
	}
}

func (s *Server) batchJobStatus(done bool) int {
	if done {
		return http.StatusOK
	}
	return http.StatusAccepted
}

// batchJobResponse assembles the batch shape from a job's completed
// items, in module order.
func (s *Server) batchJobResponse(js *jobState, done bool, start time.Time) batchResponse {
	js.mu.Lock()
	n := len(js.hdr.Funcs)
	resp := batchResponse{Functions: n, JobID: js.id, Results: make([]batchResult, 0, n)}
	for i := 0; i < n; i++ {
		out, ok := js.results[i]
		if !ok {
			resp.Pending++
			continue
		}
		resp.Results = append(resp.Results, batchResult{
			Name: js.hdr.Funcs[i].Name, Status: out.status, optimizeResponse: out.body,
		})
		switch {
		case out.status == http.StatusOK && !out.body.FellBack && !out.body.Canceled:
			resp.Optimized++
		case out.status == http.StatusOK:
			resp.FellBack++
		default:
			resp.Failed++
		}
	}
	js.mu.Unlock()
	resp.ElapsedMS = msSince(start)
	return resp
}
