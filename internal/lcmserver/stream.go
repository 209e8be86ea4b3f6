package lcmserver

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"lazycm/internal/overload"
	"lazycm/internal/textir"
)

// DefaultStreamHeartbeat is the keep-alive cadence on NDJSON streams
// when Config.StreamHeartbeat is unset.
const DefaultStreamHeartbeat = 10 * time.Second

// streamMeta is the first NDJSON record of a stream: the job handle (ID
// empty for a transient, non-resumable stream) and the item count.
type streamMeta struct {
	Type      string `json:"type"` // "job"
	ID        string `json:"id,omitempty"`
	Functions int    `json:"functions"`
}

// streamItem is one function's completion on the wire, in completion
// order: the standard per-item response plus its module index, name,
// and the HTTP status it would have received as a single request —
// mirroring batch semantics record for record.
type streamItem struct {
	Type   string `json:"type"` // "item"
	Index  int    `json:"index"`
	Name   string `json:"name,omitempty"`
	Status int    `json:"status"`
	optimizeResponse
}

// streamBeat is the keep-alive record emitted while no item lands.
type streamBeat struct {
	Type      string `json:"type"` // "heartbeat"
	ElapsedMS int64  `json:"elapsed_ms"`
}

// streamTrailer closes a stream with the batch-shaped aggregates. Done
// false means this generation ended with items still pending (drain,
// shutdown, per-item deadline losses): the client should reconnect with
// the job ID rather than treat the stream as complete.
type streamTrailer struct {
	Type      string `json:"type"` // "trailer"
	ID        string `json:"id,omitempty"`
	Done      bool   `json:"done"`
	Functions int    `json:"functions"`
	Completed int    `json:"completed"`
	Optimized int    `json:"optimized"`
	FellBack  int    `json:"fell_back"`
	Failed    int    `json:"failed"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// handleStream is POST /optimize/stream: the batch workload with
// incremental results — one NDJSON record per function as it lands,
// heartbeats while nothing does, a trailer with the aggregates. With
// ?job=1 the work is registered (and, when a journal directory is
// configured, journaled) as a resumable job that survives client
// disconnects and server crashes; without it the stream is transient
// and cancels with the request, exactly like a batch.
//
// Admission is item-exact and shares every rule with /optimize/batch:
// draining 503s, level 2+ sheds whole modules, and both rejections
// carry the Retry-After contract.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
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
	mod, err := textir.ParseModule(req.Program)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, optimizeResponse{
			Error: err.Error(), Kind: "parse", ElapsedMS: msSince(start),
		})
		return
	}
	n := len(mod.Funcs)
	fuel, verify := s.optionsFor(req, lvl)
	units := s.unitsFor(req, mod, verify)
	persist := r.URL.Query().Has("job") && s.jobStore != nil

	if persist {
		hdr := jobHeader{
			Type: "header", ID: "", Mode: req.Mode, Fuel: fuel, Verify: verify,
			Canonical: req.Canonical, Created: time.Now(), Funcs: units,
		}
		hdr.ID = deriveJobID(hdr)
		// Attach before admission: re-submitting an in-flight (or already
		// finished) job must not admit — or shed — its work twice. A job
		// loaded from a journal holds key-only records until resolved.
		if js := s.jobStore.get(hdr.ID); js != nil {
			if s.cache != nil {
				s.resolveRecorded(js)
			}
			s.ensureRunner(js)
			s.follow(w, r, js, start)
			return
		}
		if s.journalDegraded() {
			s.rejectDegradedJournal(w, start, lvl, seed)
			return
		}
		if !s.shedStream(w, n, lvl, start, seed) {
			return
		}
		js, created := s.createJob(hdr)
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
		s.follow(w, r, js, start)
		return
	}

	if !s.shedStream(w, n, lvl, start, seed) {
		return
	}
	hdr := jobHeader{Type: "header", Mode: req.Mode, Fuel: fuel, Verify: verify,
		Canonical: req.Canonical, Created: time.Now(), Funcs: units}
	js := newJobState(hdr, false)
	js.running = true
	// A transient stream lives and dies with its request: the budget is
	// sliced across items like a batch, and a dropped client cancels the
	// remaining work (the workers account it canceled).
	budget := s.budgetFor(req)
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()
	bb := newBatchBudget(time.Now().Add(budget), n, min(s.cfg.Workers, n))
	s.startRunner(js, ctx, bb, true)
	s.follow(w, r, js, start)
}

// shedStream applies the batch admission rules to a stream of n items:
// level 2+ sheds the whole module, then the queue reservation is
// all-or-nothing. Reports whether the stream was admitted.
func (s *Server) shedStream(w http.ResponseWriter, n int, lvl overload.Level, start time.Time, seed uint64) bool {
	if lvl >= overload.LevelCacheSingle {
		// A stream is batch-wide work: level 2 sheds it first, item-exact,
		// while single requests and cache hits keep flowing.
		s.shed.Add(int64(n))
		s.reject(w, http.StatusTooManyRequests, "overload",
			fmt.Sprintf("server is shedding stream work (degrade level %d)", int(lvl)), start, lvl, seed)
		return false
	}
	if !s.admit(int64(n)) {
		s.shed.Add(int64(n))
		s.reject(w, http.StatusTooManyRequests, "overload",
			fmt.Sprintf("optimization queue cannot hold %d functions", n), start, lvl, seed)
		return false
	}
	return true
}

// snapshotFollow returns the stream records completed beyond emitted,
// plus the job's liveness, under one lock acquisition.
func (js *jobState) snapshotFollow(emitted int) (items []streamItem, done, running bool, notify chan struct{}) {
	js.mu.Lock()
	defer js.mu.Unlock()
	for _, i := range js.order[emitted:] {
		out := js.results[i]
		items = append(items, streamItem{
			Type: "item", Index: i, Name: js.hdr.Funcs[i].Name,
			Status: out.status, optimizeResponse: out.body,
		})
	}
	return items, js.done, js.running, js.notify
}

// counts aggregates completed items batch-style.
func (js *jobState) counts() (completed, optimized, fellBack, failed int) {
	js.mu.Lock()
	defer js.mu.Unlock()
	for _, out := range js.results {
		completed++
		switch {
		case out.status == http.StatusOK && !out.body.FellBack && !out.body.Canceled:
			optimized++
		case out.status == http.StatusOK:
			fellBack++
		default:
			failed++
		}
	}
	return
}

// follow writes one NDJSON stream for a job: replay what is already
// complete, then follow live completions, heartbeating through quiet
// stretches. It returns when the job finishes, this generation settles
// with work pending (trailer says done:false — reconnect), or the
// client goes away; a persisted job keeps computing regardless, which
// is what makes a dropped consumer harmless.
func (s *Server) follow(w http.ResponseWriter, r *http.Request, js *jobState, start time.Time) {
	fl, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	s.streamClients.Add(1)
	defer s.streamClients.Add(-1)

	enc := json.NewEncoder(w)
	write := func(v any) bool {
		if err := enc.Encode(v); err != nil {
			return false
		}
		if fl != nil {
			fl.Flush()
		}
		return true
	}
	id := ""
	if js.persisted {
		id = js.id
	}
	if !write(streamMeta{Type: "job", ID: id, Functions: len(js.hdr.Funcs)}) {
		return
	}
	hb := s.cfg.StreamHeartbeat
	if hb <= 0 {
		hb = DefaultStreamHeartbeat
	}
	ticker := time.NewTicker(hb)
	defer ticker.Stop()

	emitted := 0
	for {
		items, done, running, notify := js.snapshotFollow(emitted)
		for _, it := range items {
			if !write(it) {
				return
			}
		}
		emitted += len(items)
		if done || !running {
			completed, optimized, fellBack, failed := js.counts()
			write(streamTrailer{
				Type: "trailer", ID: id, Done: done,
				Functions: len(js.hdr.Funcs), Completed: completed,
				Optimized: optimized, FellBack: fellBack, Failed: failed,
				ElapsedMS: msSince(start),
			})
			return
		}
		select {
		case <-notify:
		case <-ticker.C:
			if !write(streamBeat{Type: "heartbeat", ElapsedMS: msSince(start)}) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// jobSnapshot is the JSON body of GET /jobs/{id}: progress plus every
// finished item, batch-shaped.
type jobSnapshot struct {
	ID        string       `json:"id"`
	Done      bool         `json:"done"`
	Running   bool         `json:"running"`
	Functions int          `json:"functions"`
	Completed int          `json:"completed"`
	Optimized int          `json:"optimized"`
	FellBack  int          `json:"fell_back"`
	Failed    int          `json:"failed"`
	Results   []streamItem `json:"results,omitempty"`
}

// handleJobGet is GET /jobs/{id}: a point-in-time progress snapshot.
// Unknown IDs (never submitted, or expired at boot) are authoritative
// 404s — at fleet scope the gateway walks replicas on 404, since a
// job lives only on the backend that admitted it.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	js := s.jobStore.get(r.PathValue("id"))
	if js == nil {
		writeJSON(w, http.StatusNotFound, optimizeResponse{Error: "no such job", Kind: "job"})
		return
	}
	if s.cache != nil {
		s.resolveRecorded(js)
	}
	items, done, running, _ := js.snapshotFollow(0)
	completed, optimized, fellBack, failed := js.counts()
	writeJSON(w, http.StatusOK, jobSnapshot{
		ID: js.id, Done: done, Running: running,
		Functions: len(js.hdr.Funcs), Completed: completed,
		Optimized: optimized, FellBack: fellBack, Failed: failed,
		Results: items,
	})
}

// handleJobStream is GET /jobs/{id}/stream: the resume half of the
// streaming contract. It replays every completed item and follows the
// rest; if the job is unfinished and idle (a previous generation was
// cut short), a new runner generation is started first — unless the
// ladder is shedding batch-wide work, in which case the replay still
// serves and the trailer's done:false tells the client to come back.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	js := s.jobStore.get(r.PathValue("id"))
	if js == nil {
		writeJSON(w, http.StatusNotFound, optimizeResponse{Error: "no such job", Kind: "job"})
		return
	}
	if s.cache != nil {
		s.resolveRecorded(js)
	}
	if lvl := s.observe(); lvl < overload.LevelCacheSingle {
		s.ensureRunner(js)
	}
	s.follow(w, r, js, start)
}
