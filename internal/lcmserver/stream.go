package lcmserver

import (
	"encoding/json"
	"net/http"
	"time"

	"lazycm/internal/overload"
)

// streamHeartbeat is the keep-alive cadence on NDJSON streams while no
// item completes.
const streamHeartbeat = 10 * time.Second

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
	Type string `json:"type"` // "trailer"
	ID   string `json:"id,omitempty"`
	Done bool   `json:"done"`
	tally
	ElapsedMS int64 `json:"elapsed_ms"`
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
func (js *jobState) counts() tally {
	js.mu.Lock()
	defer js.mu.Unlock()
	t := tally{Functions: len(js.hdr.Funcs)}
	for _, out := range js.results {
		t.add(out)
	}
	return t
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
	id := js.id // "" for a transient stream
	if !write(streamMeta{Type: "job", ID: id, Functions: len(js.hdr.Funcs)}) {
		return
	}
	ticker := time.NewTicker(streamHeartbeat)
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
			write(streamTrailer{Type: "trailer", ID: id, Done: done, tally: js.counts(), ElapsedMS: msSince(start)})
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
	ID      string `json:"id"`
	Done    bool   `json:"done"`
	Running bool   `json:"running"`
	tally
	Results []streamItem `json:"results,omitempty"`
}

// lookupJob finds the job a GET /jobs request names, with its journaled
// completions resolved, or answers 404. Unknown IDs (never submitted,
// or expired at boot) are authoritative 404s — at fleet scope the
// gateway walks replicas on 404, since a job lives only on the backend
// that admitted it.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *jobState {
	js := s.jobStore.get(r.PathValue("id"))
	if js == nil {
		writeJSON(w, http.StatusNotFound, optimizeResponse{Error: "no such job", Kind: "job"})
		return nil
	}
	s.resolveRecorded(js)
	return js
}

// handleJobGet is GET /jobs/{id}: a point-in-time progress snapshot.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if js := s.lookupJob(w, r); js != nil {
		items, done, running, _ := js.snapshotFollow(0)
		writeJSON(w, http.StatusOK, jobSnapshot{ID: js.id, Done: done, Running: running, tally: js.counts(), Results: items})
	}
}

// handleJobStream is GET /jobs/{id}/stream: the resume half of the
// streaming contract. It replays every completed item and follows the
// rest; if the job is unfinished and idle (a previous generation was
// cut short), a new runner generation is started first — unless the
// ladder is shedding batch-wide work, in which case the replay still
// serves and the trailer's done:false tells the client to come back.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	js := s.lookupJob(w, r)
	if js == nil {
		return
	}
	if lvl := s.observe(); lvl < overload.LevelCacheSingle {
		s.ensureRunner(js)
	}
	s.follow(w, r, js, start)
}
