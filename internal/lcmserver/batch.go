package lcmserver

import (
	"net/http"
	"sync"
	"time"
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

// batchResponse renders a job in the batch shape: completed items in
// module order with the aggregates, and the pending count behind a 202
// when the job is not done.
func (js *jobState) batchResponse(start time.Time) (int, batchResponse) {
	js.mu.Lock()
	defer js.mu.Unlock()
	n := len(js.hdr.Funcs)
	resp := batchResponse{Functions: n, JobID: js.id, Results: make([]batchResult, 0, n)}
	var t tally
	for i := 0; i < n; i++ {
		out, ok := js.results[i]
		if !ok {
			resp.Pending++
			continue
		}
		resp.Results = append(resp.Results, batchResult{
			Name: js.hdr.Funcs[i].Name, Status: out.status, optimizeResponse: out.body,
		})
		t.add(out)
	}
	resp.Optimized, resp.FellBack, resp.Failed = t.Optimized, t.FellBack, t.Failed
	resp.ElapsedMS = msSince(start)
	if !js.done {
		return http.StatusAccepted, resp
	}
	return http.StatusOK, resp
}
