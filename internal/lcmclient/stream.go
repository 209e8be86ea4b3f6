package lcmclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// StreamItem is one function's completion record from an NDJSON stream
// (or a GET /jobs snapshot): its module index, name, the HTTP status it
// would have received as a single request, and the standard response.
type StreamItem struct {
	Index  int    `json:"index"`
	Name   string `json:"name,omitempty"`
	Status int    `json:"status"`
	Response
}

// StreamResult is the assembled outcome of one streamed batch.
type StreamResult struct {
	// JobID is the server's resumable job handle ("" for a transient
	// stream); later calls can resume or inspect it.
	JobID     string
	Functions int
	Optimized int
	FellBack  int
	Failed    int
	// Reconnects counts mid-stream connection losses that were cured by
	// resuming the job.
	Reconnects int
	// Items holds every function's record in module order.
	Items []StreamItem
	// Program is the whole-module result: every item's program joined in
	// module order — byte-identical to what a single POST /optimize of
	// the module returns when every item succeeded.
	Program string
}

// StreamOptions tunes one StreamBatch call.
type StreamOptions struct {
	// Resumable asks the server to register the work as a durable job
	// (?job=1): the stream can then be resumed by job ID after a dropped
	// connection or even a server restart.
	Resumable bool
	// OnItem, when non-nil, observes each function's record as it lands
	// (called once per index, duplicates from resumed streams skipped).
	OnItem func(StreamItem)
}

// StreamBatch submits a module to POST /optimize/stream and consumes
// the NDJSON response incrementally. With Resumable set, a connection
// lost mid-stream (or a stream whose trailer reports the job unfinished
// — a draining or restarted server) is cured by reconnecting to
// GET /jobs/{id}/stream: records already seen are skipped, and the
// final module is byte-identical to an uninterrupted run, because every
// function's result is computed exactly once server-side and replayed
// from its journal and durable cache thereafter.
//
// The retry contract matches Optimize: capped attempts, deterministic
// backoff, server Retry-After hints preferred, the Budget capping the
// whole call. Progress resets the attempt counter — only consecutive
// failures count against it.
func (c *Client) StreamBatch(ctx context.Context, req Request, opts StreamOptions) (*StreamResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	deadline := start.Add(c.budget())
	res := &StreamResult{}
	items := make(map[int]StreamItem)
	var last error
	attempt := 0
	connected := false // a successful POST happened; resume via GET from now on

	for {
		attempt++
		progressed, done, err := c.streamOnce(ctx, req, opts, res, items, connected)
		if done {
			return c.assemble(res, items)
		}
		if err != nil {
			var term *TerminalError
			if errors.As(err, &term) {
				return nil, err
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			last = err
		} else {
			// The stream ended cleanly but the job is not done (trailer
			// done:false): the server generation was cut short. Reconnect.
			last = &retryableError{msg: "stream ended with job unfinished"}
		}
		if progressed {
			connected = true
			attempt = 0 // progress resets the cap: only consecutive failures count
		}
		if res.JobID == "" && connected {
			// A transient stream cannot be resumed; what was lost is lost.
			return nil, &TerminalError{Kind: "stream", Message: fmt.Sprintf("transient stream interrupted: %v", last)}
		}
		if attempt >= c.maxAttempts() {
			return nil, exhausted(attempt, start, false, last)
		}
		wait := c.backoff(max(attempt, 1), req)
		var re *retryableError
		if errors.As(last, &re) && re.retryAfter > 0 {
			wait = re.retryAfter
		}
		if time.Now().Add(wait).After(deadline) {
			return nil, exhausted(attempt, start, true, last)
		}
		if err := c.doSleep(ctx, wait); err != nil {
			return nil, err
		}
	}
}

// streamOnce opens one stream (initial POST, or GET resume once a job
// ID is known) and consumes records until the trailer or a failure.
// It reports whether any new item landed and whether the job finished.
func (c *Client) streamOnce(ctx context.Context, req Request, opts StreamOptions, res *StreamResult, items map[int]StreamItem, resume bool) (progressed, done bool, err error) {
	var hreq *http.Request
	switch {
	case resume && res.JobID != "":
		res.Reconnects++
		hreq, err = http.NewRequestWithContext(ctx, http.MethodGet, c.url("/jobs/"+res.JobID+"/stream"), nil)
	default:
		path := "/optimize/stream"
		if opts.Resumable {
			path += "?job=1"
		}
		body, merr := json.Marshal(req)
		if merr != nil {
			return false, false, &TerminalError{Kind: "encode", Message: merr.Error()}
		}
		hreq, err = http.NewRequestWithContext(ctx, http.MethodPost, c.url(path), bytes.NewReader(body))
		if hreq != nil {
			hreq.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return false, false, &TerminalError{Kind: "request", Message: err.Error()}
	}
	hresp, err := c.httpClient().Do(hreq)
	if err != nil {
		return false, false, &retryableError{msg: fmt.Sprintf("transport: %v", err)}
	}
	defer hresp.Body.Close()

	if hresp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(hresp.Body, maxResponseBody))
		var out Response
		decodeErr := json.Unmarshal(raw, &out)
		out.Status = hresp.StatusCode
		switch hresp.StatusCode {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return false, false, &retryableError{
				msg:             fmt.Sprintf("server %d (%s): %s", hresp.StatusCode, out.Kind, out.Error),
				status:          hresp.StatusCode,
				retryAfter:      retryAfterOf(&out, hresp.Header, decodeErr == nil),
				degradeLevel:    out.DegradeLevel,
				journalDegraded: out.JournalDegraded || out.Kind == "journal_degraded",
			}
		case http.StatusNotFound:
			return false, false, &TerminalError{
				Status: hresp.StatusCode, Kind: "job",
				Message: "job unknown or expired on the server; resubmit the module",
			}
		default:
			if hresp.StatusCode >= 500 {
				return false, false, &retryableError{
					msg: fmt.Sprintf("server %d: %s", hresp.StatusCode, messageOf(&out, raw)), status: hresp.StatusCode,
				}
			}
			return false, false, &TerminalError{
				Status: hresp.StatusCode, Kind: kindOf(&out, "rejected"), Message: messageOf(&out, raw),
			}
		}
	}

	r := bufio.NewReader(hresp.Body)
	for {
		line, rerr := r.ReadBytes('\n')
		line = bytes.TrimSpace(line)
		if len(line) > 0 {
			fin, perr := c.consumeRecord(line, opts, res, items, &progressed)
			if perr != nil {
				return progressed, false, perr
			}
			if fin {
				return progressed, true, nil
			}
		}
		if rerr != nil {
			if rerr == io.EOF {
				// EOF before the trailer: cleanly closed but unfinished —
				// the caller decides between resume and giving up.
				return progressed, false, nil
			}
			return progressed, false, &retryableError{msg: fmt.Sprintf("stream read: %v", rerr)}
		}
	}
}

// consumeRecord dispatches one NDJSON line. It reports whether the
// record was a done trailer.
func (c *Client) consumeRecord(line []byte, opts StreamOptions, res *StreamResult, items map[int]StreamItem, progressed *bool) (bool, error) {
	var probe struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return false, &retryableError{msg: fmt.Sprintf("malformed stream record: %v", err)}
	}
	switch probe.Type {
	case "job":
		var m struct {
			ID        string `json:"id"`
			Functions int    `json:"functions"`
		}
		if err := json.Unmarshal(line, &m); err != nil {
			return false, &retryableError{msg: fmt.Sprintf("malformed job record: %v", err)}
		}
		if m.ID != "" {
			res.JobID = m.ID
		}
		res.Functions = m.Functions
	case "item":
		var it StreamItem
		if err := json.Unmarshal(line, &it); err != nil {
			return false, &retryableError{msg: fmt.Sprintf("malformed item record: %v", err)}
		}
		if _, dup := items[it.Index]; !dup {
			// Records already seen on a previous connection replay on
			// resume; indexes dedupe them.
			items[it.Index] = it
			*progressed = true
			if opts.OnItem != nil {
				opts.OnItem(it)
			}
		}
	case "trailer":
		var tr struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(line, &tr); err != nil {
			return false, &retryableError{msg: fmt.Sprintf("malformed trailer: %v", err)}
		}
		return tr.Done, nil
	case "heartbeat":
		// Keep-alive only.
	}
	return false, nil
}

// assemble builds the final result once the job is done: items sorted
// into module order, aggregates recounted, the module program joined.
func (c *Client) assemble(res *StreamResult, items map[int]StreamItem) (*StreamResult, error) {
	if res.Functions == 0 {
		res.Functions = len(items)
	}
	if len(items) != res.Functions {
		return nil, &TerminalError{Kind: "stream", Message: fmt.Sprintf(
			"job done with %d of %d items delivered (results may have expired server-side)", len(items), res.Functions)}
	}
	res.Items = make([]StreamItem, 0, len(items))
	for _, it := range items {
		res.Items = append(res.Items, it)
	}
	sort.Slice(res.Items, func(a, b int) bool { return res.Items[a].Index < res.Items[b].Index })
	parts := make([]string, 0, len(res.Items))
	for _, it := range res.Items {
		parts = append(parts, it.Program)
		switch {
		case it.Status == http.StatusOK && !it.FellBack && !it.Canceled:
			res.Optimized++
		case it.Status == http.StatusOK:
			res.FellBack++
		default:
			res.Failed++
		}
	}
	res.Program = strings.Join(parts, "\n")
	return res, nil
}
