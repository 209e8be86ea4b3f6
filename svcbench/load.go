package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lazycm/internal/textir"
)

// result is one request's outcome as the load generator saw it.
type result struct {
	due, sent, end time.Time
	firstItem      time.Duration // streams: send to first NDJSON item
	outs           []string      // served function texts, module order
	err            string        // non-empty: the request failed
}

// latency is the request's time on the loop's clock: from its due time
// in an open loop (which is its send time in a closed one) to the end.
func (r *result) latency() time.Duration { return r.end.Sub(r.due) }

// lag is how late the generator sent the request.
func (r *result) lag() time.Duration { return r.sent.Sub(r.due) }

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 2 * time.Minute,
	}
}

// send posts one request and decodes the served functions. Any non-2xx,
// shed, deadline, fallback or per-item failure makes res.err non-empty.
func send(c *http.Client, base string, req *request, res *result) {
	res.sent = time.Now()
	if res.due.IsZero() {
		res.due = res.sent
	}
	defer func() { res.end = time.Now() }()
	resp, err := c.Post(base+req.path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		res.err = err.Error()
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		res.err = fmt.Sprintf("status %d: %.200s", resp.StatusCode, b)
		return
	}
	if req.path == pathStream {
		res.outs, res.err = readStream(resp.Body, len(req.fns), func() {
			res.firstItem = time.Since(res.sent)
		})
		return
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		res.err = err.Error()
		return
	}
	res.outs, res.err = decodeBody(req.path, body, len(req.fns))
}

// served is the per-function shape shared by /optimize responses, batch
// results and stream items.
type served struct {
	Index    int    `json:"index"`
	Status   int    `json:"status"`
	Program  string `json:"program"`
	FellBack bool   `json:"fell_back"`
	Canceled bool   `json:"canceled"`
	Error    string `json:"error"`
	Kind     string `json:"kind"`
}

func (s *served) failure() string {
	switch {
	case s.FellBack:
		return "fell back: " + s.Error
	case s.Canceled:
		return "canceled: " + s.Error
	case s.Error != "":
		return s.Kind + ": " + s.Error
	}
	return ""
}

// decodeBody extracts the n served functions of an /optimize or
// /optimize/batch response.
func decodeBody(path string, body []byte, n int) ([]string, string) {
	if path == pathBatch {
		var b struct {
			Results []served `json:"results"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, "decoding batch: " + err.Error()
		}
		if len(b.Results) != n {
			return nil, fmt.Sprintf("batch answered %d of %d functions", len(b.Results), n)
		}
		outs := make([]string, n)
		for i, it := range b.Results {
			if it.Status != http.StatusOK {
				return nil, fmt.Sprintf("item %d status %d", i, it.Status)
			}
			if f := it.failure(); f != "" {
				return nil, fmt.Sprintf("item %d %s", i, f)
			}
			outs[i] = it.Program
		}
		return outs, ""
	}
	var s served
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, "decoding response: " + err.Error()
	}
	if f := s.failure(); f != "" {
		return nil, f
	}
	outs, err := textir.SplitFunctions(s.Program)
	if err != nil {
		return nil, "served program does not split: " + err.Error()
	}
	if len(outs) != n {
		return nil, fmt.Sprintf("served %d of %d functions", len(outs), n)
	}
	return outs, ""
}

// readStream reads an NDJSON stream to its trailer, calling first when
// the first item arrives.
func readStream(r io.Reader, n int, first func()) ([]string, string) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	outs := make([]string, n)
	items := 0
	for sc.Scan() {
		// The trailer's counters reuse item field names with other types,
		// so the record type is read first.
		var rec struct {
			Type string `json:"type"`
			Done bool   `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, "decoding stream record: " + err.Error()
		}
		switch rec.Type {
		case "item":
			var s served
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				return nil, "decoding stream item: " + err.Error()
			}
			if items == 0 {
				first()
			}
			items++
			if s.Index < 0 || s.Index >= n {
				return nil, fmt.Sprintf("stream item index %d of %d", s.Index, n)
			}
			if s.Status != http.StatusOK {
				return nil, fmt.Sprintf("stream item %d status %d", s.Index, s.Status)
			}
			if f := s.failure(); f != "" {
				return nil, fmt.Sprintf("stream item %d %s", s.Index, f)
			}
			outs[s.Index] = s.Program
		case "trailer":
			if !rec.Done || items != n {
				return nil, fmt.Sprintf("stream trailer done=%v after %d of %d items", rec.Done, items, n)
			}
			return outs, ""
		}
	}
	if err := sc.Err(); err != nil {
		return nil, "reading stream: " + err.Error()
	}
	return nil, "stream ended without a trailer"
}

// closedLoop runs clients senders, each sending its next request as soon
// as its previous one completes, until reqs run out or the window ends.
// after, when non-nil, runs on the sender once each request completes,
// before that sender's next request. Unsent requests stay nil.
func closedLoop(c *http.Client, base string, reqs []*request, clients int, window time.Duration, after func(i int, res *result)) []*result {
	results := make([]*result, len(reqs))
	stop := time.Now().Add(window)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				res := &result{}
				send(c, base, reqs[i], res)
				results[i] = res
				if after != nil {
					after(i, res)
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// openLoop sends reqs on a fixed schedule, request i due at start +
// i/rate, over conns senders, whether or not earlier requests have
// completed. A request waits for a free sender past its due time, and
// its latency counts from the due time, so a stall shows in every
// request queued behind it.
func openLoop(c *http.Client, base string, reqs []*request, rate float64, conns int) []*result {
	results := make([]*result, len(reqs))
	due := make(chan int, len(reqs)) // sized to every send: the schedule never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				send(c, base, reqs[i], results[i])
			}
		}()
	}
	start := time.Now()
	for i := range reqs {
		at := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		results[i] = &result{due: at}
		time.Sleep(time.Until(at))
		due <- i
	}
	close(due)
	wg.Wait()
	return results
}

// completed returns the results of the requests that were sent.
func completed(results []*result) []*result {
	var out []*result
	for _, r := range results {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// windowOf returns the wall time from the first send (or due time) to the
// last completion.
func windowOf(results []*result) time.Duration {
	var first, last time.Time
	for _, r := range results {
		if first.IsZero() || r.due.Before(first) {
			first = r.due
		}
		if r.end.After(last) {
			last = r.end
		}
	}
	return last.Sub(first)
}

// describe summarizes the first few failures for stderr.
func describe(errs []string) string {
	if len(errs) > 3 {
		errs = append(errs[:3:3], fmt.Sprintf("and %d more", len(errs)-3))
	}
	return strings.Join(errs, "; ")
}
