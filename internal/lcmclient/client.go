// Package lcmclient is the hardened HTTP client for the lcmd
// optimization service. It implements the client half of the server's
// load-control contract: capped exponential backoff with deterministic
// jitter, honoring the server's Retry-After hints (millisecond-precise
// from the JSON body, second-precise from the header), a hard budget on
// total attempt time, context cancellation, and typed errors that let
// callers distinguish "this request can never succeed" from "the
// service was too busy for my budget".
package lcmclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Request is the wire shape of POST /optimize.
type Request struct {
	Program   string `json:"program"`
	Mode      string `json:"mode,omitempty"`
	Fuel      int    `json:"fuel,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	Verify    bool   `json:"verify,omitempty"`
	Canonical bool   `json:"canonical,omitempty"`
}

// Response is the wire shape of every /optimize outcome, plus the HTTP
// status it arrived with.
type Response struct {
	Program      string   `json:"program,omitempty"`
	Functions    int      `json:"functions,omitempty"`
	Applied      []string `json:"applied,omitempty"`
	FellBack     bool     `json:"fell_back,omitempty"`
	Canceled     bool     `json:"canceled,omitempty"`
	Diagnostics  []string `json:"diagnostics,omitempty"`
	Error        string   `json:"error,omitempty"`
	Kind         string   `json:"kind,omitempty"`
	Quarantined  string   `json:"quarantined,omitempty"`
	DegradeLevel int      `json:"degrade_level,omitempty"`
	RetryAfterMS int64    `json:"retry_after_ms,omitempty"`
	// JournalDegraded marks a refusal caused by the server quarantining
	// its disk tier: new resumable (?job=) submissions are off until the
	// disk probes healthy, while plain submissions still flow.
	JournalDegraded bool  `json:"journal_degraded,omitempty"`
	ElapsedMS       int64 `json:"elapsed_ms"`

	// Status is the HTTP status the response arrived with (not part of
	// the JSON body).
	Status int `json:"-"`
}

// TerminalError is a failure retrying cannot cure: the server
// classified the request itself as unserviceable (bad program, unknown
// mode, deadline the client chose). The zero Kind means the status code
// alone was terminal.
type TerminalError struct {
	Status  int
	Kind    string
	Message string
	// DegradeLevel is the degradation rung the server reported when it
	// rejected the request (0 when the body carried none) — how loaded
	// the service was while saying no.
	DegradeLevel int
	// JournalDegraded reports that the server refused because its disk
	// tier is quarantined (new resumable jobs off) — resubmitting
	// without ?job= may succeed immediately.
	JournalDegraded bool
}

func (e *TerminalError) Error() string {
	return fmt.Sprintf("lcmclient: terminal %d (%s): %s", e.Status, e.Kind, e.Message)
}

// ExhaustedError is a retryable failure that persisted past the
// client's attempt cap or time budget. Last is the final attempt's
// failure.
type ExhaustedError struct {
	Attempts       int
	Elapsed        time.Duration
	BudgetExceeded bool
	Last           error
	// RetryAfter is the server's final wait hint (0 when the last
	// failure carried none): when the service itself thinks capacity
	// returns, for callers scheduling their own retry.
	RetryAfter time.Duration
	// DegradeLevel is the last degradation rung the server reported
	// while refusing (0 when unknown).
	DegradeLevel int
	// JournalDegraded reports that the final refusal was the server
	// quarantining its disk tier (kind "journal_degraded"): resumable
	// submissions are off until its probe re-enables the disk, so
	// callers can fall back to a non-resumable submission instead of
	// blindly retrying ?job=.
	JournalDegraded bool
}

func (e *ExhaustedError) Error() string {
	reason := "attempt cap reached"
	if e.BudgetExceeded {
		reason = "retry budget exhausted"
	}
	return fmt.Sprintf("lcmclient: %s after %d attempt(s) in %v: %v", reason, e.Attempts, e.Elapsed, e.Last)
}

func (e *ExhaustedError) Unwrap() error { return e.Last }

// retryableError marks one failed attempt the retry loop may cure.
type retryableError struct {
	msg             string
	status          int           // HTTP status; 0 = transport-level failure
	retryAfter      time.Duration // server hint; 0 = none
	degradeLevel    int           // server degrade level; 0 = unknown/full
	journalDegraded bool          // refusal was the disk-quarantine 503
}

func (e *retryableError) Error() string { return e.msg }

// Defaults for the zero-value Client.
const (
	DefaultMaxAttempts = 4
	DefaultBaseBackoff = 100 * time.Millisecond
	DefaultMaxBackoff  = 5 * time.Second
	DefaultBudget      = 30 * time.Second
	maxResponseBody    = 8 << 20
)

// Client talks to one lcmd server. The zero value plus BaseURL is
// usable; fields tune the retry contract.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8657".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxAttempts caps how many times one Optimize call hits the wire.
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the exponential backoff used when
	// the server does not send a Retry-After hint.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Budget caps the total wall-clock of one Optimize call — attempts
	// plus waits. A wait that would overshoot the budget is not taken.
	Budget time.Duration

	// sleep is the wait primitive; tests swap it to observe or skip
	// waits. nil means a real context-aware sleep.
	sleep func(context.Context, time.Duration) error
}

func (c *Client) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return DefaultMaxAttempts
}

func (c *Client) budget() time.Duration {
	if c.Budget > 0 {
		return c.Budget
	}
	return DefaultBudget
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// url joins the server root and an endpoint path. A root given with a
// trailing slash would otherwise send "//optimize", which lcmd's router
// answers with a redirect that turns the POST into a GET.
func (c *Client) url(path string) string {
	return strings.TrimRight(c.BaseURL, "/") + path
}

func (c *Client) doSleep(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoff computes the wait before attempt+1: capped exponential with
// deterministic jitter in [0.5, 1.5), seeded from the request content
// and the attempt number — reproducible for one request, decorrelated
// across requests.
func (c *Client) backoff(attempt int, req Request) time.Duration {
	base, maxB := c.BaseBackoff, c.MaxBackoff
	if base <= 0 {
		base = DefaultBaseBackoff
	}
	if maxB <= 0 {
		maxB = DefaultMaxBackoff
	}
	d := base << uint(attempt-1)
	if d > maxB || d <= 0 { // <= 0 guards shift overflow
		d = maxB
	}
	h := fnv.New64a()
	io.WriteString(h, req.Program)
	io.WriteString(h, "\x00")
	io.WriteString(h, req.Mode)
	fmt.Fprintf(h, "\x00%d", attempt)
	frac := float64(h.Sum64()>>40) / float64(uint64(1)<<24) // [0, 1)
	return time.Duration(float64(d) * (0.5 + frac))
}

// Optimize submits one program and retries retryable failures (429,
// 503, 5xx, network errors, malformed response bodies) until success,
// a terminal classification, the attempt cap, the time budget, or
// context cancellation — whichever comes first.
func (c *Client) Optimize(ctx context.Context, req Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	deadline := start.Add(c.budget())
	attempts := c.maxAttempts()
	var last error
	for attempt := 1; ; attempt++ {
		resp, err := c.post(ctx, req)
		if err == nil {
			return resp, nil
		}
		var term *TerminalError
		if errors.As(err, &term) {
			return nil, err
		}
		if ctx.Err() != nil {
			// The caller's context died (possibly mid-request); report
			// the cancellation, not the wire noise it caused.
			return nil, ctx.Err()
		}
		last = err
		if attempt >= attempts {
			return nil, exhausted(attempt, start, false, last)
		}
		wait := c.backoff(attempt, req)
		var re *retryableError
		if errors.As(err, &re) && re.retryAfter > 0 {
			// The server said when capacity returns; trust it over the
			// client-side guess.
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

// exhausted builds the ExhaustedError for a given-up retry loop,
// lifting the server's last hint and degrade level out of the final
// retryable failure so callers see them without unwrapping.
func exhausted(attempts int, start time.Time, budget bool, last error) *ExhaustedError {
	e := &ExhaustedError{Attempts: attempts, Elapsed: time.Since(start), BudgetExceeded: budget, Last: last}
	var re *retryableError
	if errors.As(last, &re) {
		e.RetryAfter = re.retryAfter
		e.DegradeLevel = re.degradeLevel
		e.JournalDegraded = re.journalDegraded
	}
	return e
}

// post runs one wire attempt and classifies its outcome.
func (c *Client) post(ctx context.Context, req Request) (*Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, &TerminalError{Kind: "encode", Message: err.Error()}
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("/optimize"), bytes.NewReader(body))
	if err != nil {
		return nil, &TerminalError{Kind: "request", Message: err.Error()}
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.httpClient().Do(hreq)
	if err != nil {
		// Connection refused, reset, timeout — the transport layer is
		// exactly what overload makes flaky, so it is always retryable.
		return nil, &retryableError{msg: fmt.Sprintf("transport: %v", err)}
	}
	defer hresp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(hresp.Body, maxResponseBody))
	if err != nil {
		return nil, &retryableError{msg: fmt.Sprintf("reading response: %v", err)}
	}
	var out Response
	decodeErr := json.Unmarshal(raw, &out)
	out.Status = hresp.StatusCode

	switch {
	case hresp.StatusCode == http.StatusOK:
		if decodeErr != nil {
			// A 200 with a body we cannot parse is indistinguishable
			// from a truncated or garbled reply: retry, never trust it.
			return nil, &retryableError{msg: fmt.Sprintf("malformed 200 body: %v", decodeErr)}
		}
		return &out, nil
	case hresp.StatusCode == http.StatusTooManyRequests,
		hresp.StatusCode == http.StatusServiceUnavailable:
		return nil, &retryableError{
			msg:             fmt.Sprintf("server %d (%s): %s", hresp.StatusCode, out.Kind, out.Error),
			status:          hresp.StatusCode,
			retryAfter:      retryAfterOf(&out, hresp.Header, decodeErr == nil),
			degradeLevel:    out.DegradeLevel,
			journalDegraded: out.JournalDegraded || out.Kind == "journal_degraded",
		}
	case hresp.StatusCode == http.StatusGatewayTimeout:
		// The request's own deadline expired server-side; retrying the
		// same deadline re-runs the same failure.
		return nil, &TerminalError{
			Status: hresp.StatusCode, Kind: kindOf(&out, "deadline"),
			Message: messageOf(&out, raw), DegradeLevel: out.DegradeLevel,
		}
	case hresp.StatusCode >= 500:
		// 500s cover contained panics and infrastructure hiccups; both
		// can be transient, and the attempt cap bounds the optimism.
		return nil, &retryableError{
			msg:          fmt.Sprintf("server %d (%s): %s", hresp.StatusCode, out.Kind, messageOf(&out, raw)),
			status:       hresp.StatusCode,
			degradeLevel: out.DegradeLevel,
		}
	default:
		// 4xx: the request itself is unserviceable.
		return nil, &TerminalError{
			Status: hresp.StatusCode, Kind: kindOf(&out, "rejected"),
			Message: messageOf(&out, raw), DegradeLevel: out.DegradeLevel,
			JournalDegraded: out.JournalDegraded,
		}
	}
}

func kindOf(out *Response, fallback string) string {
	if out.Kind != "" {
		return out.Kind
	}
	return fallback
}

func messageOf(out *Response, raw []byte) string {
	if out.Error != "" {
		return out.Error
	}
	if len(raw) > 200 {
		raw = raw[:200]
	}
	return string(raw)
}

// retryAfterOf extracts the server's wait hint: the millisecond-precise
// JSON field when the body parsed, else the whole-second Retry-After
// header.
func retryAfterOf(out *Response, h http.Header, bodyOK bool) time.Duration {
	if bodyOK && out.RetryAfterMS > 0 {
		return time.Duration(out.RetryAfterMS) * time.Millisecond
	}
	if s := h.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}
