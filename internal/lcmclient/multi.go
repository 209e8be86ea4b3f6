package lcmclient

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"lazycm/internal/fleet"
)

// MultiClient talks to a fleet of lcmd endpoints directly, without a
// gateway in front. It carries the client half of the fleet routing
// story: requests prefer their consistent-hash owner (cache affinity),
// a per-endpoint circuit breaker takes dead endpoints out of rotation,
// and failed attempts rotate to the next replica. Safe because every
// endpoint computes byte-identical results — whichever replica answers
// is the answer.
//
// The zero value plus Endpoints is usable. MultiClient is safe for
// concurrent use after the first call.
type MultiClient struct {
	// Endpoints are the lcmd base URLs. At least one is required.
	Endpoints []string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxAttempts caps wire attempts per Optimize call, counted across
	// endpoints.
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the between-rounds backoff, as in
	// Client.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Budget caps one Optimize call's total wall-clock.
	Budget time.Duration
	// Breaker tunes the per-endpoint circuit breakers.
	Breaker fleet.BreakerConfig

	initOnce sync.Once
	ring     *fleet.Ring
	clients  map[string]*Client
	breakers map[string]*fleet.Breaker

	// sleep is the wait primitive; tests swap it.
	sleep func(context.Context, time.Duration) error
}

func (m *MultiClient) init() {
	m.initOnce.Do(func() {
		m.ring = fleet.NewRing(0)
		m.clients = make(map[string]*Client, len(m.Endpoints))
		m.breakers = make(map[string]*fleet.Breaker, len(m.Endpoints))
		for _, ep := range m.Endpoints {
			if _, dup := m.clients[ep]; dup {
				continue
			}
			m.ring.Add(ep)
			m.clients[ep] = &Client{BaseURL: ep, HTTPClient: m.HTTPClient}
			m.breakers[ep] = fleet.NewBreaker(m.Breaker)
		}
	})
}

// BreakerState reports the breaker state for one endpoint (Closed for
// unknown endpoints).
func (m *MultiClient) BreakerState(endpoint string) fleet.BreakerState {
	m.init()
	if b, ok := m.breakers[endpoint]; ok {
		return b.State()
	}
	return fleet.BreakerClosed
}

func (m *MultiClient) maxAttempts() int {
	if m.MaxAttempts > 0 {
		return m.MaxAttempts
	}
	return DefaultMaxAttempts
}

func (m *MultiClient) budget() time.Duration {
	if m.Budget > 0 {
		return m.Budget
	}
	return DefaultBudget
}

func (m *MultiClient) doSleep(ctx context.Context, d time.Duration) error {
	if m.sleep != nil {
		return m.sleep(ctx, d)
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

// Optimize submits one program to the fleet, retrying across replicas
// until success, a terminal classification, the attempt cap, the
// budget, or cancellation. Endpoint order is the request's consistent-
// hash placement, so replays of the same program keep hitting the same
// (cache-warm) endpoint while it stays healthy.
func (m *MultiClient) Optimize(ctx context.Context, req Request) (*Response, error) {
	m.init()
	if len(m.clients) == 0 {
		return nil, &TerminalError{Kind: "config", Message: "no endpoints configured"}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	order := m.ring.Pick(fleet.KeyOf("/optimize", req.Program, req.Mode), m.ring.Len())
	start := time.Now()
	deadline := start.Add(m.budget())
	attempts := m.maxAttempts()
	var last error
	for attempt := 1; ; attempt++ {
		resp, err := m.round(ctx, order, req, attempt)
		if err == nil {
			return resp, nil
		}
		var term *TerminalError
		if errors.As(err, &term) {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		last = err
		if attempt >= attempts {
			return nil, exhausted(attempt, start, false, last)
		}
		wait := backoffDur(m.BaseBackoff, m.MaxBackoff, attempt, req)
		var re *retryableError
		if errors.As(err, &re) && re.retryAfter > 0 {
			wait = re.retryAfter
		}
		if time.Now().Add(wait).After(deadline) {
			return nil, exhausted(attempt, start, true, last)
		}
		if err := m.doSleep(ctx, wait); err != nil {
			return nil, err
		}
	}
}

// round makes one routed attempt. Open breakers whose cooldown has
// elapsed get first claim — their Allow admits the request as the
// half-open probe, which is how the client discovers recovery without
// dedicated health traffic. Otherwise the attempt number rotates
// through the non-open replicas (attempt 1 is the hash owner, attempt
// 2 the next replica, …).
func (m *MultiClient) round(ctx context.Context, order []string, req Request, attempt int) (*Response, error) {
	for _, ep := range order {
		br := m.breakers[ep]
		if br.State() == fleet.BreakerOpen && br.Allow() {
			// Admitted as the half-open probe; attempt() must not call
			// Allow again or it would refuse its own admission.
			return m.attempt(ctx, ep, req, false)
		}
	}
	var candidates []string
	for _, ep := range order {
		if m.breakers[ep].State() != fleet.BreakerOpen {
			candidates = append(candidates, ep)
		}
	}
	if len(candidates) == 0 {
		return nil, &retryableError{msg: "all endpoint breakers open"}
	}
	return m.attempt(ctx, candidates[(attempt-1)%len(candidates)], req, true)
}

// attempt runs one wire call against one endpoint and feeds its
// breaker. An answered request — success, shed, or terminal — proves
// the endpoint alive; transport failures and 5xx count against it; a
// result that arrives after the caller hung up teaches nothing.
func (m *MultiClient) attempt(ctx context.Context, ep string, req Request, gate bool) (*Response, error) {
	br := m.breakers[ep]
	if gate && !br.Allow() {
		return nil, &retryableError{msg: fmt.Sprintf("endpoint %s: breaker open", ep)}
	}
	resp, err := m.clients[ep].post(ctx, req)
	if ctx.Err() != nil && err != nil {
		// Our own cancellation, not the endpoint's fault: don't teach
		// the breaker anything.
		return nil, &retryableError{msg: fmt.Sprintf("endpoint %s: %v", ep, ctx.Err())}
	}
	switch e := err.(type) {
	case nil:
		br.Record(true)
		return resp, nil
	case *retryableError:
		// A shed (429/503) is an answer from a live endpoint; transport
		// errors (status 0) and 5xx are the outage signals.
		br.Record(e.status == http.StatusTooManyRequests || e.status == http.StatusServiceUnavailable)
	case *TerminalError:
		br.Record(true)
	}
	if err != nil {
		err = fmt.Errorf("endpoint %s: %w", ep, err)
	}
	return nil, err
}
