package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lazycm/internal/fleet"
	"lazycm/internal/overload"
)

// Config tunes the fleet gateway.
type Config struct {
	// Backends is the set of lcmd base URLs the gateway routes across.
	// At least one is required.
	Backends []string
	// AttemptTimeout bounds one backend attempt, so a partitioned
	// backend costs one timeout, not the whole request budget. 0 means
	// DefaultAttemptTimeout.
	AttemptTimeout time.Duration
	// Timeout bounds one proxied request end to end, across every
	// failover attempt. 0 means DefaultTimeout.
	Timeout time.Duration
	// HealthInterval is the /readyz polling period per backend; 0 means
	// DefaultHealthInterval, negative disables polling (tests drive
	// breakers through traffic alone).
	HealthInterval time.Duration
	// Breaker tunes the per-backend circuit breakers. lcmgate runs the
	// zero value, fleet's default; tests and soaks shrink it.
	Breaker fleet.BreakerConfig
	// AccessLog, when non-nil, receives one line per routing event
	// (attempts, failovers, breaker skips, sheds, dedupe joins) — the
	// audit trail the fleet soak and CI artifacts read.
	AccessLog io.Writer
	// Transport overrides the outbound round tripper; nil means
	// http.DefaultTransport.
	Transport http.RoundTripper
}

const (
	// DefaultTimeout is the end-to-end budget for one proxied request.
	DefaultTimeout = 10 * time.Second
	// streamTimeout bounds one proxied NDJSON stream end to end.
	// Streams are long-lived by design (heartbeats keep them open while
	// a large job computes), so this is generous where Timeout is tight.
	streamTimeout = 5 * time.Minute
	// DefaultAttemptTimeout is the per-backend attempt budget.
	DefaultAttemptTimeout = 2 * time.Second
	// DefaultHealthInterval is the /readyz polling period.
	DefaultHealthInterval = 500 * time.Millisecond
	// loadFactor is the bounded-load placement factor: a backend stops
	// receiving new placements while its in-flight count exceeds
	// loadFactor × the fleet average.
	loadFactor = 1.25
	// maxBody mirrors the backend's request-body cap so the gateway
	// rejects oversized programs without spending a backend slot.
	maxBody = 4 << 20
	// maxRespBody bounds what the gateway buffers from a backend.
	maxRespBody = 8 << 20
)

func (c Config) withDefaults() Config {
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = DefaultAttemptTimeout
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = DefaultHealthInterval
	}
	return c
}

// backend is the gateway's view of one lcmd node: its breaker, its
// load, and what the health poller last learned about it.
type backend struct {
	id      string
	breaker *fleet.Breaker

	inflight  atomic.Int64
	routed    atomic.Int64 // proxied attempts dispatched (health probes excluded)
	succeeded atomic.Int64 // attempts the backend answered (any non-5xx status)
	failed    atomic.Int64 // transport errors and 5xx answers
	probes    atomic.Int64 // health probes sent
	ready     atomic.Bool
	degrade   atomic.Int32 // degrade_level from the last readiness probe

	// probeDecodeErrors counts probes whose /readyz body did not decode
	// (garbled, or cut by the read limit); gauges then keeps the last
	// good snapshot.
	probeDecodeErrors atomic.Int64

	// gauges is the backend's last decoded /readyz body minus the keys
	// the gateway acts on (ready, draining, degrade_level). The gateway
	// never acts on a gauge, so it names none: it reports the snapshot
	// per backend and folds it into the fleet view as it is. nil until a
	// probe decodes; a stored map is never written again.
	gauges atomic.Pointer[map[string]any]

	// gone closes when the backend leaves the fleet, stopping its
	// health loop without touching the gateway-wide stop channel.
	gone chan struct{}
}

// Gateway consistent-hashes optimization requests across a fleet of
// lcmd backends. Placement buys cache affinity only — every backend
// computes byte-identical results — so the gateway's whole job is to
// keep that placement cheap to violate: failover walks the ring's
// replica order when a breaker is open or an attempt fails, identical
// in-flight requests collapse into one backend slot, and when nothing
// can serve, the client gets the same explicit 503 + Retry-After
// contract a single node would give it.
type Gateway struct {
	cfg    Config
	client *http.Client
	logger *log.Logger
	start  time.Time

	// mu guards the membership view: ring, backends, ids, draining.
	// Reload swaps members under the write lock; every routing decision
	// snapshots under the read lock, so a reload mid-request can at
	// worst make one failover attempt find its backend gone — never a
	// torn view, never a hang.
	mu       sync.RWMutex
	ring     *fleet.Ring
	backends map[string]*backend
	ids      []string // sorted, for stable reporting
	// draining holds removed backends still finishing in-flight work.
	// They receive no new placements (they left the ring and the map)
	// and are reaped once their inflight gauge touches zero.
	draining map[string]*backend

	stop chan struct{}
	wg   sync.WaitGroup

	flightMu sync.Mutex
	flight   map[string]*call

	received      atomic.Int64 // proxied requests accepted for routing
	dedupeJoins   atomic.Int64 // requests served by joining an identical in-flight one
	failovers     atomic.Int64 // failed attempts that moved on to another replica
	shed          atomic.Int64 // gateway-generated 503s (no backend could serve)
	streams       atomic.Int64 // NDJSON streams proxied (unbuffered pass-through)
	reloads       atomic.Int64 // membership reloads applied
	totalInflight atomic.Int64
	lastRetryMS   atomic.Int64
}

// call is one in-flight deduplicated request. done closes once res is
// set; every joiner replays the same bytes.
type call struct {
	done chan struct{}
	res  *proxyResult
}

// proxyResult is one routed outcome: the backend's response verbatim,
// or a gateway-generated rejection.
type proxyResult struct {
	status int
	header http.Header // Content-Type and Retry-After only
	body   []byte
}

// NewGateway builds the router and starts its health pollers.
func NewGateway(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("lcmgate: no backends configured")
	}
	g := &Gateway{
		cfg:      cfg,
		ring:     fleet.NewRing(),
		backends: make(map[string]*backend, len(cfg.Backends)),
		draining: make(map[string]*backend),
		client:   &http.Client{Transport: cfg.Transport},
		start:    time.Now(),
		stop:     make(chan struct{}),
		flight:   make(map[string]*call),
	}
	if cfg.AccessLog != nil {
		g.logger = log.New(cfg.AccessLog, "", log.Lmicroseconds)
	}
	for _, id := range cfg.Backends {
		if _, dup := g.backends[id]; dup {
			return nil, fmt.Errorf("lcmgate: duplicate backend %q", id)
		}
		g.admitLocked(id)
	}
	return g, nil
}

// admitLocked adds one backend to the live membership: fresh breaker
// (no history carried over from any earlier life), optimistic readiness,
// a ring slot, and its own health loop. Caller holds g.mu (or is the
// constructor, before the gateway is shared).
func (g *Gateway) admitLocked(id string) {
	b := &backend{id: id, breaker: fleet.NewBreaker(g.cfg.Breaker), gone: make(chan struct{})}
	b.ready.Store(true) // optimistic until the first probe says otherwise
	g.backends[id] = b
	g.ring.Add(id)
	g.ids = append(g.ids, id)
	sort.Strings(g.ids)
	if g.cfg.HealthInterval > 0 {
		g.wg.Add(1)
		go g.healthLoop(b)
	}
}

// Reload swaps the fleet membership to exactly backends, moving as few
// keys as possible: surviving members keep their ring slots, breakers,
// and counters untouched, so only ~1/N of placements move per change.
// Removed backends stop receiving new work immediately but keep their
// in-flight requests, which finish normally while the backend drains in
// the background. Added backends start with a fresh breaker. Safe to
// call at any time under live traffic.
func (g *Gateway) Reload(backends []string) error {
	next := make(map[string]bool, len(backends))
	for _, id := range backends {
		if id == "" {
			continue
		}
		if next[id] {
			return fmt.Errorf("lcmgate: duplicate backend %q", id)
		}
		next[id] = true
	}
	if len(next) == 0 {
		return fmt.Errorf("lcmgate: reload to an empty fleet refused")
	}

	g.mu.Lock()
	var added, removed []string
	for id := range next {
		if _, ok := g.backends[id]; !ok {
			added = append(added, id)
		}
	}
	for id := range g.backends {
		if !next[id] {
			removed = append(removed, id)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	for _, id := range removed {
		b := g.backends[id]
		close(b.gone)
		delete(g.backends, id)
		g.ring.Remove(id)
		g.draining[id] = b
		g.wg.Add(1)
		go g.drain(b)
	}
	for _, id := range added {
		// A backend re-added while its previous life is still draining
		// gets a brand-new identity; the old struct finishes its
		// in-flight work and is reaped independently.
		g.admitLocked(id)
	}
	if len(removed) > 0 {
		g.ids = g.ids[:0]
		for id := range g.backends {
			g.ids = append(g.ids, id)
		}
		sort.Strings(g.ids)
	}
	g.mu.Unlock()

	g.reloads.Add(1)
	g.logf("reload members=%d added=%v removed=%v", len(next), added, removed)
	return nil
}

// drain waits for a removed backend's in-flight requests to finish,
// then forgets it. Bounded by the end-to-end request budget (plus
// slack): nothing can legitimately be in flight longer than that, so
// the wait cannot leak even if a gauge were to misbehave.
func (g *Gateway) drain(b *backend) {
	defer g.wg.Done()
	deadline := time.NewTimer(2 * g.cfg.Timeout)
	defer deadline.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for b.inflight.Load() > 0 {
		select {
		case <-tick.C:
		case <-deadline.C:
			g.logf("drain backend=%s abandoned inflight=%d", b.id, b.inflight.Load())
			b.inflight.Store(0)
		case <-g.stop:
			return
		}
	}
	g.mu.Lock()
	if g.draining[b.id] == b {
		delete(g.draining, b.id)
	}
	g.mu.Unlock()
	g.logf("drain backend=%s complete", b.id)
}

// Close stops the health pollers. In-flight proxied requests are owned
// by their handlers and finish on their own deadlines.
func (g *Gateway) Close() {
	close(g.stop)
	g.wg.Wait()
}

// Handler returns the HTTP surface: the two proxied optimization
// endpoints plus the gateway's own health and readiness probes.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /optimize", g.handleProxy)
	mux.HandleFunc("POST /optimize/batch", g.handleProxy)
	mux.HandleFunc("POST /optimize/stream", g.handleStreamProxy)
	mux.HandleFunc("GET /jobs/{id}", g.handleJobProxy)
	mux.HandleFunc("GET /jobs/{id}/stream", g.handleStreamProxy)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	mux.HandleFunc("POST /admin/reload", g.handleReload)
	return mux
}

// handleReload applies a membership change over HTTP: the same
// operation the SIGHUP path performs, for orchestrators that prefer an
// API to a signal. Body: {"backends": ["http://...", ...]}.
func (g *Gateway) handleReload(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Backends []string `json:"backends"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeGateJSON(w, http.StatusBadRequest, map[string]any{
			"error": fmt.Sprintf("decoding reload request: %v", err), "kind": "parse",
		})
		return
	}
	if err := g.Reload(req.Backends); err != nil {
		writeGateJSON(w, http.StatusBadRequest, map[string]any{
			"error": err.Error(), "kind": "reload",
		})
		return
	}
	g.mu.RLock()
	members := append([]string(nil), g.ids...)
	g.mu.RUnlock()
	writeGateJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"backends": members,
		"reloads":  g.reloads.Load(),
	})
}

func (g *Gateway) logf(format string, args ...any) {
	if g.logger != nil {
		g.logger.Printf(format, args...)
	}
}

// requestKey hashes a request's routing identity — path plus raw body —
// into the ring key (64-bit) and the single-flight key (128-bit hex).
// Routing on content is what makes placement deterministic across
// gateway replicas and retries; the wider single-flight key keeps a
// ring collision from ever serving one program's bytes for another.
func requestKey(path string, body []byte) (uint64, string) {
	h := sha256.New()
	io.WriteString(h, path)
	h.Write([]byte{0})
	h.Write(body)
	sum := h.Sum(nil)
	return binary.BigEndian.Uint64(sum[:8]), hex.EncodeToString(sum[:16])
}

func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		writeGateJSON(w, http.StatusBadRequest, map[string]any{
			"error": fmt.Sprintf("reading request body: %v", err), "kind": "parse",
		})
		return
	}
	g.received.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.Timeout)
	defer cancel()

	// Placement hashes path and body only, so a module's plain and ?job=
	// forms share one home backend. The query still reaches the backend,
	// and it splits single-flight: a ?job= answer carries a job_id that
	// a plain one does not.
	ringKey, flightKey := requestKey(r.URL.Path, body)
	res := g.deduped(ctx, r.URL.RequestURI(), body, ringKey, flightKey+"?"+r.URL.RawQuery)
	writeProxyResult(w, res)
}

func writeProxyResult(w http.ResponseWriter, res *proxyResult) {
	passHeaders(res.header, w.Header())
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// handleJobProxy is GET /jobs/{id}: a buffered proxy with 404 failover.
// A job's ID is derived from the module bytes the gateway may never have
// seen (it cannot recompute the ring position), and the job lives only
// on the backend that admitted it — so the proxy walks the replica order
// for the path and treats a 404 as one replica saying "not mine" until
// every live backend has answered.
func (g *Gateway) handleJobProxy(w http.ResponseWriter, r *http.Request) {
	g.received.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.Timeout)
	defer cancel()
	key, _ := requestKey(r.URL.Path, nil)
	writeProxyResult(w, g.route(ctx, nil, http.MethodGet, r.URL.Path, nil, key))
}

// handleStreamProxy proxies POST /optimize/stream and GET
// /jobs/{id}/stream without buffering: response bytes are copied to the
// client chunk by chunk with a flush after each, so per-item records and
// heartbeats arrive as the backend emits them. Streams are not deduped —
// every consumer needs its own connection — and failover is possible
// only before the first response byte reaches the client: once bytes
// are through, a mid-stream backend death simply ends the response and
// the client resumes by job ID (which is the whole point of the job
// layer; the gateway must not buy false continuity by buffering).
func (g *Gateway) handleStreamProxy(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Method == http.MethodPost {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			writeGateJSON(w, http.StatusBadRequest, map[string]any{
				"error": fmt.Sprintf("reading request body: %v", err), "kind": "parse",
			})
			return
		}
	}
	g.received.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), streamTimeout)
	defer cancel()
	key, _ := requestKey(r.URL.Path, body)
	if res := g.route(ctx, w, r.Method, r.URL.RequestURI(), body, key); res != nil {
		writeProxyResult(w, res)
	}
}

// deduped collapses identical in-flight requests into one backend call:
// the first arrival routes, everyone else joins and replays the same
// bytes. Sound because results are content-addressed — the response is
// a pure function of the body being hashed — and clean for rejections
// too: a shed answer with its Retry-After is exactly what every member
// of a thundering herd should hear.
func (g *Gateway) deduped(ctx context.Context, path string, body []byte, ringKey uint64, flightKey string) *proxyResult {
	g.flightMu.Lock()
	if c, ok := g.flight[flightKey]; ok {
		g.flightMu.Unlock()
		g.dedupeJoins.Add(1)
		g.logf("join key=%016x", ringKey)
		select {
		case <-c.done:
			return c.res
		case <-ctx.Done():
			// The joiner's own budget died while the leader was still
			// working; answer for ourselves instead of waiting forever.
			return g.shedResult(ringKey, fmt.Sprintf("abandoned while joined to an in-flight request: %v", ctx.Err()))
		}
	}
	c := &call{done: make(chan struct{})}
	g.flight[flightKey] = c
	g.flightMu.Unlock()

	c.res = g.route(ctx, nil, http.MethodPost, path, body, ringKey)

	g.flightMu.Lock()
	delete(g.flight, flightKey)
	g.flightMu.Unlock()
	close(c.done)
	return c.res
}

// route walks the ring's replica order for the key and returns the
// first answer a backend produces. Two passes: the first respects every
// routing signal (readiness, degrade level, bounded load, breaker); the
// second is the last resort — any backend whose breaker admits — so a
// uniformly degraded fleet still gets to say its own explicit 429/503
// rather than having the gateway guess. If nothing answers, the gateway
// sheds with its own 503 + Retry-After. With a non-nil w the walk
// serves a stream: a 200 is copied to w as it arrives and route returns
// nil; every other answer comes back buffered, as it does for a nil w.
func (g *Gateway) route(ctx context.Context, w http.ResponseWriter, method, path string, body []byte, key uint64) *proxyResult {
	prefs, members := g.replicaOrder(key)
	tried := make(map[string]bool, len(prefs))
	lastFailure := "no backend attempted"
	var notFound *proxyResult
	for pass := 0; pass < 2; pass++ {
		for _, b := range prefs {
			id := b.id
			if ctx.Err() != nil {
				return g.shedResult(key, fmt.Sprintf("request budget exhausted during failover: %v", ctx.Err()))
			}
			if tried[id] {
				continue
			}
			if pass == 0 {
				if !b.ready.Load() || b.degrade.Load() >= int32(overload.LevelShed) {
					g.logf("skip key=%016x backend=%s reason=not-ready degrade=%d", key, id, b.degrade.Load())
					continue
				}
				if !fleet.WithinBound(b.inflight.Load(), g.totalInflight.Load(), members, loadFactor) {
					g.logf("skip key=%016x backend=%s reason=over-bound inflight=%d", key, id, b.inflight.Load())
					continue
				}
			}
			if !b.breaker.Allow() {
				g.logf("skip key=%016x backend=%s reason=breaker-open", key, id)
				continue
			}
			tried[id] = true
			res, err := g.attempt(ctx, w, b, method, path, body, key)
			if err == nil {
				if res == nil {
					return nil // streamed to w
				}
				// A job lives only on the backend that admitted it, so a GET
				// 404 is one replica saying "not mine" — keep walking and
				// return this answer only if every replica agrees.
				if method == http.MethodGet && res.status == http.StatusNotFound {
					notFound = res
					g.logf("job-miss key=%016x backend=%s", key, id)
					continue
				}
				return res
			}
			lastFailure = err.Error()
			g.failovers.Add(1)
			g.logf("failover key=%016x backend=%s err=%q", key, id, err)
		}
	}
	if notFound != nil {
		return notFound
	}
	return g.shedResult(key, lastFailure)
}

// replicaOrder snapshots the ring's replica preference for key under the
// membership lock: the routing loop then works on stable *backend
// pointers, untouched by a concurrent Reload. A backend removed
// mid-route still answers the attempt it was already given — exactly
// the drain contract.
func (g *Gateway) replicaOrder(key uint64) ([]*backend, int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ids := g.ring.Pick(key, g.ring.Len())
	prefs := make([]*backend, 0, len(ids))
	for _, id := range ids {
		if b, ok := g.backends[id]; ok {
			prefs = append(prefs, b)
		}
	}
	return prefs, len(g.backends)
}

// attempt sends the request to one backend and classifies the outcome
// for its breaker: transport errors and 5xx are failures the router
// moves past (a 503 means draining or shedding everything — the next
// replica may well serve); any other answer — 200, 429, 4xx, and 504 —
// proves the backend alive and is passed to the client verbatim. With a
// nil w the attempt, body read included, runs under the attempt
// timeout. With a non-nil w the timeout bounds only the wait for
// headers, and a 200 is streamed to w under the caller's budget, after
// which attempt returns (nil, nil) and no failover is possible.
func (g *Gateway) attempt(ctx context.Context, w http.ResponseWriter, b *backend, method, path string, body []byte, key uint64) (*proxyResult, error) {
	b.routed.Add(1)
	b.inflight.Add(1)
	g.totalInflight.Add(1)
	defer func() {
		b.inflight.Add(-1)
		g.totalInflight.Add(-1)
	}()

	var (
		actx     context.Context
		cancel   context.CancelFunc
		hdrTimer *time.Timer
	)
	if w == nil {
		actx, cancel = context.WithTimeout(ctx, g.cfg.AttemptTimeout)
	} else {
		actx, cancel = context.WithCancel(ctx)
		hdrTimer = time.AfterFunc(g.cfg.AttemptTimeout, cancel)
	}
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, b.id+path, rd)
	if err != nil {
		return nil, fmt.Errorf("building request for %s: %w", b.id, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if hdrTimer != nil {
		hdrTimer.Stop()
	}
	if err != nil {
		b.failed.Add(1)
		b.breaker.Record(false)
		return nil, fmt.Errorf("backend %s: %w", b.id, err)
	}
	defer resp.Body.Close()
	if w != nil && resp.StatusCode == http.StatusOK {
		b.succeeded.Add(1)
		b.breaker.Record(true)
		g.stream(w, resp, b.id, key)
		return nil, nil
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxRespBody))
	if err != nil {
		b.failed.Add(1)
		b.breaker.Record(false)
		return nil, fmt.Errorf("backend %s: reading response: %w", b.id, err)
	}
	// 504 is the request's own deadline expiring — it would expire on
	// every replica, so it passes through instead of failing over.
	if resp.StatusCode >= 500 && resp.StatusCode != http.StatusGatewayTimeout {
		b.failed.Add(1)
		b.breaker.Record(false)
		return nil, fmt.Errorf("backend %s answered %d", b.id, resp.StatusCode)
	}
	b.succeeded.Add(1)
	b.breaker.Record(true)
	g.logf("serve key=%016x backend=%s status=%d bytes=%d", key, b.id, resp.StatusCode, len(raw))
	return &proxyResult{status: resp.StatusCode, header: passHeaders(resp.Header, make(http.Header, 2)), body: raw}, nil
}

// stream copies an answered backend stream to the client chunk by
// chunk, flushing after each, so records and heartbeats arrive as the
// backend emits them.
func (g *Gateway) stream(w http.ResponseWriter, resp *http.Response, id string, key uint64) {
	g.streams.Add(1)
	g.logf("stream key=%016x backend=%s", key, id)
	passHeaders(resp.Header, w.Header())
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	var sent int64
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			sent += int64(n)
			if _, werr := w.Write(buf[:n]); werr != nil {
				g.logf("stream key=%016x backend=%s client-gone bytes=%d", key, id, sent)
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if rerr != nil {
			if rerr != io.EOF {
				// Mid-stream loss of the backend: the client has a valid
				// prefix and resumes by job ID. Nothing is fabricated to
				// paper over the cut.
				g.logf("stream key=%016x backend=%s cut bytes=%d err=%q", key, id, sent, rerr)
			} else {
				g.logf("stream key=%016x backend=%s done bytes=%d", key, id, sent)
			}
			return
		}
	}
}

// passHeaders copies the two backend headers a client may act on into
// dst and returns it.
func passHeaders(src, dst http.Header) http.Header {
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := src.Get(k); v != "" {
			dst.Set(k, v)
		}
	}
	return dst
}

// shedResult is the gateway's own 503: every replica was down, open, or
// out of budget. The Retry-After hint follows the fleet-wide jitter
// contract — seeded from the primary backend id plus the request hash,
// so the replicas of one shed request spread their retries instead of
// stampeding back together, while a replay of the same request gets the
// same hint.
func (g *Gateway) shedResult(key uint64, reason string) *proxyResult {
	g.shed.Add(1)
	g.mu.RLock()
	primary := g.ring.Owner(key)
	openFrac := 0.0
	for _, id := range g.ids {
		if g.backends[id].breaker.State() == fleet.BreakerOpen {
			openFrac += 1.0 / float64(len(g.ids))
		}
	}
	g.mu.RUnlock()
	ms := overload.RetryAfter(overload.LevelShed, openFrac, overload.Seed(primary, fmt.Sprintf("%016x", key))).Milliseconds()
	g.lastRetryMS.Store(ms)
	g.logf("shed key=%016x retry_after_ms=%d reason=%q", key, ms, reason)

	body, _ := json.Marshal(map[string]any{
		"error":          fmt.Sprintf("no backend available: %s", reason),
		"kind":           "unavailable",
		"retry_after_ms": ms,
	})
	hdr := make(http.Header, 2)
	hdr.Set("Content-Type", "application/json")
	hdr.Set("Retry-After", strconv.FormatInt((ms+999)/1000, 10))
	return &proxyResult{status: http.StatusServiceUnavailable, header: hdr, body: append(body, '\n')}
}

// healthLoop polls one backend's /readyz. A reachable backend — ready
// or not — proves liveness to its breaker; only transport failures
// count against it. Readiness and degrade level steer the preferred
// pass of route separately, so a draining or level-3 backend stops
// receiving new placements without being treated as dead.
func (g *Gateway) healthLoop(b *backend) {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-b.gone:
			return
		case <-t.C:
			g.probe(b)
		}
	}
}

func (g *Gateway) probe(b *backend) {
	b.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.id+"/readyz", nil)
	if err != nil {
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		b.ready.Store(false)
		b.breaker.Record(false)
		g.logf("probe backend=%s err=%q", b.id, err)
		return
	}
	defer resp.Body.Close()
	// UseNumber keeps each gauge as the backend wrote it, so the
	// per-backend view passes numbers through unrounded.
	dec := json.NewDecoder(io.LimitReader(resp.Body, fleet.MaxReadyzBytes))
	dec.UseNumber()
	var gauges map[string]any
	derr := dec.Decode(&gauges)
	var lvl int64
	if derr == nil && gauges["degrade_level"] != nil {
		n, _ := gauges["degrade_level"].(json.Number)
		lvl, derr = n.Int64()
	}
	b.ready.Store(resp.StatusCode == http.StatusOK)
	b.breaker.Record(true)
	if derr != nil {
		// The backend answered, so readiness and the breaker follow the
		// status code; a body that does not decode says nothing about
		// the gauges, so the last good snapshot stays instead of zeroing
		// this backend's share of the fleet view.
		b.probeDecodeErrors.Add(1)
		g.logf("probe backend=%s status=%d decode_err=%q", b.id, resp.StatusCode, derr)
		return
	}
	b.degrade.Store(int32(lvl))
	for _, k := range []string{"ready", "draining", "degrade_level"} {
		delete(gauges, k)
	}
	b.gauges.Store(&gauges)
	g.logf("probe backend=%s status=%d ready=%v degrade=%d", b.id, resp.StatusCode, resp.StatusCode == http.StatusOK, lvl)
}

// handleHealthz reports the gateway's counters and, per backend, the
// gateway's own fields for that backend plus its last gauge snapshot;
// on a name clash the gateway's field wins and the gauge is dropped.
// The fleet block folds the snapshots: a number sums under its own
// name, and a flag counts its true backends as <name>_backends (0 once
// any backend reports it). A backend whose probes have not yet decoded
// contributes no gauges.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g.mu.RLock()
	bk := make(map[string]any, len(g.ids))
	// Sums are float64, exact for every count below 2^53, and encode
	// integral values without a decimal point.
	fleetView := map[string]float64{}
	for _, id := range g.ids {
		b := g.backends[id]
		entry := map[string]any{
			"breaker":             b.breaker.State().String(),
			"breaker_opened":      b.breaker.Opened(),
			"ready":               b.ready.Load(),
			"degrade_level":       b.degrade.Load(),
			"inflight":            b.inflight.Load(),
			"routed":              b.routed.Load(),
			"succeeded":           b.succeeded.Load(),
			"failed":              b.failed.Load(),
			"probes":              b.probes.Load(),
			"probe_decode_errors": b.probeDecodeErrors.Load(),
		}
		if snap := b.gauges.Load(); snap != nil {
			for k, v := range *snap {
				if _, own := entry[k]; own {
					continue
				}
				entry[k] = v
				switch v := v.(type) {
				case json.Number:
					if f, err := v.Float64(); err == nil {
						fleetView[k] += f
					}
				case bool:
					n := fleetView[k+"_backends"]
					if v {
						n++
					}
					fleetView[k+"_backends"] = n
				}
			}
		}
		bk[id] = entry
		fleetView["probe_decode_errors"] += float64(b.probeDecodeErrors.Load())
	}
	draining := make([]string, 0, len(g.draining))
	for id := range g.draining {
		draining = append(draining, id)
	}
	g.mu.RUnlock()
	sort.Strings(draining)
	writeGateJSON(w, http.StatusOK, map[string]any{
		"status":              "ok",
		"start_time":          g.start.UTC().Format(time.RFC3339Nano),
		"uptime_ms":           time.Since(g.start).Milliseconds(),
		"backends":            bk,
		"fleet":               fleetView,
		"draining":            draining,
		"reloads":             g.reloads.Load(),
		"received":            g.received.Load(),
		"dedupe_joins":        g.dedupeJoins.Load(),
		"failovers":           g.failovers.Load(),
		"shed":                g.shed.Load(),
		"streams_proxied":     g.streams.Load(),
		"inflight_total":      g.totalInflight.Load(),
		"last_retry_after_ms": g.lastRetryMS.Load(),
	})
}

// handleReadyz: the gateway is ready while at least one backend's
// breaker would admit traffic (closed or probing half-open).
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	g.mu.RLock()
	available, total := 0, len(g.ids)
	for _, id := range g.ids {
		if g.backends[id].breaker.State() != fleet.BreakerOpen {
			available++
		}
	}
	g.mu.RUnlock()
	code := http.StatusOK
	if available == 0 {
		code = http.StatusServiceUnavailable
	}
	writeGateJSON(w, code, map[string]any{
		"ready":              available > 0,
		"backends_available": available,
		"backends_total":     total,
	})
}

func writeGateJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}
