// Package lcmserver is the resilient optimization service behind
// cmd/lcmd: a bounded worker pool with admission control over the
// hardened pass pipeline, a degradation ladder, a content-addressed
// result cache, and quarantine capture of faulting inputs. It lives as
// a library (rather than inside package main) so a fleet of servers can
// be embedded in-process — cmd/lcmgate's fleet soak runs N real
// backends this way and audits their accounting after backend-level
// chaos.
package lcmserver

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lazycm/internal/atomicio"
	"lazycm/internal/cachestore"
	"lazycm/internal/chaos"
	"lazycm/internal/dataflow"
	"lazycm/internal/ir"
	"lazycm/internal/overload"
	"lazycm/internal/pipeline"
	"lazycm/internal/textir"
	"lazycm/internal/triage"
	"lazycm/internal/vfs"
)

// Config tunes the optimization service.
type Config struct {
	// Workers is the size of the optimization worker pool; 0 means
	// GOMAXPROCS.
	Workers int
	// Queue is the number of requests that may wait for a worker beyond
	// the ones in flight; 0 means 4×Workers. When the queue is full the
	// service sheds load with 429 + Retry-After instead of queueing
	// unboundedly.
	Queue int
	// Timeout is the per-request budget applied when the client does not
	// ask for one; 0 means DefaultTimeout. A client may ask for up to
	// maxTimeoutFactor × Timeout, so one client cannot park a worker
	// indefinitely.
	Timeout time.Duration
	// Quarantine is the directory where inputs that fault or fall back
	// are captured as regression seeds; "" disables capture.
	Quarantine string
	// CacheSize is the capacity of the content-addressed result cache:
	// identical (program, directives) pairs replay their clean outcome
	// without re-running the pipeline. 0 means DefaultCacheSize; negative
	// disables caching.
	CacheSize int
	// CacheDir, when non-empty, adds a durable tier behind the result
	// cache: clean outcomes are written through to this directory as
	// self-verifying entries (internal/cachestore) and re-indexed on the
	// next boot, so a restarted server answers its old hits without
	// recomputing. Requires caching enabled; "" keeps the cache
	// memory-only.
	CacheDir string
	// CacheBytes bounds the durable tier's disk footprint with LRU
	// eviction; 0 means cachestore.DefaultMaxBytes.
	CacheBytes int64
	// Peers are other fleet members' base URLs for the shared cache
	// tier: on a local miss the server asks the cache key's ring-owner
	// neighbors (GET /cache/<key>) before running the pipeline. Strictly
	// fail-open — any peer error, timeout, open breaker, or integrity
	// mismatch falls back to local compute. Empty disables peer fill.
	Peers []string
	// Degrade tunes the degradation ladder's thresholds and hysteresis;
	// the zero value takes overload's defaults.
	Degrade overload.Config
	// DegradedFuel caps the per-fixpoint fuel budget while the ladder is
	// at level 1 or above, trading optimization effort for throughput.
	// 0 means DefaultDegradedFuel; negative disables the shrink.
	DegradedFuel int
	// JournalDir, when non-empty, makes ?job= batch/stream work durable:
	// each job writes a write-ahead journal here (header + per-function
	// completion records, via internal/atomicio) and a restarted server
	// re-admits unfinished jobs, serving already-completed functions from
	// the durable cache without recomputation. "" keeps jobs in-memory
	// only (they still survive client disconnects, not process death).
	JournalDir string
	// Chaos, when non-nil, injects service-level faults (latency, worker
	// stalls, induced panics, buggy passes, cache corruption) into the
	// request path. Test-only: never set it on a production server.
	Chaos *chaos.Injector
	// FS is the filesystem every durable path — disk cache tier, job
	// journal, quarantine capture — goes through; nil means the real
	// OS filesystem (vfs.OS). Tests inject a vfs.FaultFS here to make
	// the storage lie underneath a live server.
	FS vfs.FS
	// IOTimeout bounds every single blocking filesystem operation on
	// the durable paths (vfs.Guard): a stalled fsync returns an
	// error to its caller instead of wedging a request goroutine. 0
	// disables the deadline (production filesystems are trusted not to
	// stall forever; soaks always set it).
	IOTimeout time.Duration
	// DiskHealth tunes the self-quarantining disk tier: sustained
	// filesystem faults disable the disk cache and mark the journal
	// degraded until a background probe sees the disk healthy again.
	// The zero value takes the documented defaults.
	DiskHealth DiskHealthConfig

	// hook, when non-nil, runs on the worker goroutine before each item,
	// inside the per-item panic guard, with the item's single-function
	// request; tests use it to hold workers busy deterministically or to
	// panic on a chosen input.
	hook func(optimizeRequest)
}

// DefaultTimeout is the per-request budget when neither the server
// configuration nor the client names one.
const DefaultTimeout = 5 * time.Second

// maxTimeoutFactor caps client-requested budgets at this multiple of
// Config.Timeout.
const maxTimeoutFactor = 4

// maxBody bounds request bodies; a program larger than this is rejected
// before any parsing work.
const maxBody = 4 << 20

// DefaultCacheSize is the result-cache capacity when Config.CacheSize is
// unset.
const DefaultCacheSize = 128

// DefaultDegradedFuel is the per-fixpoint fuel cap applied at degrade
// level 1+ when Config.DegradedFuel is unset: generous enough that
// ordinary programs still optimize fully, tight enough that a
// pathological fixpoint cannot monopolize a worker while the service is
// under pressure.
const DefaultDegradedFuel = 1 << 16

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.Workers
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.CacheSize == 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.DegradedFuel == 0 {
		c.DegradedFuel = DefaultDegradedFuel
	}
	return c
}

// Server is a resilient optimization service over the hardened pipeline:
// a bounded worker pool with admission control, per-request deadlines
// enforced through the context threaded into every fixpoint, per-request
// panic isolation, and quarantine capture of any input that faults or
// falls back.
type Server struct {
	cfg    Config
	jobs   chan *job
	wg     sync.WaitGroup
	start  time.Time
	cache  *resultCache // nil when caching is disabled
	alias  *chunkAlias  // nil when caching is disabled
	peers  *peerGroup   // nil when peer fill is disabled
	ladder *overload.Ladder
	gauge  *overload.Gauge

	// fs is the guarded filesystem every durable path uses: the
	// configured FS (or vfs.OS), deadline-bounded by IOTimeout, with
	// every outcome reported to diskHealth. rawFS is the same guard
	// without the observer — the background probe and /healthz's
	// quarantine probe use it so probe traffic never pollutes the live
	// fault window.
	fs         vfs.FS
	rawFS      vfs.FS
	diskHealth *diskHealth
	probeWG    sync.WaitGroup

	// jobStore registers resumable batch/stream jobs; jobsCtx parents
	// every persisted job runner and jobsWG tracks them, so Close can
	// stop runners before the worker channel closes.
	jobStore   *jobStore
	jobsCtx    context.Context
	jobsCancel context.CancelFunc
	jobsWG     sync.WaitGroup

	draining    atomic.Bool
	queued      atomic.Int64
	inflight    atomic.Int64
	lastRetryMS atomic.Int64 // last Retry-After hint issued, for /healthz

	requests     atomic.Int64 // admitted work items (a batch item counts like a request)
	optimized    atomic.Int64 // clean 200s
	fellBack     atomic.Int64 // 200s that shipped a fallback
	canceled     atomic.Int64 // deadline/cancel results
	invalid      atomic.Int64 // parse or validation rejections
	shed         atomic.Int64 // work items shed by admission control
	panics       atomic.Int64 // contained pass/driver panics
	quarantined  atomic.Int64 // distinct crashers captured (duplicates collapse)
	cacheHits    atomic.Int64 // results replayed from the content cache (memory or disk)
	cacheMisses  atomic.Int64 // lookups that ran the pipeline
	cacheCorrupt atomic.Int64 // in-memory cache and alias reads failing their checksum
	aliasHits    atomic.Int64 // function chunks keyed from the alias, unparsed
	peerHits     atomic.Int64 // local misses served by a fleet peer's cache
	peerMisses   atomic.Int64 // peer consults that found nothing usable
	peerServed   atomic.Int64 // GET /cache hits served to fleet peers

	jobsActive    atomic.Int64 // gauge: job runner generations in flight
	jobsResumed   atomic.Int64 // unfinished journaled jobs re-admitted at boot
	jobsExpired   atomic.Int64 // journals expired (TTL) or dropped (undecodable) at boot
	streamClients atomic.Int64 // gauge: NDJSON followers currently connected
}

// NewServer builds the service and starts its worker pool.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	// The pressure gauge normalizes smoothed item latency against a
	// quarter of the request budget: when latency approaches the budget,
	// the service is drowning even if the queue looks short.
	s := &Server{
		cfg: cfg, jobs: make(chan *job, cfg.Queue), start: time.Now(),
		cache:      newResultCache(cfg.CacheSize),
		alias:      newChunkAlias(cfg.CacheSize),
		ladder:     overload.NewLadder(cfg.Degrade),
		gauge:      overload.NewGauge(cfg.Timeout/4, 0),
		diskHealth: newDiskHealth(cfg.DiskHealth),
	}
	// The durable-path filesystem: the configured FS (production: the
	// real OS; soaks: a FaultFS) under one guard that bounds every
	// operation with the IO deadline, so no single stalled operation
	// wedges a goroutine, and reports its outcome to the
	// self-quarantining health tracker.
	base := cfg.FS
	if base == nil {
		base = vfs.OS
	}
	s.fs = vfs.Guard(base, cfg.IOTimeout, s.diskHealth.record)
	s.rawFS = vfs.Guard(base, cfg.IOTimeout, nil)
	if cfg.Chaos != nil && s.cache != nil {
		// Chaos corrupts cached programs on their way out; the cache's
		// integrity checksum is what must catch it.
		s.cache.corrupt = cfg.Chaos.CorruptRead
	}
	if cfg.CacheDir != "" && s.cache != nil {
		// The durable tier is an accelerator, never a dependency: if the
		// directory cannot be opened the server runs memory-only rather
		// than failing to start.
		if store, err := cachestore.OpenFS(s.fs, cfg.CacheDir, cfg.CacheBytes); err == nil {
			s.cache.disk = store
			// While the health tracker has the tier quarantined, the
			// cache skips straight past disk to peers/compute.
			s.cache.diskGate = func() bool { return !s.diskHealth.Disabled() }
		}
	}
	s.peers = newPeerGroup(cfg)
	if cfg.Quarantine != "" {
		// A process killed mid-capture leaves *.tmp partials, never a
		// partial .ir; sweep them before the first new capture.
		atomicio.SweepTmpFS(s.fs, cfg.Quarantine)
	}
	s.jobsCtx, s.jobsCancel = context.WithCancel(context.Background())
	s.jobStore = newJobStore(cfg.JournalDir, s.fs)
	resumable := s.bootJobs()
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	// Re-admit unfinished journaled jobs only once the workers exist:
	// their completed functions replay from the durable cache, the rest
	// recompute, and their clients reconnect by job ID whenever they like.
	for _, js := range resumable {
		s.jobsResumed.Add(1)
		s.ensureRunner(js)
	}
	if s.probeDir() != "" {
		// Background recovery probe for the quarantined disk tier.
		s.probeWG.Add(1)
		go s.diskProbeLoop()
	}
	return s
}

// Handler returns the HTTP surface: POST /optimize, POST /optimize/batch,
// POST /optimize/stream, GET /jobs/{id}[/stream], GET /healthz and
// GET /readyz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /optimize", s.serveModule(viewSingle))
	mux.HandleFunc("POST /optimize/batch", s.serveModule(viewBatch))
	mux.HandleFunc("POST /optimize/stream", s.serveModule(viewStream))
	mux.HandleFunc("GET /jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleJobStream)
	mux.HandleFunc("GET /cache/{key}", s.handleCacheGet)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// BeginDrain flips the server into draining mode: new requests are
// rejected with 503 + Retry-After while in-flight work completes.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close stops the job runners, then the worker pool. It must be called
// only after every HTTP handler has returned (http.Server.Shutdown or
// httptest.Server.Close), since handlers enqueue into the pool. Runner
// goroutines also enqueue, so they are stopped and drained strictly
// before the channel closes; a persisted job cut short here stays
// journaled and resumes on the next boot.
func (s *Server) Close() {
	s.jobsCancel()
	s.jobsWG.Wait()
	s.probeWG.Wait()
	close(s.jobs)
	s.wg.Wait()
}

// optimizeRequest is the JSON body of POST /optimize.
type optimizeRequest struct {
	// Program is the textual-IR source (one or more functions).
	Program string `json:"program"`
	// Mode is the transformation to apply (lcm, alcm, bcm, mr, gcse, sr,
	// opt); empty means lcm.
	Mode string `json:"mode,omitempty"`
	// Fuel bounds each fixpoint to this many node visits when positive;
	// otherwise fixpoints are unlimited.
	Fuel int `json:"fuel,omitempty"`
	// TimeoutMS is the client's budget for this request in milliseconds;
	// it is capped at 4× the server's Timeout. 0 means the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Verify opts this request into behavioural re-verification.
	Verify bool `json:"verify,omitempty"`
	// Canonical identifies commutated commutative expressions.
	Canonical bool `json:"canonical,omitempty"`
}

// seed is the request's retry-hint seed. It hashes the whole program, so
// only a refusal computes it.
func (r optimizeRequest) seed() uint64 { return overload.Seed(r.Program, r.Mode) }

// optimizeResponse is the JSON body of every /optimize outcome. On
// success Program holds the optimized source; on fallback or cancellation
// it holds the last-known-good source (ultimately the validated input) —
// never a partial rewrite.
type optimizeResponse struct {
	Program     string   `json:"program,omitempty"`
	Functions   int      `json:"functions,omitempty"`
	Applied     []string `json:"applied,omitempty"`
	FellBack    bool     `json:"fell_back,omitempty"`
	Canceled    bool     `json:"canceled,omitempty"`
	Diagnostics []string `json:"diagnostics,omitempty"`
	Error       string   `json:"error,omitempty"`
	// Kind classifies failures: "parse", "invalid", "mode", "deadline",
	// "panic", "overload", "draining", "journal_degraded".
	Kind        string `json:"kind,omitempty"`
	Quarantined string `json:"quarantined,omitempty"`
	// JournalDegraded marks a 503 caused by the disk tier being
	// quarantined under storage faults: the request itself is fine and
	// an identical non-persisted submission would be served, but a new
	// ?job= cannot be made durable right now. Clients should resubmit
	// (still with ?job=) after RetryAfterMS.
	JournalDegraded bool `json:"journal_degraded,omitempty"`
	// DegradeLevel is the ladder level the request was handled under
	// (0 = full service, omitted).
	DegradeLevel int `json:"degrade_level,omitempty"`
	// RetryAfterMS is the millisecond-precise form of the Retry-After
	// header on 429/503 rejections; clients should prefer it over the
	// whole-second header.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	ElapsedMS    int64 `json:"elapsed_ms"`
}

// outcome pairs an HTTP status with its JSON body.
type outcome struct {
	status int
	body   optimizeResponse
}

// job is one admitted item — one function of a module request —
// waiting for (or being processed by) a worker. done is buffered so a
// worker can always complete an item even when its runner has already
// given up on the deadline — that is what keeps cancellation leak-free.
type job struct {
	ctx context.Context
	// hdr holds the run's directives: mode, canonical, and the fuel and
	// verify already resolved for the admission level, so the worker and
	// the quarantine directives agree on what actually ran.
	hdr *jobHeader
	// unit arrives keyed by the submit step; the key embeds the client's
	// undegraded fuel, which hdr does not carry.
	unit  jobUnit
	done  chan outcome
	start time.Time
	// gauged items feed the pressure gauge one by one; an /optimize's
	// run records one sample for its whole module instead (runJob).
	gauged bool
}

// request is the single-function request an item stands for, as the
// test hook and quarantine capture see it.
func (j *job) request() optimizeRequest {
	return optimizeRequest{Program: j.unit.Src, Mode: j.hdr.Mode, Canonical: j.hdr.Canonical}
}

// observe feeds the ladder one pressure sample built from the live
// gauges and returns the (possibly updated) degradation level. Every
// admission decision and every /healthz probe observes, so the ladder
// keeps moving — up under pressure, back down as the queue drains —
// without a dedicated sampling goroutine.
func (s *Server) observe() overload.Level {
	return s.ladder.Observe(overload.Sample{
		QueueFrac:    float64(s.queued.Load()) / float64(s.cfg.Queue),
		InflightFrac: float64(s.inflight.Load()) / float64(s.cfg.Workers),
		MissRate:     s.gauge.MissRate(),
		LatencyFrac:  s.gauge.LatencyFrac(),
	})
}

// retryAfterMS computes the load-aware Retry-After hint for one shed
// request: longer when the queue is deeper or the ladder higher, spread
// by deterministic per-request jitter (seeded from the request hash,
// never the clock) so subsumed clients do not retry in lockstep. The
// last issued hint is kept for /healthz.
func (s *Server) retryAfterMS(lvl overload.Level, seed uint64) int64 {
	queueFrac := float64(s.queued.Load()) / float64(s.cfg.Queue)
	ms := overload.RetryAfter(lvl, queueFrac, seed).Milliseconds()
	s.lastRetryMS.Store(ms)
	return ms
}

// reject writes a load-control response. Every rejection a client can
// cure by retrying — shed load (429) and draining (503) — carries the
// same Retry-After contract, so retry loops need exactly one code path:
// the header in whole seconds (rounded up, per HTTP), the JSON body in
// milliseconds.
func (s *Server) reject(w http.ResponseWriter, status int, kind, msg string, start time.Time, lvl overload.Level, seed uint64) {
	writeOutcome(w, outcome{status, optimizeResponse{
		Error: msg, Kind: kind, DegradeLevel: int(lvl), RetryAfterMS: s.retryAfterMS(lvl, seed), ElapsedMS: msSince(start),
	}})
}

// writeOutcome writes one response, with the Retry-After header (whole
// seconds, rounded up) whenever the body carries a retry hint.
func writeOutcome(w http.ResponseWriter, out outcome) {
	if ms := out.body.RetryAfterMS; ms > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((ms+999)/1000, 10))
	}
	writeJSON(w, out.status, out.body)
}

// decodeOptimize reads and vets the request shape every module endpoint
// shares: body size cap, JSON decode, mode defaulting and validation.
// It writes the 400 itself and reports false on failure.
func (s *Server) decodeOptimize(w http.ResponseWriter, r *http.Request, start time.Time) (optimizeRequest, bool) {
	var req optimizeRequest
	body := http.MaxBytesReader(w, r.Body, maxBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, optimizeResponse{
			Error: fmt.Sprintf("bad request body: %v", err), Kind: "parse", ElapsedMS: msSince(start),
		})
		return req, false
	}
	if req.Mode == "" {
		req.Mode = "lcm"
	}
	if _, ok := pipeline.ForMode(req.Mode); !ok {
		writeJSON(w, http.StatusBadRequest, optimizeResponse{
			Error: fmt.Sprintf("unknown mode %q (valid: %s)", req.Mode, strings.Join(pipeline.ModeNames(), ", ")),
			Kind:  "mode", ElapsedMS: msSince(start),
		})
		return req, false
	}
	return req, true
}

// budgetFor resolves the request's wall-clock budget: the server default
// unless the client names one; client requests are capped so no request
// parks a worker beyond maxTimeoutFactor × Timeout.
func (s *Server) budgetFor(req optimizeRequest) time.Duration {
	budget := s.cfg.Timeout
	if req.TimeoutMS > 0 {
		budget = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	return min(budget, maxTimeoutFactor*s.cfg.Timeout)
}

// admit atomically reserves n queue slots, or none at all when fewer
// than n are free, counting each as one admitted work item. A successful
// reservation guarantees the subsequent channel sends cannot block: jobs
// resident in the channel never exceed the reserved count, which never
// exceeds the capacity.
func (s *Server) admit(n int64) bool {
	for {
		q := s.queued.Load()
		if q+n > int64(s.cfg.Queue) {
			return false
		}
		if s.queued.CompareAndSwap(q, q+n) {
			s.requests.Add(n)
			return true
		}
	}
}

// optionsFor resolves the effort options a request runs under at the
// given degradation level. Level 1+ turns the behavioural verify
// battery off and shrinks the fuel budget — both trade effort only:
// verification is a re-check of an already-validated result, and fuel
// decides whether a result is produced, never which result, so degraded
// service can reduce work without ever changing an answer. For the same
// reason the cache keys on the undegraded fuel, not the fuel returned
// here: a clean result computed under the cap is the one the uncapped
// budget would produce, and only clean results are cached.
func (s *Server) optionsFor(req optimizeRequest, lvl overload.Level) (fuel int, verify bool) {
	fuel = s.effectiveFuel(req)
	verify = req.Verify
	if lvl >= overload.LevelNoVerify {
		verify = false
		if df := s.cfg.DegradedFuel; df > 0 && (fuel <= 0 || fuel > df) {
			fuel = df
		}
	}
	return fuel, verify
}

// handleCacheGet serves one content-addressed cache entry to a fleet
// peer in cachestore's self-verifying wire format. Only the local tiers
// (memory, then disk) are consulted — never this server's own peers, so
// a fleet of mutually configured peers cannot recurse. A miss is an
// authoritative 404: the asking peer computes locally. Serving a cached
// entry costs no worker slot and goes through the same integrity checks
// as serving it to a client, so this endpoint can never leak a corrupt
// or non-clean result into the fleet.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	var payload []byte
	if cachestore.ValidKey(key) {
		if out, ok := s.cached(key); ok {
			payload, _ = encodeOutcome(out)
		}
	}
	if payload == nil {
		http.Error(w, "no such cache entry", http.StatusNotFound)
		return
	}
	s.peerServed.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(cachestore.Encode(key, payload))
}

// serveModule is every module endpoint: decode the request, submit its
// job, and render the job in the endpoint's view. The views differ only
// in rendering, so one function's answer never depends on which
// endpoint carried it.
func (s *Server) serveModule(v view) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		req, ok := s.decodeOptimize(w, r, start)
		if !ok {
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.budgetFor(req))
		defer cancel()
		js, lvl := s.submit(ctx, w, r, req, v, start)
		if js == nil {
			return
		}
		switch v {
		case viewSingle:
			if !js.wait(ctx) {
				// The deadline fired while items were queued or in flight. The
				// workers observe the same context at their next iteration
				// boundary and do the canceled accounting; nothing leaks.
				writeJSON(w, http.StatusGatewayTimeout, optimizeResponse{
					Error: fmt.Sprintf("request abandoned: %v", ctx.Err()), Kind: "deadline",
					Canceled: true, ElapsedMS: msSince(start),
				})
				return
			}
			out := js.joined()
			out.body.ElapsedMS = msSince(start)
			out.body.DegradeLevel = int(lvl)
			writeOutcome(w, out)
		case viewBatch:
			// A client that goes away leaves a persisted job computing; the
			// next submission or GET /jobs/{id} picks the results up.
			if js.wait(r.Context()) {
				status, resp := js.batchResponse(start)
				writeJSON(w, status, resp)
			}
		case viewStream:
			s.follow(w, r, js, start)
		}
	}
}

// joined renders a finished job in the single /optimize shape, folding
// its items in module order: the first failing function's own response,
// or the programs joined by "\n" with applied passes and diagnostics
// concatenated, fell_back when any function fell back, and quarantined
// naming the first fallback's capture. The joined program is cut at the
// first canceled function, whose deadline the rest shared.
func (js *jobState) joined() outcome {
	js.mu.Lock()
	defer js.mu.Unlock()
	n := len(js.hdr.Funcs)
	resp := optimizeResponse{Functions: n}
	parts := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out := js.results[i]
		if out.status != http.StatusOK && !out.body.Canceled {
			return out
		}
		parts = append(parts, out.body.Program)
		resp.Applied = append(resp.Applied, out.body.Applied...)
		resp.Diagnostics = append(resp.Diagnostics, out.body.Diagnostics...)
		if out.body.FellBack {
			resp.FellBack = true
			if resp.Quarantined == "" {
				resp.Quarantined = out.body.Quarantined
			}
		}
		if out.body.Canceled {
			resp.Canceled = true
			break
		}
	}
	resp.Program = strings.Join(parts, "\n")
	if resp.Canceled {
		resp.Error = "deadline exceeded during optimization"
		resp.Kind = "deadline"
		return outcome{http.StatusGatewayTimeout, resp}
	}
	return outcome{http.StatusOK, resp}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// A health probe is also a pressure sample: a server left idle after a
	// burst recovers its degradation level on the next probe instead of
	// staying stuck at the level the burst pushed it to.
	lvl := s.observe()
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, struct {
		Status        string `json:"status"`
		Workers       int    `json:"workers"`
		QueueCapacity int    `json:"queue_capacity"`
		// start_time + uptime_ms together let an operator (or a soak)
		// distinguish a warm restart from a long-running process: a young
		// uptime with a populated disk tier is a warm boot.
		StartTime          string            `json:"start_time"`
		UptimeMS           int64             `json:"uptime_ms"`
		DegradeLevel       int               `json:"degrade_level"`
		RetryAfterMS       int64             `json:"retry_after_ms"`
		LatencyEWMAMS      int64             `json:"latency_ewma_ms"`
		QuarantineWritable bool              `json:"quarantine_writable"`
		Peers              map[string]string `json:"peers,omitempty"`
		Stats
		// The solver keys were retired with the word-sliced and sparse
		// solvers and are always 0; they stay only because svcbench
		// reads them.
		SolverParallelSlices int `json:"solver_parallel_slices"`
		SolverSparseSkips    int `json:"solver_sparse_skips"`
	}{
		Status:             status,
		Workers:            s.cfg.Workers,
		QueueCapacity:      s.cfg.Queue,
		StartTime:          s.start.UTC().Format(time.RFC3339Nano),
		UptimeMS:           time.Since(s.start).Milliseconds(),
		DegradeLevel:       int(lvl),
		RetryAfterMS:       s.lastRetryMS.Load(),
		LatencyEWMAMS:      s.gauge.EWMA().Milliseconds(),
		QuarantineWritable: s.quarantineWritable(),
		Peers:              s.peers.states(),
		Stats:              s.Stats(),
	})
}

// disk returns the durable cache tier, possibly nil (every cachestore
// method is nil-safe, reporting zero).
func (s *Server) disk() *cachestore.Store {
	if s.cache == nil {
		return nil
	}
	return s.cache.disk
}

// diskHits reports memory misses the durable tier served.
func (s *Server) diskHits() int64 {
	if s.cache == nil {
		return 0
	}
	return s.cache.diskHits.Load()
}

// readiness is the /readyz body: the readiness and degrade level a
// gateway routes on, then the gauges it folds without naming them.
type readiness struct {
	Ready        bool `json:"ready"`
	Draining     bool `json:"draining"`
	DegradeLevel int  `json:"degrade_level"`
	Gauges
}

// handleReadyz is the cheap readiness probe: 503 while draining or
// while the degradation ladder is shedding all new work (level 3), 200
// otherwise. A gateway polls this instead of parsing the full healthz
// body; the tiny JSON payload still carries the degrade level so the
// poller can bias routing away from a degraded-but-alive backend
// without a second request.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	// Like healthz, a readiness probe is also a pressure sample: frequent
	// polling keeps the ladder descending after a burst.
	lvl := s.observe()
	draining := s.draining.Load()
	ready := !draining && lvl < overload.LevelShed
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, readiness{Ready: ready, Draining: draining, DegradeLevel: int(lvl), Gauges: s.gauges()})
}

// Gauges are the counters /readyz carries besides readiness, so a
// gateway can fold them into its fleet view without a second request.
// The gateway names none of them: a field added here reaches its
// per-backend and fleet views as it is. fleet.MaxReadyzBytes bounds the
// encoded /readyz body.
type Gauges struct {
	JobsActive    int64 `json:"jobs_active"`    // job runner generations in flight
	JobsResumed   int64 `json:"jobs_resumed"`   // unfinished journaled jobs re-admitted at boot
	JobsExpired   int64 `json:"jobs_expired"`   // journals expired (TTL) or dropped (undecodable) at boot
	StreamClients int64 `json:"stream_clients"` // NDJSON followers currently connected
	// CacheHits counts results replayed from the content cache (memory
	// or disk) and CacheMisses lookups that ran the pipeline. The cache
	// is keyed per function, so both count functions, not requests.
	CacheHits   int64 `json:"fn_cache_hits"`
	CacheMisses int64 `json:"fn_cache_misses"`

	// Hostile-storage health: DiskDisabled means the disk cache is
	// bypassed (memory + peers + compute still serve) and
	// JournalDegraded that new ?job= submissions are refused with a
	// structured 503, until the background probe re-enables the tier.
	// The DiskFaults* fields are the per-class fault totals the vfs
	// observer has seen.
	DiskDisabled           bool  `json:"disk_disabled"`
	DiskDisableTransitions int64 `json:"disk_disable_transitions"`
	JournalDegraded        bool  `json:"journal_degraded"`
	DiskFaultsWrite        int64 `json:"disk_faults_write"`
	DiskFaultsRead         int64 `json:"disk_faults_read"`
	DiskFaultsSync         int64 `json:"disk_faults_sync"`
	DiskFaultsRename       int64 `json:"disk_faults_rename"`
}

// gauges reads the /readyz gauges. It takes no cache or disk lock, so a
// readiness probe never waits behind cache traffic.
func (s *Server) gauges() Gauges {
	fw, fr, fsy, frn := s.diskHealth.Faults()
	return Gauges{
		JobsActive:             s.jobsActive.Load(),
		JobsResumed:            s.jobsResumed.Load(),
		JobsExpired:            s.jobsExpired.Load(),
		StreamClients:          s.streamClients.Load(),
		CacheHits:              s.cacheHits.Load(),
		CacheMisses:            s.cacheMisses.Load(),
		DiskDisabled:           s.diskHealth.Disabled(),
		DiskDisableTransitions: s.diskHealth.Transitions(),
		JournalDegraded:        s.journalDegraded(),
		DiskFaultsWrite:        fw,
		DiskFaultsRead:         fr,
		DiskFaultsSync:         fsy,
		DiskFaultsRename:       frn,
	}
}

// Stats is a point-in-time snapshot of the server's accounting
// counters: everything /healthz reports beside its pool header. It is
// exported so an embedding test (the fleet soak) can audit the
// single-node invariants — outcome buckets summing exactly to
// admissions, the queue drained to zero — across every backend of a
// fleet.
type Stats struct {
	Gauges
	Requests     int64 `json:"requests"`
	Optimized    int64 `json:"optimized"`
	FellBack     int64 `json:"fell_back"`
	Canceled     int64 `json:"canceled"`
	Invalid      int64 `json:"invalid"`
	Shed         int64 `json:"shed"`
	Panics       int64 `json:"panics"`
	Quarantined  int64 `json:"quarantined"`
	CacheEntries int64 `json:"cache_entries"`
	// CacheCorrupt counts memory cache and alias entries that failed
	// their checksum; AliasHits the function chunks keyed from the alias
	// without a parse.
	CacheCorrupt int64 `json:"cache_corrupt"`
	AliasHits    int64 `json:"fn_alias_hits"`
	DiskEntries  int64 `json:"disk_entries"`
	DiskBytes    int64 `json:"disk_bytes"`
	DiskHits     int64 `json:"disk_hits"`
	// CorruptDropped counts durable-tier entries dropped by integrity
	// verification — detected disk rot, never served. DiskWriteErrors
	// and DiskReadErrors are the distinct IO-failure signals (the disk
	// refusing bytes, not lying about them).
	CorruptDropped     int64 `json:"corrupt_dropped"`
	DiskWriteErrors    int64 `json:"disk_write_errors"`
	DiskReadErrors     int64 `json:"disk_read_errors"`
	PeerHits           int64 `json:"peer_hits"`
	PeerMisses         int64 `json:"peer_misses"`
	PeerServed         int64 `json:"peer_served"`
	DegradeTransitions int64 `json:"degrade_transitions"`
	Queued             int64 `json:"queue_depth"`
	Inflight           int64 `json:"inflight"`
}

// Stats snapshots the accounting counters. The snapshot is not atomic
// across counters; audit it only on a drained server.
func (s *Server) Stats() Stats {
	return Stats{
		Gauges:             s.gauges(),
		Requests:           s.requests.Load(),
		Optimized:          s.optimized.Load(),
		FellBack:           s.fellBack.Load(),
		Canceled:           s.canceled.Load(),
		Invalid:            s.invalid.Load(),
		Shed:               s.shed.Load(),
		Panics:             s.panics.Load(),
		Quarantined:        s.quarantined.Load(),
		CacheEntries:       int64(s.cache.len()),
		CacheCorrupt:       s.cacheCorrupt.Load(),
		AliasHits:          s.aliasHits.Load(),
		DiskEntries:        int64(s.disk().Len()),
		DiskBytes:          s.disk().Bytes(),
		DiskHits:           s.diskHits(),
		CorruptDropped:     s.disk().CorruptDropped(),
		DiskWriteErrors:    s.disk().WriteErrors(),
		DiskReadErrors:     s.disk().ReadErrors(),
		PeerHits:           s.peerHits.Load(),
		PeerMisses:         s.peerMisses.Load(),
		PeerServed:         s.peerServed.Load(),
		DegradeTransitions: s.ladder.Transitions(),
		Queued:             s.queued.Load(),
		Inflight:           s.inflight.Load(),
	}
}

// quarantineWritable probes whether crasher capture can actually land on
// disk: the directory exists (or can be created) and a file can be
// created in it. A server that silently cannot quarantine is losing its
// regression seeds; /healthz is where that should surface. Like the
// background disk probe it goes through the unobserved filesystem, so
// health polling never dilutes the live fault window.
func (s *Server) quarantineWritable() bool {
	if s.cfg.Quarantine == "" {
		return false
	}
	if err := s.rawFS.MkdirAll(s.cfg.Quarantine, 0o755); err != nil {
		return false
	}
	f, err := s.rawFS.CreateTemp(s.cfg.Quarantine, ".probe-*")
	if err != nil {
		return false
	}
	name := f.Name()
	f.Close()
	s.rawFS.Remove(name)
	return true
}

func (s *Server) worker() {
	defer s.wg.Done()
	// Each worker owns one analysis arena for its whole lifetime: jobs on
	// this goroutine reuse traversal orders and bit-vector storage across
	// requests instead of reallocating them per fixpoint. Workers never
	// share arenas, so there is no contention on the hot path.
	sc := dataflow.NewScratch()
	for j := range s.jobs {
		s.queued.Add(-1)
		s.inflight.Add(1)
		out := s.process(j, sc)
		s.inflight.Add(-1)
		s.account(out)
		if j.gauged {
			// Feed the pressure gauge: smoothed latency plus the miss rate
			// (deadline losses and fallbacks) are two of the ladder's signals.
			s.gauge.Record(time.Since(j.start), out.body.Canceled || out.body.FellBack)
		}
		j.done <- out
	}
}

// account maintains the outcome counters the soak test audits.
func (s *Server) account(out outcome) {
	switch {
	case out.body.Canceled:
		s.canceled.Add(1)
	case out.status == http.StatusBadRequest:
		s.invalid.Add(1)
	case out.status == http.StatusInternalServerError:
		s.panics.Add(1)
	case out.body.FellBack:
		s.fellBack.Add(1)
	case out.status == http.StatusOK:
		s.optimized.Add(1)
	}
}

// process runs one item end to end under panic isolation. It never
// panics and never returns a partial rewrite: the program it reports is
// the pipeline's last-known-good function.
func (s *Server) process(j *job, sc *dataflow.Scratch) outcome {
	if err := j.ctx.Err(); err != nil {
		return outcome{http.StatusGatewayTimeout, optimizeResponse{
			Error: fmt.Sprintf("abandoned before work started: %v", err), Kind: "deadline", Canceled: true,
		}}
	}
	var out outcome
	perr := pipeline.Guard("optimize", func() error {
		// The test hook runs inside the guard: even a hook that panics is
		// contained like any other per-item fault, which is how the tests
		// prove a worker survives an arbitrary panic on its goroutine.
		if s.cfg.hook != nil {
			s.cfg.hook(j.request())
		}
		if in := s.cfg.Chaos; in != nil {
			if d := in.Delay(); d > 0 {
				// Injected latency respects the item context, like any
				// slow-but-honest dependency would.
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-j.ctx.Done():
				}
				t.Stop()
			}
			if d := in.StallFor(); d > 0 {
				// A stall deliberately ignores the context: it models a
				// wedged worker, and the runner's deadline path must cope.
				time.Sleep(d)
			}
			if in.ShouldPanic() {
				panic("chaos: induced worker panic")
			}
		}
		out = s.optimize(j, sc)
		return nil
	})
	if perr != nil {
		// A panic escaped the pipeline's own containment (e.g. in the
		// printer). Contain it here, quarantine the function, and keep the
		// worker alive.
		q := s.quarantine(j.request(), j.hdr.Fuel, j.hdr.Verify)
		return outcome{http.StatusInternalServerError, optimizeResponse{
			Error: perr.Error(), Kind: "panic", Quarantined: q,
		}}
	}
	return out
}

// pipelineFor builds the pass list and options one item runs under,
// including the chaos fault pass when injection is on.
func (s *Server) pipelineFor(j *job, sc *dataflow.Scratch) ([]pipeline.Pass, pipeline.Options) {
	pass, _ := pipeline.ForMode(j.hdr.Mode)
	opts := pipeline.Options{
		Fuel:      j.hdr.Fuel,
		Canonical: j.hdr.Canonical,
		Verify:    j.hdr.Verify,
		Ctx:       j.ctx,
		Scratch:   sc,
	}
	passes := []pipeline.Pass{pass}
	if in := s.cfg.Chaos; in != nil {
		if ft, ok := in.FaultPass(); ok {
			// Splice a buggy-but-detectable pass behind the real one. The
			// pipeline's always-on checkers must catch it and fall back; it
			// must never surface as a wrong answer, even with verify off.
			passes = append(passes, pipeline.Pass{
				Name: "chaos-" + ft.Name,
				Run: func(f *ir.Function, _ pipeline.Options) (*ir.Function, map[ir.Expr]string, error) {
					return ft.RunFunc(f)
				},
			})
		}
	}
	return passes, opts
}

// optimize runs one item through cache-or-compute. The unit arrives
// keyed: a keyed unit consults the function-granular cache (memory →
// disk → peers), and a full miss runs the pipeline. A unit without its
// parsed function — taken from the chunk alias, read back from a
// journal, or rejected by the parser at submit — is parsed only then, so
// a hit never parses and a rejected unit answers its parse error. LCM's
// analyses are intraprocedural, so one function's outcome is a pure
// function of its own body plus the resolved directives, and only clean
// results are stored.
func (s *Server) optimize(j *job, sc *dataflow.Scratch) outcome {
	u := j.unit
	cached := s.cache != nil && u.Key != ""
	if cached {
		if out, ok := s.cached(u.Key); ok {
			s.cacheHits.Add(1)
			return out
		}
		// Every local tier missed: ask the key's ring-owner neighbors
		// before paying for the pipeline. Strictly fail-open — a nil
		// payload or an undecodable one just means computing locally,
		// exactly as if the tier did not exist.
		if s.peers != nil {
			if payload := s.peers.fetch(j.ctx, u.Key); payload != nil {
				if out, ok := decodeOutcome(payload); ok {
					s.peerHits.Add(1)
					s.cache.putPayload(u.Key, out, payload)
					return out
				}
			}
			s.peerMisses.Add(1)
		}
		s.cacheMisses.Add(1)
	}

	if u.fn == nil {
		// Every tier missed (or the unit is keyless): parse the source now.
		var err error
		if u.fn, err = textir.ParseFunction(u.Src); err != nil {
			return outcome{http.StatusBadRequest, optimizeResponse{Error: err.Error(), Kind: "parse"}}
		}
	}
	passes, opts := s.pipelineFor(j, sc)
	res, err := pipeline.Run(u.fn, passes, opts)
	if err != nil {
		status, kind := http.StatusInternalServerError, "panic"
		if errors.Is(err, pipeline.ErrInvalidInput) {
			status, kind = http.StatusBadRequest, "invalid"
		}
		return outcome{status, optimizeResponse{Error: fmt.Sprintf("%s: %v", u.fn.Name, err), Kind: kind}}
	}
	// Whatever happened, res.F is validated: the optimized function, or
	// the last-known-good fallback (ultimately the input clone).
	out := outcome{http.StatusOK, optimizeResponse{Program: res.F.String(), Functions: 1, Applied: res.Applied}}
	if res.FellBack() {
		out.body.Diagnostics = res.Diagnostics()
		if res.Canceled() {
			out.status = http.StatusGatewayTimeout
			out.body.Canceled = true
			out.body.Error = "deadline exceeded during optimization"
			out.body.Kind = "deadline"
		} else {
			// A fallback means some pass faulted on this function: capture
			// exactly the faulting function so failures under load become
			// minimal regression seeds.
			out.body.FellBack = true
			out.body.Quarantined = s.quarantine(j.request(), j.hdr.Fuel, j.hdr.Verify)
		}
	} else if cached {
		// Only clean successes are cacheable: the outcome is then a pure
		// function of the key. (Cancellations depend on the deadline;
		// fallbacks must keep quarantining.)
		s.cache.put(u.Key, out)
	}
	return out
}

// cached looks key up in the result cache (nil-safe), counting a read
// that failed its integrity check.
func (s *Server) cached(key string) (outcome, bool) {
	out, ok, corrupted := s.cache.get(key)
	if corrupted {
		s.cacheCorrupt.Add(1)
	}
	return out, ok
}

// quarantine captures a faulting input in the configured directory as a
// self-describing crasher: a "# replay:" directive line recording the
// pipeline configuration the failure was observed under (mode, fuel,
// verify — a fuel-starved crasher reproduces only under its fuel), then
// the program. Files are named by content hash and created with O_EXCL,
// so concurrent captures of the same defect collapse to one file and one
// count. It returns the file path, or "" when capture is disabled or
// failed (capture must never take the request down with it).
func (s *Server) quarantine(req optimizeRequest, fuel int, verify bool) string {
	if s.cfg.Quarantine == "" || req.Program == "" {
		return ""
	}
	d := triage.Directives{
		Mode:      req.Mode,
		Fuel:      fuel,
		Verify:    verify,
		Canonical: req.Canonical,
	}
	var b strings.Builder
	b.WriteString("# replay: " + d.String() + "\n\n")
	b.WriteString(req.Program)
	if !strings.HasSuffix(req.Program, "\n") {
		b.WriteByte('\n')
	}
	content := b.String()

	sum := sha256.Sum256([]byte(content))
	path := filepath.Join(s.cfg.Quarantine, "crash-"+hex.EncodeToString(sum[:8])+".ir")
	if err := s.fs.MkdirAll(s.cfg.Quarantine, 0o755); err != nil {
		return ""
	}
	// Crash-atomic capture: the .ir name appears only after its full
	// content is on disk (tmp + fsync + link), so a server killed
	// mid-capture leaves at worst a *.tmp partial the triage scanner
	// ignores and the next boot sweeps — never a truncated crasher. The
	// link doubles as the O_EXCL dedupe: concurrent captures of the same
	// defect produce one file and one count.
	switch err := atomicio.CreateExclusiveFS(s.fs, path, []byte(content), 0o644); {
	case err == nil:
		s.quarantined.Add(1)
		return path
	case errors.Is(err, os.ErrExist):
		return path // already captured: no second file, no second count
	default:
		return ""
	}
}

// effectiveFuel resolves a request's undegraded fixpoint budget: the
// client's when positive, else 0 (unlimited). Cache keys use it; at
// degrade level 1+ the request runs under a cap (optionsFor).
func (s *Server) effectiveFuel(req optimizeRequest) int { return max(req.Fuel, 0) }

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func msSince(t time.Time) int64 {
	return time.Since(t).Milliseconds()
}
