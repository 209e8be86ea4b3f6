// Command lcmd serves the lazy-code-motion optimizer over HTTP/JSON.
//
// Usage:
//
//	lcmd [flags]
//
// Endpoints:
//
//	POST /optimize        {"program": "...", "mode": "lcm", "timeout_ms": 500}
//	                      → {"program": "...", "applied": [...], ...};
//	                      a positive "fuel" bounds each fixpoint's node
//	                      visits (the default is unlimited)
//	POST /optimize/batch  whole-module optimization with per-function
//	                      fault isolation: one result entry per function;
//	                      with ?job= the batch becomes a resumable job
//	                      (idempotent, content-addressed job_id)
//	POST /optimize/stream NDJSON streaming batch: one record per function
//	                      as it completes, a heartbeat every 10s while
//	                      none does, then a trailer with the aggregates;
//	                      ?job= makes it resumable
//	GET  /jobs/{id}        point-in-time job progress snapshot; a finished
//	                      journal is read on its first lookup, and a
//	                      function whose cache entry is gone reopens
//	GET  /jobs/{id}/stream resume a job's stream: replay completed items,
//	                      follow the rest
//	GET  /healthz         pool and outcome counters; 503 while draining.
//	                      solver_parallel_slices and solver_sparse_skips
//	                      are retired and always read 0
//	GET  /readyz          cheap readiness probe for gateways: 503 while
//	                      draining or shedding all work (degrade level 3)
//
// Flags:
//
//	-addr A          listen address (default :8657)
//	-workers N       optimization worker pool size, and how many
//	                 functions of one request — /optimize, batch or
//	                 stream — are dispatched at once (default GOMAXPROCS)
//	-queue N         admission queue capacity; a full queue sheds load
//	                 with 429 + Retry-After (default 4×workers). A batch
//	                 or stream needs a slot per function, an /optimize
//	                 one, widening into free slots as it fans out
//	-timeout D       default per-request budget (default 5s); a client
//	                 may ask for up to 4× this
//	-cache N         result-cache capacity in entries: identical
//	                 (program, directives) requests replay their clean
//	                 outcome (default 128; negative disables)
//	-cache-dir DIR   durable cache directory: clean outcomes are written
//	                 through to disk (hash-verified on read) and reloaded
//	                 on restart, so a rebooted server keeps its warmth
//	                 ("" disables)
//	-cache-bytes N   byte budget for -cache-dir, LRU-evicted (default 64MiB)
//	-peers LIST      comma-separated base URLs of fleet peers; a local
//	                 cache miss asks the key's ring-owner neighbors before
//	                 computing — strictly fail-open ("" disables)
//	-journal-dir DIR write-ahead journal directory for ?job= submissions:
//	                 jobs survive a crash-restart and resume without
//	                 recomputing finished functions ("" disables jobs'
//	                 durability; they remain resumable in-process);
//	                 journals older than 1h are swept at boot
//	-io-timeout D    deadline on every blocking filesystem operation on
//	                 the durable paths, all of which go through one
//	                 guard that also feeds the disk-health tracker — a
//	                 stalled fsync errors out instead of wedging a
//	                 worker (default 2s; 0 disables the deadline)
//	-quarantine DIR  capture inputs that fault or fall back as .ir seeds
//	                 ("" disables; default testdata/crashers)
//	-drain D         grace period for in-flight work on SIGTERM/SIGINT
//	                 (default 30s)
//	-degraded-fuel N fuel cap applied at degrade level 1+ (0 = default,
//	                 negative disables the shrink)
//	-chaos SPEC      TEST ONLY: inject service-level faults, e.g.
//	                 "seed=7,latency=5ms:0.2,stall=50ms:0.05,panic=0.02,
//	                 fault=0.1,corrupt=0.2" (see internal/chaos)
//
// The service wraps the hardened pass pipeline: every request runs under
// its own deadline (threaded into each data-flow fixpoint), the
// functions of every request — /optimize, batch or stream — fan out
// over the worker pool as items of one job, panics are contained per
// function, and a faulting pass degrades that one function to the
// validated input instead of killing the server. On SIGTERM the server
// stops admitting work (503), refuses the functions of in-flight
// requests it has not dispatched yet, finishes what is in flight, and
// exits cleanly.
//
// Under sustained pressure the server walks a degradation ladder instead
// of collapsing: level 1 disables verification and shrinks fuel, level 2
// sheds batch work and serves singles (cache first), level 3 sheds all
// new work. Every 429/503 carries a load-aware Retry-After. The current
// level is visible on /healthz as degrade_level.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"lazycm/internal/chaos"
	"lazycm/internal/lcmserver"
)

// splitPeers turns the -peers flag's comma-separated list into the
// config slice, dropping empty segments.
func splitPeers(list string) []string {
	var out []string
	for _, p := range strings.Split(list, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	fs := flag.NewFlagSet("lcmd", flag.ExitOnError)
	addr := fs.String("addr", ":8657", "listen address")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "optimization worker pool size")
	queue := fs.Int("queue", 0, "admission queue capacity (0 = 4×workers)")
	timeout := fs.Duration("timeout", lcmserver.DefaultTimeout, "default per-request budget")
	cacheSize := fs.Int("cache", 0, "result-cache capacity in entries (0 = default, negative disables)")
	cacheDir := fs.String("cache-dir", "", "durable cache directory (\"\" disables)")
	cacheBytes := fs.Int64("cache-bytes", 0, "byte budget for -cache-dir (0 = 64MiB)")
	peers := fs.String("peers", "", "comma-separated fleet peer base URLs for cache fill (\"\" disables)")
	journalDir := fs.String("journal-dir", "", "write-ahead journal directory for resumable jobs (\"\" disables durability)")
	ioTimeout := fs.Duration("io-timeout", 2*time.Second, "deadline per blocking filesystem operation on durable paths (0 disables)")
	quarantine := fs.String("quarantine", "testdata/crashers", "directory for faulting inputs (\"\" disables)")
	drain := fs.Duration("drain", 30*time.Second, "grace period for in-flight work on shutdown")
	degradedFuel := fs.Int("degraded-fuel", 0, "fuel cap at degrade level 1+ (0 = default, negative disables)")
	chaosSpec := fs.String("chaos", "", "TEST ONLY: service-level fault injection spec (see internal/chaos)")
	_ = fs.Parse(os.Args[1:])

	var injector *chaos.Injector
	if *chaosSpec != "" {
		cfg, err := chaos.Parse(*chaosSpec)
		if err != nil {
			log.Fatalf("lcmd: %v", err)
		}
		log.Printf("lcmd: CHAOS MODE (test only): %q", *chaosSpec)
		injector = chaos.New(cfg)
	}

	srv := lcmserver.NewServer(lcmserver.Config{
		Workers:      *workers,
		Queue:        *queue,
		Timeout:      *timeout,
		Quarantine:   *quarantine,
		CacheSize:    *cacheSize,
		CacheDir:     *cacheDir,
		CacheBytes:   *cacheBytes,
		Peers:        splitPeers(*peers),
		JournalDir:   *journalDir,
		IOTimeout:    *ioTimeout,
		DegradedFuel: *degradedFuel,
		Chaos:        injector,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("lcmd: listening on %s (%d workers, queue %d)", *addr, *workers, *queue)

	select {
	case err := <-errc:
		log.Fatalf("lcmd: %v", err)
	case <-ctx.Done():
	}

	// Graceful drain: reject new work first, let in-flight handlers finish
	// within the grace period, then stop the worker pool.
	log.Printf("lcmd: draining (up to %v)...", *drain)
	srv.BeginDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("lcmd: forced shutdown: %v", err)
		_ = httpSrv.Close()
	}
	srv.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "lcmd:", err)
		os.Exit(1)
	}
	log.Printf("lcmd: drained, bye")
}
