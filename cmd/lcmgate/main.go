// Command lcmgate is the fleet front end for lcmd: it consistent-hashes
// optimization requests across N backends for cache affinity, fails
// over along the ring when a node dies or sheds, circuit-breaks dead
// backends out of the rotation, and collapses identical in-flight
// requests into a single backend call.
//
// Endpoints:
//
//	POST /optimize        — proxied to the owning backend (failover on error)
//	POST /optimize/batch  — same routing, batch payloads (?job= passes through)
//	POST /optimize/stream — NDJSON stream proxied unbuffered, flush per
//	                        chunk; failover only before the first byte
//	GET  /jobs/{id}        — buffered proxy; 404s walk the replicas (a job
//	                        lives only on the backend that admitted it)
//	GET  /jobs/{id}/stream — unbuffered resume stream, same 404 walk
//	GET  /healthz         — gateway + per-backend routing statistics, each
//	                        backend's /readyz gauges, and their fleet sums
//	GET  /readyz          — 200 while at least one backend is admittable
//	POST /admin/reload    — swap the backend set: {"backends": [...]}
//
// Membership is live: -backends-file names a file with one backend URL
// per line (# comments allowed); SIGHUP re-reads it, keeps the -backends
// members, and applies the change with minimal ring movement —
// surviving backends keep their placements and breaker history, removed
// ones drain their in-flight work, added ones start fresh.
// /admin/reload replaces the whole set over HTTP.
//
// Placement is fixed: 512 virtual nodes per backend on the hash ring,
// and a backend holding more than 1.25× the fleet average of in-flight
// requests spills new placements to its next replica. So is each
// backend's circuit breaker, fleet's default: 5 consecutive failures
// open it, it probes after 2 s, and 2 probe successes close it. A
// proxied NDJSON stream may run 5 minutes end to end; every other
// proxied request gets -timeout. The query string reaches the backend (a
// ?job= batch is a resumable job), while placement hashes only path and
// body, so a module's plain and ?job= forms share one home backend.
//
// Routing cannot change results: every backend computes byte-identical
// output for the same request (see DESIGN.md §8), so failover and
// dedupe are always safe.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
)

func main() {
	var (
		addr           = flag.String("addr", ":8656", "listen address")
		backends       = flag.String("backends", "", "comma-separated lcmd base URLs (required unless -backends-file)")
		backendsFile   = flag.String("backends-file", "", "file with one backend URL per line; SIGHUP re-reads it")
		attemptTimeout = flag.Duration("attempt-timeout", DefaultAttemptTimeout, "per-backend attempt budget")
		timeout        = flag.Duration("timeout", DefaultTimeout, "end-to-end budget per proxied request")
		healthInterval = flag.Duration("health-interval", DefaultHealthInterval, "per-backend /readyz polling period")
		accessLog      = flag.String("access-log", "", "routing log destination: a file path, '-' for stderr, empty for none")
	)
	flag.Parse()

	ids, err := membership(*backends, *backendsFile)
	if err != nil {
		log.Fatalf("lcmgate: %v", err)
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "lcmgate: -backends or -backends-file is required (lcmd base URLs)")
		os.Exit(2)
	}

	var logDst io.Writer
	switch *accessLog {
	case "":
	case "-":
		logDst = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("lcmgate: opening access log: %v", err)
		}
		defer f.Close()
		logDst = f
	}

	gw, err := NewGateway(Config{
		Backends:       ids,
		AttemptTimeout: *attemptTimeout,
		Timeout:        *timeout,
		HealthInterval: *healthInterval,
		AccessLog:      logDst,
	})
	if err != nil {
		log.Fatalf("lcmgate: %v", err)
	}

	srv := &http.Server{Addr: *addr, Handler: gw.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("lcmgate listening on %s, routing across %d backends", *addr, len(ids))

	// SIGHUP re-reads -backends-file and applies the membership change
	// without dropping a request; without the flag it is ignored.
	if *backendsFile != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				next, err := membership(*backends, *backendsFile)
				if err != nil {
					log.Printf("lcmgate: SIGHUP: %v (membership unchanged)", err)
					continue
				}
				if err := gw.Reload(next); err != nil {
					log.Printf("lcmgate: SIGHUP: %v (membership unchanged)", err)
					continue
				}
				log.Printf("lcmgate: SIGHUP: membership reloaded, %d backends", len(next))
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatalf("lcmgate: %v", err)
	case s := <-sig:
		log.Printf("lcmgate: %v received, shutting down", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2**timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("lcmgate: shutdown: %v", err)
	}
	gw.Close()
}

// membership is the backend set: the -backends list followed by the
// -backends-file lines, each trimmed of space and trailing slashes, with
// blank entries and #-comments dropped. Boot and SIGHUP both compute it
// here, so a reload re-reads the file without dropping the -backends
// members.
func membership(list, file string) ([]string, error) {
	entries := strings.Split(list, ",")
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("reading backends file: %w", err)
		}
		entries = append(entries, strings.Split(string(data), "\n")...)
	}
	var ids []string
	for _, e := range entries {
		e = strings.TrimRight(strings.TrimSpace(e), "/")
		if e != "" && !strings.HasPrefix(e, "#") {
			ids = append(ids, e)
		}
	}
	return ids, nil
}
