package lcmserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lazycm/internal/ir"
	"lazycm/internal/randprog"
	"lazycm/internal/textir"
)

// benchModule builds an all-healthy module of n moderately sized
// functions, each with hoistable redundancy, so batch wall-clock is
// dominated by real analysis work.
func benchModule(tb testing.TB, n int) string {
	tb.Helper()
	var b strings.Builder
	for i := 0; i < n; i++ {
		f := randprog.Generate(randprog.Config{
			Seed: int64(i + 1), MaxDepth: 4, MaxItems: 4, MaxStmts: 6,
			Vars: 10, Params: 4, MaxTrips: 4,
		})
		one := textir.PrintFunctions([]*ir.Function{f})
		b.WriteString(strings.Replace(one, "func ", fmt.Sprintf("func fn%d_", i), 1))
		b.WriteString("\n")
	}
	return b.String()
}

func benchBatch(b *testing.B, cfg Config, module string) {
	cfg.Queue = 64
	cfg.Timeout = time.Minute // measure throughput, not deadline slicing
	cfg.CacheSize = -1        // every iteration must do the work being measured
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, out := postBatch(b, ts, optimizeRequest{Program: module})
		if code != http.StatusOK || out.Optimized != out.Functions {
			b.Fatalf("batch degraded: status %d, %d/%d optimized (failed=%d)",
				code, out.Optimized, out.Functions, out.Failed)
		}
	}
}

// BenchmarkBatchServer measures a batch of 8 functions end to end over
// HTTP, serial dispatch (one worker, so one lane) against full-width
// dispatch (8 lanes into 8 workers).
//
// The compute variants run real LCM pipelines, so their serial/parallel
// ratio tracks the host's core count (on a single-core machine they tie).
// The latency variants pin per-item cost to a 10ms worker-side stall on a
// trivial program, isolating what the batch rewrite itself buys: with
// serial dispatch the stalls serialize (~8×10ms per batch), with parallel
// dispatch they overlap (~10ms), independent of core count.
func BenchmarkBatchServer(b *testing.B) {
	compute := benchModule(b, 8)
	b.Run("compute/serial", func(b *testing.B) {
		benchBatch(b, Config{Workers: 1}, compute)
	})
	b.Run("compute/parallel", func(b *testing.B) {
		benchBatch(b, Config{Workers: 8}, compute)
	})

	var tiny strings.Builder
	for i := 0; i < 8; i++ {
		tiny.WriteString(strings.Replace(diamond, "func ", fmt.Sprintf("func fn%d_", i), 1))
		tiny.WriteString("\n")
	}
	stall := func(optimizeRequest) { time.Sleep(10 * time.Millisecond) }
	b.Run("latency/serial", func(b *testing.B) {
		benchBatch(b, Config{Workers: 1, hook: stall}, tiny.String())
	})
	b.Run("latency/parallel", func(b *testing.B) {
		benchBatch(b, Config{Workers: 8, hook: stall}, tiny.String())
	})
}

// warmTrace builds the request bodies of a replayed production trace:
// distinct real programs, each requested more than once, the shape a
// durable cache exists for.
func warmTrace(tb testing.TB, n int) [][]byte {
	tb.Helper()
	bodies := make([][]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		f := randprog.Generate(randprog.Config{
			Seed: int64(i + 1), MaxDepth: 4, MaxItems: 4, MaxStmts: 6,
			Vars: 10, Params: 4, MaxTrips: 4,
		})
		body, err := json.Marshal(map[string]string{"program": textir.PrintFunctions([]*ir.Function{f})})
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, body, body)
	}
	return bodies
}

// replayTrace drives the trace through a server's handler in-process.
func replayTrace(b *testing.B, s *Server, trace [][]byte) {
	h := s.Handler()
	for _, body := range trace {
		req := httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("trace request answered %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkFunctionCacheReplay measures what function-granular cache
// keys buy on the canonical editing workload: a request for a module in
// which exactly one function changed since the last request. cold is the
// module-granular world — any edit invalidates everything, all n
// functions recompute. edit replays the n-1 untouched functions from the
// per-function cache and computes only the edited one; every iteration
// is verified from the counters to be exactly n-1 hits and one miss.
func BenchmarkFunctionCacheReplay(b *testing.B) {
	const n = 8
	funcs := make([]string, n)
	for i := range funcs {
		f := randprog.Generate(randprog.Config{
			Seed: int64(i + 1), MaxDepth: 4, MaxItems: 4, MaxStmts: 6,
			Vars: 10, Params: 4, MaxTrips: 4,
		})
		one := textir.PrintFunctions([]*ir.Function{f})
		funcs[i] = strings.Replace(one, "func ", fmt.Sprintf("func fn%d_", i), 1)
	}
	module := strings.Join(funcs, "\n")
	// editions[i] is the module with function 0 swapped for a fresh body
	// no prior iteration has seen, so each request misses exactly once.
	edition := func(i int) string {
		f := randprog.Generate(randprog.Config{
			Seed: int64(1000 + i), MaxDepth: 4, MaxItems: 4, MaxStmts: 6,
			Vars: 10, Params: 4, MaxTrips: 4,
		})
		one := strings.Replace(textir.PrintFunctions([]*ir.Function{f}), "func ", "func fn0_", 1)
		return one + "\n" + strings.Join(funcs[1:], "\n")
	}
	post := func(b *testing.B, s *Server, program string) {
		b.Helper()
		body, err := json.Marshal(map[string]string{"program": program})
		if err != nil {
			b.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("optimize answered %d: %s", rec.Code, rec.Body.String())
		}
	}
	cfg := Config{Workers: 4, Queue: 64, Timeout: time.Minute, Quarantine: ""}

	b.Run("cold", func(b *testing.B) {
		cold := cfg
		cold.CacheSize = -1
		s := NewServer(cold)
		defer s.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, s, module)
		}
	})
	b.Run("edit", func(b *testing.B) {
		s := NewServer(cfg)
		defer s.Close()
		post(b, s, module) // warm all n functions
		editions := make([]string, b.N)
		for i := range editions {
			editions[i] = edition(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			before := s.Stats()
			post(b, s, editions[i])
			after := s.Stats()
			if hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses; hits != n-1 || misses != 1 {
				b.Fatalf("iteration %d: %d hits / %d misses, want %d/1 (only the edited function recomputes)",
					i, hits, misses, n-1)
			}
		}
	})
}

// BenchmarkWarmStart measures what the durable tier buys a rebooted
// server: one iteration boots a server and replays the same trace, cold
// over an empty cache directory (every program computes) versus warm
// over the directory a previous boot left behind (every program replays
// from verified disk entries). The delta is the restart cost the tier
// deletes.
func BenchmarkWarmStart(b *testing.B) {
	trace := warmTrace(b, 8)
	cfg := func(dir string) Config {
		return Config{Workers: 4, Queue: 64, Timeout: time.Minute, Quarantine: "", CacheDir: dir}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := NewServer(cfg(b.TempDir()))
			replayTrace(b, s, trace)
			s.Close()
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		seed := NewServer(cfg(dir))
		replayTrace(b, seed, trace)
		seed.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := NewServer(cfg(dir))
			replayTrace(b, s, trace)
			if s.Stats().DiskHits == 0 {
				b.Fatal("warm boot served nothing from disk")
			}
			s.Close()
		}
	})
}

// BenchmarkUnitBuild is the unit build of an eight-function medium
// module, from the cut: /optimize's and batch's, each with every chunk
// in the alias (hit) and with the alias off, so every chunk is strictly
// parsed and printed (miss). Both hash every cache key.
func BenchmarkUnitBuild(b *testing.B) {
	module := benchModule(b, 8)
	req := optimizeRequest{Program: module, Mode: "lcm"}
	for _, view := range []string{"optimize", "batch"} {
		for _, alias := range []string{"hit", "miss"} {
			b.Run(view+"/"+alias, func(b *testing.B) {
				s := NewServer(Config{Workers: 1})
				defer s.Close()
				if alias == "miss" {
					s.alias = nil
				}
				build := func() {
					chunks, err := textir.Cut(module)
					if err != nil {
						b.Fatal(err)
					}
					if units := s.unitsFor(req, chunks, view == "optimize", false); len(units) != 8 || units[7].Key == "" {
						b.Fatalf("built %d units", len(units))
					}
				}
				build()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					build()
				}
			})
		}
	}
}
