package lcmclient

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"lazycm/internal/fleet"
)

// newMulti wires a MultiClient to scripted endpoint servers with waits
// recorded instead of slept.
func newMulti(t *testing.T, cfg *MultiClient, handlers ...http.Handler) (*MultiClient, []*httptest.Server) {
	t.Helper()
	servers := make([]*httptest.Server, len(handlers))
	for i, h := range handlers {
		servers[i] = httptest.NewServer(h)
		t.Cleanup(servers[i].Close)
		cfg.Endpoints = append(cfg.Endpoints, servers[i].URL)
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 6
	}
	if cfg.Budget == 0 {
		cfg.Budget = time.Minute
	}
	if cfg.sleep == nil {
		cfg.sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	}
	return cfg, servers
}

// programOwnedBy finds a program whose consistent-hash owner is the
// given endpoint, so tests control which replica is primary.
func programOwnedBy(t *testing.T, m *MultiClient, want string) string {
	t.Helper()
	m.init()
	for i := 0; i < 512; i++ {
		program := "func p" + string(rune('a'+i%26)) + string(rune('a'+i/26)) + "(x) {\ne:\n  ret x\n}\n"
		key := fleet.KeyOf("/optimize", program, "")
		if m.ring.Owner(key) == want {
			return program
		}
	}
	t.Fatalf("no program hashed to %s", want)
	return ""
}

func okHandler(program string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"program":` + jsonString(program) + `,"functions":1,"applied":["lcm"],"elapsed_ms":1}`))
	})
}

func jsonString(s string) string {
	out := `"`
	for _, r := range s {
		switch r {
		case '"':
			out += `\"`
		case '\\':
			out += `\\`
		case '\n':
			out += `\n`
		default:
			out += string(r)
		}
	}
	return out + `"`
}

// TestMultiAffinity: while the owner is healthy, every replay of the
// same program goes to it and only it.
func TestMultiAffinity(t *testing.T) {
	var hits [3]atomic.Int64
	handlers := make([]http.Handler, 3)
	for i := range handlers {
		idx := i
		inner := okHandler("func f(a) {\ne:\n  ret a\n}\n")
		handlers[i] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[idx].Add(1)
			inner.ServeHTTP(w, r)
		})
	}
	m, servers := newMulti(t, &MultiClient{}, handlers...)
	program := programOwnedBy(t, m, servers[1].URL)

	for i := 0; i < 5; i++ {
		if _, err := m.Optimize(context.Background(), Request{Program: program}); err != nil {
			t.Fatal(err)
		}
	}
	if got := hits[1].Load(); got != 5 {
		t.Errorf("owner served %d of 5 requests", got)
	}
	if hits[0].Load()+hits[2].Load() != 0 {
		t.Errorf("non-owners served traffic: %d, %d", hits[0].Load(), hits[2].Load())
	}
}

// TestMultiFailoverAndBreakerFreeze: a dead primary fails over to the
// next replica within one call; once its breaker opens, later calls
// stop hitting its wire entirely until the cooldown.
func TestMultiFailoverAndBreakerFreeze(t *testing.T) {
	var deadHits atomic.Int64
	dead := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadHits.Add(1)
		hj, _ := w.(http.Hijacker)
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close()
	})
	live := okHandler("func f(a) {\ne:\n  ret a\n}\n")
	m, servers := newMulti(t, &MultiClient{
		Breaker: fleet.BreakerConfig{FailureThreshold: 2, Cooldown: time.Minute},
	}, dead, live)
	program := programOwnedBy(t, m, servers[0].URL)

	// Call 1: attempt 1 dies on the primary, attempt 2 succeeds on the
	// replica — failover inside a single Optimize call.
	resp, err := m.Optimize(context.Background(), Request{Program: program})
	if err != nil {
		t.Fatalf("call 1: %v", err)
	}
	if resp.Program == "" {
		t.Fatal("call 1 returned no program")
	}
	if got := deadHits.Load(); got != 1 {
		t.Fatalf("call 1 hit the dead endpoint %d times, want 1", got)
	}

	// Call 2: second failure opens the breaker.
	if _, err := m.Optimize(context.Background(), Request{Program: program}); err != nil {
		t.Fatalf("call 2: %v", err)
	}
	if got := m.BreakerState(servers[0].URL); got != fleet.BreakerOpen {
		t.Fatalf("breaker after 2 failures = %v, want open", got)
	}
	frozen := deadHits.Load()

	// Calls 3..6: the open breaker keeps the dead endpoint off the wire.
	for i := 0; i < 4; i++ {
		if _, err := m.Optimize(context.Background(), Request{Program: program}); err != nil {
			t.Fatalf("call %d: %v", 3+i, err)
		}
	}
	if got := deadHits.Load(); got != frozen {
		t.Errorf("open breaker leaked wire attempts: %d -> %d", frozen, got)
	}
}

// TestMultiBreakerRecovery: after the cooldown, the next real request
// is routed at the tripped endpoint as its half-open probe; success
// closes the breaker.
func TestMultiBreakerRecovery(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() {
			hj, _ := w.(http.Hijacker)
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		okHandler("func f(a) {\ne:\n  ret a\n}\n").ServeHTTP(w, r)
	})
	live := okHandler("func f(a) {\ne:\n  ret a\n}\n")
	m, servers := newMulti(t, &MultiClient{
		Breaker: fleet.BreakerConfig{FailureThreshold: 1, Cooldown: 20 * time.Millisecond, HalfOpenProbes: 1},
	}, flaky, live)
	program := programOwnedBy(t, m, servers[0].URL)

	if _, err := m.Optimize(context.Background(), Request{Program: program}); err != nil {
		t.Fatal(err)
	}
	if got := m.BreakerState(servers[0].URL); got != fleet.BreakerOpen {
		t.Fatalf("breaker = %v, want open", got)
	}

	fail.Store(false)
	time.Sleep(30 * time.Millisecond) // past the cooldown
	if _, err := m.Optimize(context.Background(), Request{Program: program}); err != nil {
		t.Fatal(err)
	}
	if got := m.BreakerState(servers[0].URL); got != fleet.BreakerClosed {
		t.Fatalf("breaker after successful probe = %v, want closed", got)
	}
}

// TestMultiTerminalStopsRouting: a terminal classification from any
// replica ends the call — no retry against other endpoints.
func TestMultiTerminalStopsRouting(t *testing.T) {
	var hits [2]atomic.Int64
	handlers := make([]http.Handler, 2)
	for i := range handlers {
		idx := i
		handlers[i] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[idx].Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			w.Write([]byte(`{"error":"no good","kind":"parse","degrade_level":1,"elapsed_ms":0}`))
		})
	}
	m, _ := newMulti(t, &MultiClient{}, handlers...)
	_, err := m.Optimize(context.Background(), Request{Program: "x"})
	var term *TerminalError
	if !errors.As(err, &term) {
		t.Fatalf("got %v, want TerminalError", err)
	}
	if term.Status != http.StatusBadRequest || term.DegradeLevel != 1 {
		t.Errorf("terminal error dropped fields: %+v", term)
	}
	if hits[0].Load()+hits[1].Load() != 1 {
		t.Errorf("terminal failure was retried: %d total hits", hits[0].Load()+hits[1].Load())
	}
}
