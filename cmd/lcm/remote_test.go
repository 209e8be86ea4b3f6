package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"lazycm/internal/lcmserver"
	"lazycm/internal/pipeline"
	"lazycm/internal/textir"
)

// optimizeWire mirrors lcmd's POST /optimize request body. The
// scripted stand-in below runs the same pipeline through the same
// printer, which is exactly the property the round-trip test locks in,
// and lets tests put sheds and fixed answers in front of it;
// TestRemoteTrailingSlashRealServer drives the real lcmserver handler.
type optimizeWire struct {
	Program   string `json:"program"`
	Mode      string `json:"mode"`
	Fuel      int    `json:"fuel"`
	TimeoutMS int64  `json:"timeout_ms"`
	Verify    bool   `json:"verify"`
	Canonical bool   `json:"canonical"`
}

// remoteTestServer serves lcmd's /optimize contract backed directly by
// pipeline.Run. front, when non-nil, sees every request first with its
// 1-based attempt number and may handle it (return true) — used to
// script sheds and fixed responses in front of the real optimizer.
func remoteTestServer(t *testing.T, front func(w http.ResponseWriter, attempt int64) bool) *httptest.Server {
	t.Helper()
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if front != nil && front(w, attempts.Add(1)) {
			return
		}
		var req optimizeWire
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeWire(w, http.StatusBadRequest, map[string]any{"error": err.Error(), "kind": "decode"})
			return
		}
		mode := req.Mode
		if mode == "" {
			mode = "lcm"
		}
		pass, ok := pipeline.ForMode(mode)
		if !ok {
			writeWire(w, http.StatusBadRequest, map[string]any{"error": "unknown mode " + mode, "kind": "mode"})
			return
		}
		fns, err := textir.Parse(req.Program)
		if err != nil {
			writeWire(w, http.StatusBadRequest, map[string]any{"error": err.Error(), "kind": "parse"})
			return
		}
		resp := map[string]any{}
		var outs []string
		var diags []string
		fellBack := false
		for _, f := range fns {
			res, err := pipeline.Run(f, []pipeline.Pass{pass}, pipeline.Options{
				Fuel: req.Fuel, Canonical: req.Canonical, Verify: req.Verify,
			})
			if err != nil {
				status, kind := http.StatusInternalServerError, "panic"
				if errors.Is(err, pipeline.ErrInvalidInput) {
					status, kind = http.StatusBadRequest, "invalid"
				}
				writeWire(w, status, map[string]any{"error": f.Name + ": " + err.Error(), "kind": kind})
				return
			}
			outs = append(outs, res.F.String())
			if res.FellBack() {
				fellBack = true
				diags = append(diags, res.Diagnostics()...)
			}
		}
		resp["program"] = strings.Join(outs, "\n") // textir.PrintFunctions shape
		resp["fell_back"] = fellBack
		resp["diagnostics"] = diags
		writeWire(w, http.StatusOK, resp)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func writeWire(w http.ResponseWriter, status int, body map[string]any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// TestRemoteRoundTripByteIdentical is the acceptance gate for -remote:
// for every testdata input and a multi-function module, optimizing
// through the wire produces byte-for-byte the output of optimizing
// locally, with the same exit code.
func TestRemoteRoundTripByteIdentical(t *testing.T) {
	ts := remoteTestServer(t, nil)
	inputs, err := filepath.Glob(filepath.Join(testdata, "*.ir"))
	if err != nil || len(inputs) == 0 {
		t.Fatalf("no testdata inputs: %v", err)
	}
	// A multi-function module exercises the joined-printer path.
	var module strings.Builder
	for _, in := range inputs[:2] {
		src, err := os.ReadFile(in)
		if err != nil {
			t.Fatal(err)
		}
		module.Write(src)
	}

	type input struct {
		name  string
		args  []string
		stdin string
	}
	cases := []input{{name: "module", stdin: module.String()}}
	for _, in := range inputs {
		cases = append(cases, input{name: filepath.Base(in), args: []string{in}})
	}
	for _, mode := range []string{"lcm", "bcm", "gcse"} {
		for _, tc := range cases {
			t.Run(mode+"/"+tc.name, func(t *testing.T) {
				var local, remote strings.Builder
				localCode, err := run(append([]string{"-mode", mode}, tc.args...),
					strings.NewReader(tc.stdin), &local)
				if err != nil {
					t.Fatalf("local run: %v", err)
				}
				remoteCode, err := run(append([]string{"-mode", mode, "-remote", ts.URL}, tc.args...),
					strings.NewReader(tc.stdin), &remote)
				if err != nil {
					t.Fatalf("remote run: %v", err)
				}
				if localCode != remoteCode {
					t.Errorf("exit codes differ: local %d, remote %d", localCode, remoteCode)
				}
				if local.String() != remote.String() {
					t.Errorf("remote output differs from local:\n--- local ---\n%s\n--- remote ---\n%s",
						local.String(), remote.String())
				}
			})
		}
	}
}

// TestRemoteRejectsLocalOnlyFlags: display and execution flags need the
// in-process analysis and must be refused up front, before any input is
// read or any request sent.
func TestRemoteRejectsLocalOnlyFlags(t *testing.T) {
	for _, flag := range []string{"-predicates", "-dot", "-stats", "-simplify"} {
		code, err := run([]string{flag, "-remote", "http://127.0.0.1:0"},
			strings.NewReader(diamondSrc), &strings.Builder{})
		if code != exitInvalid || err == nil {
			t.Errorf("%s with -remote: code %d err %v, want %d and an error", flag, code, err, exitInvalid)
		}
	}
	code, err := run([]string{"-run", "1,2", "-remote", "http://127.0.0.1:0"},
		strings.NewReader(diamondSrc), &strings.Builder{})
	if code != exitInvalid || err == nil {
		t.Errorf("-run with -remote: code %d err %v, want %d and an error", code, err, exitInvalid)
	}
}

const diamondSrc = "func f(a, b, c) {\nentry:\n  br c then else\nthen:\n  x = a + b\n  jmp join\nelse:\n  jmp join\njoin:\n  y = a + b\n  ret y\n}\n"

// TestRemoteRejectsEndpointList: -remote names one server; a list is a
// usage error that points at lcmgate, before any request is sent.
func TestRemoteRejectsEndpointList(t *testing.T) {
	code, err := run([]string{"-remote", "http://127.0.0.1:0,http://127.0.0.1:1"},
		strings.NewReader(diamondSrc), &strings.Builder{})
	if code != exitInvalid || err == nil || !strings.Contains(err.Error(), "lcmgate") {
		t.Errorf("endpoint list: code %d err %v, want %d and an error naming lcmgate", code, err, exitInvalid)
	}
}

// TestRemoteTrailingSlashRealServer: a -remote root written with a
// trailing slash reaches a real lcmd handler's /optimize — not
// "//optimize", which its router redirects into a GET — and the output
// is byte-identical to a local run.
func TestRemoteTrailingSlashRealServer(t *testing.T) {
	srv := lcmserver.NewServer(lcmserver.Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	var local, remote strings.Builder
	if _, err := run(nil, strings.NewReader(diamondSrc), &local); err != nil {
		t.Fatal(err)
	}
	code, err := run([]string{"-remote", ts.URL + "/"}, strings.NewReader(diamondSrc), &remote)
	if code != exitOptimized || err != nil {
		t.Fatalf("remote run with trailing slash: code %d err %v", code, err)
	}
	if local.String() != remote.String() {
		t.Errorf("remote output differs from local:\n--- local ---\n%s\n--- remote ---\n%s",
			local.String(), remote.String())
	}
}

// TestRemoteTerminalErrors: server-side terminal classifications map to
// the CLI's exit-code contract — parse failures to exitInvalid, expired
// deadlines to exitDeadline — without retrying.
func TestRemoteTerminalErrors(t *testing.T) {
	ts := remoteTestServer(t, nil)
	code, err := run([]string{"-remote", ts.URL}, strings.NewReader("this is not IR"), &strings.Builder{})
	if code != exitInvalid || err == nil {
		t.Errorf("garbage program: code %d err %v, want %d and an error", code, err, exitInvalid)
	}

	var attempts atomic.Int64
	dead := remoteTestServer(t, func(w http.ResponseWriter, n int64) bool {
		attempts.Store(n)
		writeWire(w, http.StatusGatewayTimeout, map[string]any{
			"error": "deadline exceeded during optimization", "kind": "deadline", "canceled": true,
		})
		return true
	})
	code, err = run([]string{"-remote", dead.URL}, strings.NewReader(diamondSrc), &strings.Builder{})
	if code != exitDeadline || err == nil {
		t.Errorf("server deadline: code %d err %v, want %d and an error", code, err, exitDeadline)
	}
	if attempts.Load() != 1 {
		t.Errorf("terminal 504 was retried: %d attempts", attempts.Load())
	}
}

// TestRemoteFallback: a fell-back remote result honors the -fallback
// contract — annotated original with exitFellBack when asked for, a hard
// error otherwise.
func TestRemoteFallback(t *testing.T) {
	ts := remoteTestServer(t, func(w http.ResponseWriter, _ int64) bool {
		writeWire(w, http.StatusOK, map[string]any{
			"program":     diamondSrc,
			"fell_back":   true,
			"diagnostics": []string{"pass lcm: result failed validation"},
		})
		return true
	})
	var out strings.Builder
	code, err := run([]string{"-remote", ts.URL, "-fallback"}, strings.NewReader(diamondSrc), &out)
	if code != exitFellBack || err != nil {
		t.Fatalf("fallback run: code %d err %v, want %d and nil", code, err, exitFellBack)
	}
	if !strings.HasPrefix(out.String(), "# fallback: pass lcm: result failed validation\n") {
		t.Errorf("missing fallback annotation:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "func f(a, b, c)") {
		t.Errorf("fallback output missing the original program:\n%s", out.String())
	}

	code, err = run([]string{"-remote", ts.URL}, strings.NewReader(diamondSrc), &strings.Builder{})
	if code != exitError || err == nil {
		t.Errorf("fallback without -fallback: code %d err %v, want %d and an error", code, err, exitError)
	}
}

// TestRemoteRetriesThroughShedding: the CLI rides the client's retry
// contract through a 429 (with a millisecond hint) and a 503, then
// produces output byte-identical to a local run.
func TestRemoteRetriesThroughShedding(t *testing.T) {
	ts := remoteTestServer(t, func(w http.ResponseWriter, attempt int64) bool {
		switch attempt {
		case 1:
			writeWire(w, http.StatusTooManyRequests, map[string]any{
				"error": "server is shedding load", "kind": "overload", "retry_after_ms": 1,
			})
			return true
		case 2:
			writeWire(w, http.StatusServiceUnavailable, map[string]any{
				"error": "server is draining", "kind": "draining", "retry_after_ms": 1,
			})
			return true
		}
		return false
	})
	var local, remote strings.Builder
	if _, err := run(nil, strings.NewReader(diamondSrc), &local); err != nil {
		t.Fatal(err)
	}
	code, err := run([]string{"-remote", ts.URL}, strings.NewReader(diamondSrc), &remote)
	if code != exitOptimized || err != nil {
		t.Fatalf("remote run through sheds: code %d err %v", code, err)
	}
	if local.String() != remote.String() {
		t.Errorf("post-retry output differs from local:\n--- local ---\n%s\n--- remote ---\n%s",
			local.String(), remote.String())
	}
}
