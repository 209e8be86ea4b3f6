package lcmserver

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lazycm/internal/overload"
)

var updateRenderings = flag.Bool("update", false, "rewrite testdata/renderings from this build")

// renderingCase is one module sent to every module endpoint. alias says
// whether its fn_alias_hits are pinned: they are for canonical modules,
// whose chunks every endpoint keys the same way; a respelled or broken
// module may take a different number of units from the alias without
// changing an answer.
type renderingCase struct {
	name  string
	req   optimizeRequest
	alias bool
}

func renderingCases() []renderingCase {
	fns := aliasFuncs(4)
	canonical := strings.Join(fns, "\n")
	broken := "# the next function does not parse\n\nfunc bad(a) {\ne:\n  # x is next\n\n  y = a\n\n  x = a +\n  ret x\n}\n"
	return []renderingCase{
		{"canonical", optimizeRequest{Program: canonical}, true},
		{"canonical_gcse_packed", optimizeRequest{Program: strings.Join(fns[1:], ""), Mode: "gcse"}, true},
		{"canonical_fuel_starved", optimizeRequest{Program: fns[0] + "\n" + fns[1], Fuel: 1}, true},
		{"comments_before_broken_line", optimizeRequest{Program: fns[0] + "\n" + broken + "\n" + fns[2]}, false},
		{"crlf", optimizeRequest{Program: respell(fns[2], "\r\n") + "\r\n" + respell(fns[3], "\n")}, false},
		{"crlf_broken", optimizeRequest{Program: strings.ReplaceAll(fns[1]+broken+fns[3], "\n", "\r\n")}, false},
		{"nested_func", optimizeRequest{Program: fns[0] + "func outer(a) {\ne:\nfunc inner(b) {\ne:\n  ret b\n}\n  ret a\n}\n" + fns[1]}, false},
		{"stray_close", optimizeRequest{Program: fns[0] + "}\n" + fns[1]}, false},
		{"statement_outside", optimizeRequest{Program: fns[0] + "\n  x = 1\n" + fns[1]}, false},
		{"missing_brace", optimizeRequest{Program: fns[0] + "\n" + strings.TrimSuffix(fns[1], "}\n")}, false},
		{"trailing_text", optimizeRequest{Program: canonical + "trailing text\n"}, false},
		{"empty", optimizeRequest{}, false},
		{"two_spellings", optimizeRequest{Program: respell(fns[0], "\n") + "\n" + fns[1] + fns[0]}, false},
		{"invalid_function", optimizeRequest{Program: fns[1] + "func inv(a) {\ne:\n  jmp nowhere\n}\n" + fns[2]}, false},
		{"loose_statement", optimizeRequest{Program: fns[3] + "func lead(a) {\n  x = a\ne:\n  ret x\n}\n"}, false},
	}
}

// renderingCounters are the /healthz counters a request moves. Only a
// pinned case records fn_alias_hits.
var renderingCounters = []string{
	"requests", "optimized", "fell_back", "canceled", "invalid", "shed", "panics",
	"quarantined", "fn_cache_hits", "fn_cache_misses", "cache_entries",
}

// renderingExchange is one request and what it answered: the status, the
// body with elapsed_ms removed, stream items in module order and the
// quarantine directory spelled $Q, and each counter's delta.
type renderingExchange struct {
	Path     string           `json:"path"`
	Pass     string           `json:"pass"`
	Status   int              `json:"status"`
	Body     json.RawMessage  `json:"body"`
	Counters map[string]int64 `json:"counters"`
}

// TestRenderings replays the recordings in testdata/renderings: every
// case goes to /optimize, batch, stream and both ?job= forms, each on a
// fresh server, cold and then warm, and every body and counter delta
// must be the recorded one. Run with -update to re-record.
func TestRenderings(t *testing.T) {
	paths := []string{"/optimize", "/optimize/batch", "/optimize/stream", "/optimize/batch?job=1", "/optimize/stream?job=1"}
	calm := overload.Config{Enter: [3]float64{10, 10, 10}, Exit: [3]float64{9, 9, 9}}
	for _, c := range renderingCases() {
		t.Run(c.name, func(t *testing.T) {
			var got []renderingExchange
			for _, path := range paths {
				qdir := t.TempDir()
				_, ts := newTestServer(t, Config{Workers: 1, Queue: 64, Timeout: time.Minute, Degrade: calm, Quarantine: qdir})
				for _, pass := range []string{"cold", "warm"} {
					_, before := getHealthz(t, ts)
					code, body := sendNormalized(t, ts, path, c.req)
					_, after := getHealthz(t, ts)
					ex := renderingExchange{
						Path: path, Pass: pass, Status: code,
						Body:     json.RawMessage(strings.ReplaceAll(body, qdir, "$Q")),
						Counters: map[string]int64{},
					}
					names := renderingCounters
					if c.alias {
						names = append(names[:len(names):len(names)], "fn_alias_hits")
					}
					for _, k := range names {
						a, ok1 := after[k].(float64)
						b, ok2 := before[k].(float64)
						if !ok1 || !ok2 {
							t.Fatalf("/healthz lacks %q", k)
						}
						ex.Counters[k] = int64(a - b)
					}
					got = append(got, ex)
				}
			}
			file := filepath.Join("testdata", "renderings", c.name+".json")
			enc, err := json.MarshalIndent(struct {
				Request   optimizeRequest     `json:"request"`
				Exchanges []renderingExchange `json:"exchanges"`
			}{c.req, got}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			enc = append(enc, '\n')
			if *updateRenderings {
				if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(file, enc, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(enc, want) {
				return
			}
			var rec struct {
				Request   optimizeRequest     `json:"request"`
				Exchanges []renderingExchange `json:"exchanges"`
			}
			if err := json.Unmarshal(want, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Request != c.req {
				t.Fatalf("request %+v, recorded %+v", c.req, rec.Request)
			}
			for i, ex := range got {
				g, _ := json.Marshal(ex)
				w, _ := json.Marshal(rec.Exchanges[i])
				if !bytes.Equal(g, w) {
					t.Errorf("%s %s:\n got %s\nwant %s", ex.Path, ex.Pass, g, w)
				}
			}
			if !t.Failed() {
				t.Fatalf("%s differs from this run in layout only; re-record it with -update", file)
			}
		})
	}
}
