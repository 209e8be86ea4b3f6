package lcmserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"lazycm/internal/ir"
	"lazycm/internal/overload"
	"lazycm/internal/randprog"
	"lazycm/internal/textir"
)

// aliasFuncs returns n canonical randprog functions named fn0, fn1, ...
func aliasFuncs(n int) []string {
	out := make([]string, n)
	for i := range out {
		f := randprog.Generate(randprog.Config{
			Seed: int64(i + 1), MaxDepth: 3, MaxItems: 3, MaxStmts: 4,
			Vars: 6, Params: 3, MaxTrips: 3,
		})
		one := textir.PrintFunctions([]*ir.Function{f})
		out[i] = strings.Replace(one, "func ", fmt.Sprintf("func fn%d_", i), 1)
	}
	return out
}

// respell spells a canonical function differently without changing what
// it parses to: spaces and tabs between tokens, comments after lines and
// on lines of their own, blank lines, and the line end nl.
func respell(fn, nl string) string {
	var b strings.Builder
	for i, line := range strings.Split(strings.TrimSuffix(fn, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "func "):
			line = strings.ReplaceAll(line, ", ", " ,\t") + "  # respelled"
		case strings.HasSuffix(line, ":") || line == "}":
			line += "   # " + line
		default:
			line = "\t" + strings.Join(strings.Fields(line), "  ")
		}
		b.WriteString(line + nl)
		if i%3 == 1 {
			b.WriteString(nl + "  # a comment line" + nl)
		}
	}
	return b.String()
}

// aliasModules are the modules the alias must never change an answer
// for: canonical, respelled (two spellings of one function in one
// module), respelled with CRLF line ends, one whose third function fails
// the strict parse, one whose second fails validation, and two the
// strict cut rejects.
func aliasModules() []string {
	fns := aliasFuncs(4)
	canonical := strings.Join(fns, "\n")
	bad := "func bad(a) {\ne:\n  x = a +\n  ret x\n}\n"
	invalid := "func inv(a) {\ne:\n  jmp nowhere\n}\n"
	return []string{
		canonical,
		respell(fns[0], "\n") + "\n" + fns[1] + fns[0],
		respell(fns[2], "\r\n") + "\r\n" + respell(fns[3], "\n"),
		fns[0] + "\n" + fns[1] + "\n" + bad + "\n" + fns[3],
		fns[1] + invalid + fns[2],
		fns[0] + "\n" + strings.TrimSuffix(fns[1], "}\n"),
		canonical + "trailing text\n",
	}
}

// sendNormalized posts req to path and returns the status and the body
// with every elapsed_ms removed, heartbeats dropped, and stream items
// in module order.
func sendNormalized(t *testing.T, ts *httptest.Server, path string, req optimizeRequest) (int, string) {
	t.Helper()
	code, body, err := postNormalized(ts, path, req)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return code, body
}

// postNormalized is sendNormalized for any goroutine.
func postNormalized(ts *httptest.Server, path string, req optimizeRequest) (int, string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, "", err
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var recs []map[string]any
	dec := json.NewDecoder(resp.Body)
	for {
		var rec map[string]any
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return 0, "", fmt.Errorf("bad body: %v", err)
		}
		dropElapsed(rec)
		if rec["type"] != "heartbeat" {
			recs = append(recs, rec)
		}
	}
	rank := func(r map[string]any) float64 {
		switch r["type"] {
		case "job":
			return -1
		case "trailer":
			return 1 << 30
		}
		i, _ := r["index"].(float64)
		return i
	}
	sort.SliceStable(recs, func(i, j int) bool { return rank(recs[i]) < rank(recs[j]) })
	out, err := json.Marshal(recs)
	return resp.StatusCode, string(out), err
}

func dropElapsed(v any) {
	switch x := v.(type) {
	case map[string]any:
		delete(x, "elapsed_ms")
		for _, e := range x {
			dropElapsed(e)
		}
	case []any:
		for _, e := range x {
			dropElapsed(e)
		}
	}
}

// aliasable counts the units a warm request of program takes from the
// alias on path: none when the program does not cut, else every chunk
// the strict parser accepts, up to the first it rejects on /optimize.
func aliasable(program, path string) int64 {
	chunks, _ := textir.Cut(program)
	var n int64
	for _, c := range chunks {
		if _, err := textir.ParseFunction(c.Text); err != nil {
			if path == "/optimize" {
				break
			}
			continue
		}
		n++
	}
	return n
}

// TestAliasNeverChangesAnswer sends every module to every module
// endpoint, cold then warm, under two modes: the second mode's first
// pass finds every parseable chunk in the alias but misses the cache, so
// its workers parse the aliased prints. Every answer must equal a
// caching-off server's, elapsed_ms aside, and an /optimize parse error
// must be the whole-program parser's, line number included. A server
// without the alias (the unit build before it existed) must count the
// same cache hits and misses and the same outcomes, and a warm request
// must take every parseable chunk from the alias.
func TestAliasNeverChangesAnswer(t *testing.T) {
	cfg := Config{Workers: 1, Queue: 64, Timeout: time.Minute}
	s, ts := newTestServer(t, cfg)
	ref, refTS := newTestServer(t, cfg)
	ref.alias = nil
	off := cfg
	off.CacheSize = -1
	_, offTS := newTestServer(t, off)

	paths := []string{"/optimize", "/optimize/batch", "/optimize/stream", "/optimize/batch?job=1", "/optimize/stream?job=1"}
	for mi, program := range aliasModules() {
		for _, mode := range []string{"lcm", "gcse"} {
			req := optimizeRequest{Program: program, Mode: mode}
			for _, path := range paths {
				what := fmt.Sprintf("module %d, %s, %s", mi, mode, path)
				wantCode, want := sendNormalized(t, offTS, path, req)
				if path == "/optimize" && wantCode == http.StatusBadRequest {
					_, perr := textir.Parse(program)
					var body []map[string]any
					if err := json.Unmarshal([]byte(want), &body); err != nil || perr == nil || body[0]["error"] != perr.Error() {
						t.Fatalf("%s: 400 %s, want the whole-program parse error %v", what, want, perr)
					}
				}
				for pass, warm := range []bool{false, true} {
					before := s.Stats().AliasHits
					code, got := sendNormalized(t, ts, path, req)
					if code != wantCode || got != want {
						t.Fatalf("%s, pass %d: %d %s\nwant %d %s", what, pass, code, got, wantCode, want)
					}
					if n := s.Stats().AliasHits - before; warm && n != aliasable(program, path) {
						t.Errorf("%s: warm request took %d units from the alias, want %d", what, n, aliasable(program, path))
					}
					sendNormalized(t, refTS, path, req)
					got1, want1 := s.Stats(), ref.Stats()
					if got1.CacheHits != want1.CacheHits || got1.CacheMisses != want1.CacheMisses ||
						got1.Requests != want1.Requests || got1.Optimized != want1.Optimized ||
						got1.Invalid != want1.Invalid || got1.Shed != want1.Shed {
						t.Fatalf("%s, pass %d: counts %+v\nwithout the alias %+v", what, pass, got1, want1)
					}
				}
			}
		}
	}
	if st := s.Stats(); st.AliasHits == 0 || st.CacheCorrupt != 0 || ref.Stats().AliasHits != 0 {
		t.Fatalf("alias hits %d, corrupt %d; without the alias %d hits", st.AliasHits, st.CacheCorrupt, ref.Stats().AliasHits)
	}
}

// TestAliasCorruptEntryMisses: a byte flipped in a stored entry — in the
// print held for a respelled chunk, or in the checksum of a canonical
// one — fails the entry's checksum. The next request misses the alias,
// counts cache_corrupt once per entry, re-parses, and answers the same
// bytes; the request after it hits the refilled entries.
func TestAliasCorruptEntryMisses(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	fns := aliasFuncs(2)
	req := optimizeRequest{Program: respell(fns[0], "\n") + fns[1]}
	code, want := sendNormalized(t, ts, "/optimize", req)
	if code != http.StatusOK {
		t.Fatalf("optimize = %d %s", code, want)
	}

	flip := func(s string) string { b := []byte(s); b[len(b)/2] ^= 0x20; return string(b) }
	s.alias.mu.Lock()
	var prints, sums int
	for _, el := range s.alias.mem.m {
		ent := &el.Value.(*lruItem[[32]byte, aliasEntry]).val
		if ent.print != "" {
			ent.print = flip(ent.print)
			prints++
		} else {
			ent.sum ^= 0x20 << 8
			sums++
		}
	}
	s.alias.mu.Unlock()
	if prints != 1 || sums != 1 {
		t.Fatalf("alias holds %d prints and %d canonical chunks, want one each", prints, sums)
	}

	for i, wantHits := range []int64{0, 2} {
		before := s.Stats()
		code, got := sendNormalized(t, ts, "/optimize", req)
		if code != http.StatusOK || got != want {
			t.Fatalf("request %d: %d %s\nwant %s", i, code, got, want)
		}
		after := s.Stats()
		hits, corrupt := after.AliasHits-before.AliasHits, after.CacheCorrupt-before.CacheCorrupt
		if wantCorrupt := 2 - wantHits; hits != wantHits || corrupt != wantCorrupt {
			t.Fatalf("request %d: %d alias hits, %d corrupt; want %d, %d", i, hits, corrupt, wantHits, wantCorrupt)
		}
		if after.CacheHits-before.CacheHits != 2 {
			t.Fatalf("request %d: %d cache hits, want 2", i, after.CacheHits-before.CacheHits)
		}
	}
}

// TestJournalUnitParsedOnlyOnMiss: a unit read back from a journal
// carries only its source, and its worker looks its key up before it
// parses. A journal whose one unit has a cached key and a source the
// parser rejects therefore answers the cached result on resume.
func TestJournalUnitParsedOnlyOnMiss(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, CacheDir: filepath.Join(dir, "cache"), JournalDir: filepath.Join(dir, "journal")}
	s, ts, stop := startServer(cfg)
	code, out := postOptimize(t, ts, optimizeRequest{Program: diamond})
	stop()
	if code != http.StatusOK || s.Stats().CacheMisses != 1 {
		t.Fatalf("warm-up optimize = %d %+v", code, out)
	}

	f, err := textir.ParseFunction(diamond)
	if err != nil {
		t.Fatal(err)
	}
	hdr := jobHeader{
		Type: "header", Mode: "lcm", Created: time.Now(),
		Funcs: []jobUnit{{Name: f.Name, Key: cacheKey(optimizeRequest{Mode: "lcm"}, f.String(), 0, false), Src: "not a function"}},
	}
	hdr.ID = deriveJobID(hdr)
	line, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cfg.JournalDir, hdr.ID+journalExt), append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts, stop = startServer(cfg)
	defer stop()
	waitFor(t, func() bool {
		_, snap := getJob(t, ts, hdr.ID)
		return snap.Done
	})
	_, snap := getJob(t, ts, hdr.ID)
	if len(snap.Results) != 1 || snap.Results[0].Status != http.StatusOK || snap.Results[0].Program != out.Program {
		t.Fatalf("resumed job answered %+v, want the cached program", snap.Results)
	}
	if st := s.Stats(); st.CacheHits != 1 || st.CacheMisses != 0 || st.Invalid != 0 {
		t.Fatalf("resume counted %d hits, %d misses, %d invalid; want 1, 0, 0", st.CacheHits, st.CacheMisses, st.Invalid)
	}
}

// TestJobUnitsDoNotPinRequest: a ?job= job outlives its request, so no
// unit of a finished job may point into the request body — a name sliced
// from it would keep the whole body alive with the job.
func TestJobUnitsDoNotPinRequest(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	fns := aliasFuncs(3)
	program := strings.Join(fns, "\n") + "\n" + respell(fns[0], "\n") + "func bad(a) {\ne:\n  x = a +\n  ret x\n}\n"
	inside := func(sub, body string) bool {
		p, b := uintptr(unsafe.Pointer(unsafe.StringData(sub))), uintptr(unsafe.Pointer(unsafe.StringData(body)))
		return len(sub) > 0 && p >= b && p < b+uintptr(len(body))
	}
	for _, c := range []struct {
		v    view
		mode string
	}{{viewBatch, "lcm"}, {viewStream, "gcse"}} {
		req := optimizeRequest{Program: strings.Clone(program), Mode: c.mode}
		r := httptest.NewRequest(http.MethodPost, "/optimize/batch?job=1", nil)
		js, _ := s.submit(context.Background(), httptest.NewRecorder(), r, req, c.v, time.Now())
		if js == nil {
			t.Fatalf("view %d: submission refused", c.v)
		}
		select {
		case <-js.doneCh:
		case <-time.After(30 * time.Second):
			t.Fatalf("view %d: job never finished", c.v)
		}
		js.mu.Lock()
		for i, u := range js.hdr.Funcs {
			if inside(u.Name, req.Program) || inside(u.Src, req.Program) {
				t.Errorf("view %d: unit %d (%s) points into the request body", c.v, i, u.Name)
			}
		}
		js.mu.Unlock()
	}
}

// TestAliasConcurrentRequests: handlers fill, hit and evict the alias at
// once — six clients, a three-entry cache, canonical and respelled
// modules on /optimize and batch — and every answer still equals a
// caching-off server's. The queue holds every client's work and the
// ladder never climbs, so no answer is shed or marked degraded.
func TestAliasConcurrentRequests(t *testing.T) {
	calm := overload.Config{Enter: [3]float64{10, 10, 10}, Exit: [3]float64{9, 9, 9}}
	cfg := Config{Workers: 2, Queue: 64, CacheSize: 3, Timeout: time.Minute, Degrade: calm}
	_, ts := newTestServer(t, cfg)
	cfg.CacheSize = -1
	_, offTS := newTestServer(t, cfg)
	fns := aliasFuncs(3)
	programs := []string{
		strings.Join(fns, "\n"),
		respell(fns[0], "\n") + fns[1],
		fns[2] + respell(fns[1], "\r\n"),
	}
	paths := []string{"/optimize", "/optimize/batch"}
	want := map[string]string{}
	for _, p := range programs {
		for _, path := range paths {
			_, want[path+p] = sendNormalized(t, offTS, path, optimizeRequest{Program: p})
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				p, path := programs[(c+i)%len(programs)], paths[(c+i/3)%len(paths)]
				_, got, err := postNormalized(ts, path, optimizeRequest{Program: p})
				if err != nil || got != want[path+p] {
					t.Errorf("client %d request %d (%s): %v %s\nwant %s", c, i, path, err, got, want[path+p])
				}
			}
		}(c)
	}
	wg.Wait()
}
