package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// stallServer answers /optimize with the single function every test
// request carries, stalling the stallAt-th request (counting from 0).
func stallServer(t *testing.T, stallAt int64, stall time.Duration) *httptest.Server {
	text := fnSpec{class: small, seed: 1, name: "f"}.build().String()
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(map[string]string{"program": text}); err != nil {
			t.Error(err)
		}
	}))
}

func oneFnRequests(n int) []*request {
	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = &request{path: pathSingle, body: []byte(`{}`), fns: []fnSpec{{class: small, seed: 1, name: "f"}}}
	}
	return reqs
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	ts := stallServer(t, 2, stall)
	defer ts.Close()
	// 100 req/s on one connection: requests are due 10 ms apart, and
	// request 2 holds the connection for 300 ms.
	results := openLoop(newClient(1), ts.URL, oneFnRequests(12), 100, 1)
	for i, r := range results {
		if r.err != "" {
			t.Fatalf("request %d: %s", i, r.err)
		}
		if got := r.due.Sub(results[0].due) - time.Duration(i)*10*time.Millisecond; got < -time.Microsecond || got > time.Microsecond {
			t.Errorf("request %d due %v off its 10 ms slot", i, got)
		}
	}
	if l := results[1].latency(); l > 100*time.Millisecond {
		t.Errorf("request before the stall took %v", l)
	}
	// Request 3 was due 10 ms into the stall and could only be sent after
	// it: its latency counts the wait, and its lag shows the generator ran
	// late.
	r3 := results[3]
	if r3.latency() < stall-20*time.Millisecond || r3.lag() < stall-20*time.Millisecond {
		t.Errorf("request 3 latency %v lag %v; want both near the %v stall", r3.latency(), r3.lag(), stall)
	}
	if send := r3.end.Sub(r3.sent); send > 100*time.Millisecond {
		t.Errorf("request 3 took %v from its send; the wait belongs to its due time", send)
	}
}

func TestClosedLoopTimesFromSend(t *testing.T) {
	ts := stallServer(t, 2, 200*time.Millisecond)
	defer ts.Close()
	results := closedLoop(newClient(1), ts.URL, oneFnRequests(5), 1, time.Minute, nil)
	if l := results[3].latency(); l > 100*time.Millisecond {
		t.Errorf("closed loop charged the previous stall to request 3: %v", l)
	}
	if l := results[2].latency(); l < 200*time.Millisecond {
		t.Errorf("stalled request took %v", l)
	}
}

func TestReadStreamNeedsTrailer(t *testing.T) {
	rec := `{"type":"job","functions":1}` + "\n" +
		`{"type":"item","index":0,"status":200,"program":"x"}` + "\n"
	first := 0
	if _, err := readStream(strings.NewReader(rec), 1, func() { first++ }); err == "" || first != 1 {
		t.Errorf("stream without trailer: err %q, first item calls %d", err, first)
	}
	rec += `{"type":"trailer","done":true,"functions":1,"fell_back":0}` + "\n"
	outs, err := readStream(strings.NewReader(rec), 1, func() {})
	if err != "" || len(outs) != 1 || outs[0] != "x" {
		t.Errorf("complete stream: %v %q", outs, err)
	}
}
