package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		// Overlapping children count once: [10,50] covers 40.
		{ID: 2, Parent: 1, Name: "textir.parse", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "pipeline.run", Start: 20, End: 50},
		// A child running past its parent counts only inside it: 10.
		{ID: 4, Parent: 1, Name: "textir.print", Start: 90, End: 120},
		// A grandchild is its parent's business, not the request's.
		{ID: 5, Parent: 3, Name: "lcm.transform", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 20, 3: 10, 4: 30, 5: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerLaysSpansOnItsOrigin(t *testing.T) {
	tr := newTracer()
	at := tr.origin.Add(5 * time.Millisecond)
	id := tr.add("request", 0, 7, at, at.Add(2*time.Millisecond))
	s := tr.spans[id-1]
	if s.Req != 7 || s.Start != int64(5*time.Millisecond) || s.dur() != 2*time.Millisecond {
		t.Errorf("span = %+v", s)
	}
}
