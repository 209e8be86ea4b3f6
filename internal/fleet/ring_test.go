package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
)

// keyOf hashes strings onto the ring's circle (the first 8 bytes of
// their sha256), giving tests well-mixed keys.
func keyOf(parts ...string) uint64 {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return binary.BigEndian.Uint64(h.Sum(nil)[:8])
}

func testKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = keyOf("key", fmt.Sprint(i))
	}
	return keys
}

func ringOf(n int) *Ring {
	r := NewRing()
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("http://backend-%d:8657", i))
	}
	return r
}

// TestRingDistribution: ownership of 1k keys stays near-uniform on 3, 5
// and 8 backends. The bound is deliberately loose (±35% of the fair
// share) — consistent hashing is approximately uniform, and the test
// guards against a broken hash or vnode scheme, not statistical noise.
func TestRingDistribution(t *testing.T) {
	keys := testKeys(1000)
	for _, n := range []int{3, 5, 8} {
		r := ringOf(n)
		counts := make(map[string]int)
		for _, k := range keys {
			owner := r.Owner(k)
			if owner == "" {
				t.Fatalf("n=%d: key %x has no owner", n, k)
			}
			counts[owner]++
		}
		if len(counts) != n {
			t.Errorf("n=%d: only %d backends own keys: %v", n, len(counts), counts)
		}
		fair := float64(len(keys)) / float64(n)
		for id, c := range counts {
			if float64(c) < 0.65*fair || float64(c) > 1.35*fair {
				t.Errorf("n=%d: backend %s owns %d keys, fair share %.0f (all: %v)", n, id, c, fair, counts)
			}
		}
	}
}

// TestRingMinimalMovement: a membership change moves at most one
// node's fair share of the K keys — ceil(K/N) over the smaller
// membership, i.e. the fair share of the node that joined or left —
// every moved key involves that node, and unrelated keys keep their
// owner. This is the property that keeps backend result caches warm
// across fleet resizes: a join from N backends moves ≤ ceil(K/N) keys
// (all onto the joiner, expected K/(N+1)), and a leave back to N
// restores the previous placement exactly.
func TestRingMinimalMovement(t *testing.T) {
	keys := testKeys(1000)
	for _, n := range []int{3, 5, 8} {
		r := ringOf(n)
		before := make(map[uint64]string, len(keys))
		for _, k := range keys {
			before[k] = r.Owner(k)
		}

		joined := "http://backend-new:8657"
		r.Add(joined)
		bound := (len(keys) + n - 1) / n // ceil(K/N): one node's fair share pre-join
		moved := 0
		for _, k := range keys {
			after := r.Owner(k)
			if after == before[k] {
				continue
			}
			moved++
			if after != joined {
				t.Errorf("n=%d join: key %x moved %s→%s, neither is the joining backend", n, k, before[k], after)
			}
		}
		if moved == 0 || moved > bound {
			t.Errorf("n=%d join: %d keys moved, want 1..%d", n, moved, bound)
		}

		// Leave: removing the joined backend must restore the previous
		// ownership exactly — the keys that move are exactly the ones it
		// owned, and they go back where they came from.
		r.Remove(joined)
		for _, k := range keys {
			if got := r.Owner(k); got != before[k] {
				t.Errorf("n=%d leave: key %x owned by %s, want %s", n, k, got, before[k])
			}
		}

		// Leave of an original member: moved keys are exactly the ones the
		// leaver owned — its fair share, ceil(K/(N-1)) over the shrunken
		// membership — and none of them may still point at it.
		leaver := r.Pick(keys[0], 1)[0]
		r.Remove(leaver)
		bound = (len(keys) + n - 2) / (n - 1) // ceil(K/(N-1)): the leaver's fair share post-leave
		moved = 0
		for _, k := range keys {
			after := r.Owner(k)
			if after == before[k] {
				continue
			}
			moved++
			if before[k] != leaver {
				t.Errorf("n=%d leave: key %x moved %s→%s but %s left", n, k, before[k], after, leaver)
			}
			if after == leaver {
				t.Errorf("n=%d leave: key %x still owned by departed %s", n, k, leaver)
			}
		}
		if moved == 0 || moved > bound {
			t.Errorf("n=%d leave: %d keys moved, want 1..%d", n, moved, bound)
		}
	}
}

// TestRingPick: replica preference order is deterministic, distinct,
// owner-first, and capped by membership.
func TestRingPick(t *testing.T) {
	r := ringOf(5)
	key := keyOf("some program", "lcm")
	picks := r.Pick(key, 3)
	if len(picks) != 3 {
		t.Fatalf("Pick returned %d backends, want 3", len(picks))
	}
	if picks[0] != r.Owner(key) {
		t.Errorf("Pick[0] = %s, Owner = %s", picks[0], r.Owner(key))
	}
	seen := map[string]bool{}
	for _, id := range picks {
		if seen[id] {
			t.Errorf("Pick repeated backend %s: %v", id, picks)
		}
		seen[id] = true
	}
	again := r.Pick(key, 3)
	for i := range picks {
		if picks[i] != again[i] {
			t.Fatalf("Pick not deterministic: %v vs %v", picks, again)
		}
	}
	if got := r.Pick(key, 99); len(got) != 5 {
		t.Errorf("Pick(99) returned %d backends, want all 5", len(got))
	}
	if got := NewRing().Pick(key, 2); got != nil {
		t.Errorf("empty ring picked %v", got)
	}
}

// TestWithinBound: the bounded-load rule admits on an idle fleet,
// refuses a backend far above the average, and is disabled by factor<=1.
func TestWithinBound(t *testing.T) {
	if !WithinBound(0, 0, 3, 1.25) {
		t.Error("idle fleet refused placement")
	}
	// 10 in flight on one backend of 3 with 12 total: average 4.33,
	// capacity ceil(1.25*13/3)=6 → refuse.
	if WithinBound(10, 12, 3, 1.25) {
		t.Error("overloaded backend accepted placement")
	}
	if !WithinBound(3, 12, 3, 1.25) {
		t.Error("under-average backend refused placement")
	}
	if !WithinBound(1000, 0, 3, 1.0) {
		t.Error("factor<=1 should disable the bound")
	}
	if !WithinBound(1000, 0, 0, 1.25) {
		t.Error("empty fleet should disable the bound")
	}
}
