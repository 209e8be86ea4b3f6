// Package fleet holds the routing primitives behind cmd/lcmgate and
// lcmd's peer cache fill: a consistent-hash ring with a fixed 512
// virtual nodes per member and a bounded-load placement rule, and a
// per-backend circuit breaker. Both are deliberately free of I/O —
// pure data structures over injected observations — so every state
// transition is unit-testable without a network.
//
// LCM results are location-independent (the server's cache key is a
// sha256 over program+directives), so the only thing placement buys is
// cache affinity: sending the same program to the same backend turns
// repeat-heavy traffic into cache hits. That is why the ring hashes
// request content, why minimal key movement on membership change
// matters (a resize should not flush every backend's cache), and why a
// failover to another replica is always safe — any backend computes the
// same bytes.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
)

// vnodes is how many points each member contributes to the ring. More
// vnodes means more uniform ownership and finer-grained movement on
// membership change, at O(members×vnodes) memory.
const vnodes = 512

// Ring is a consistent-hash ring with virtual nodes. Keys and points
// live on a uint64 circle; a key is owned by the first point clockwise
// from it. Adding or removing one member moves only the keys that
// member's points own — about 1/N of the keyspace — which is what keeps
// backend result caches warm across fleet resizes.
type Ring struct {
	mu      sync.RWMutex
	points  []point // sorted by hash
	members map[string]bool
}

type point struct {
	h  uint64
	id string
}

// NewRing builds an empty ring.
func NewRing() *Ring {
	return &Ring{members: make(map[string]bool)}
}

func vnodeHash(id string, i int) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s\x00%d", id, i)))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a member's virtual nodes. Adding an existing member is a
// no-op.
func (r *Ring) Add(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[id] {
		return
	}
	r.members[id] = true
	for i := 0; i < vnodes; i++ {
		r.points = append(r.points, point{vnodeHash(id, i), id})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].h < r.points[b].h })
}

// Remove deletes a member's virtual nodes. Removing an unknown member
// is a no-op.
func (r *Ring) Remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[id] {
		return
	}
	delete(r.members, id)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.id != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len reports the number of members.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Owner returns the member owning key — the first point clockwise from
// it — or "" on an empty ring.
func (r *Ring) Owner(key uint64) string {
	picks := r.Pick(key, 1)
	if len(picks) == 0 {
		return ""
	}
	return picks[0]
}

// Pick returns up to n distinct members in clockwise order from key:
// the owner first, then the replicas a router fails over to, in the
// order it should try them. The order is a pure function of (key,
// membership), so every gateway replica and every retry agrees on it.
func (r *Ring) Pick(key uint64, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= key })
	picked := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(picked) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.id] {
			seen[p.id] = true
			picked = append(picked, p.id)
		}
	}
	return picked
}

// WithinBound is the bounded-load placement rule (consistent hashing
// with bounded loads): a member may accept another request only while
// its in-flight count stays under factor × the fleet-wide average
// (counting the request being placed). A hot key that floods one
// backend spills to its next replica instead of queueing arbitrarily
// deep, while an idle fleet (total 0) still admits everywhere. A
// factor <= 1 disables the bound rather than refusing all placement.
func WithinBound(inflight, totalInflight int64, members int, factor float64) bool {
	if members <= 0 || factor <= 1 {
		return true
	}
	capacity := math.Ceil(factor * float64(totalInflight+1) / float64(members))
	return float64(inflight) < capacity
}
