package lcmserver

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"

	"lazycm/internal/cachestore"
)

// resultCache is a content-addressed LRU of optimization outcomes. Under
// load the same programs arrive over and over (retry loops, shared
// modules across batches, popular inputs); the pipeline is deterministic
// for a fixed (program, directives) pair, so a clean result can be
// replayed from memory instead of re-running parse → four fixpoints →
// rewrite. Only clean outcomes are stored: fallbacks carry quarantine
// side effects and cancellations depend on the request's deadline, so
// both always re-execute.
//
// Behind the in-memory tier sits an optional durable one (disk, an
// internal/cachestore directory): entries written through to it survive
// a process restart, so a rebooted backend answers its old hits without
// recomputing. A disk read that fails the store's integrity check is a
// plain miss (the store unlinks and counts it); a disk hit is promoted
// back into memory. Every failure on the disk path falls open to a
// miss — the durable tier can make requests faster, never wrong.
type resultCache struct {
	mu  sync.Mutex
	mem lru[string, cacheEntry]

	// disk, when non-nil, is the durable tier consulted on memory miss
	// and written through on every put. diskGate, when non-nil, is
	// consulted before every disk access: while the disk-health tracker
	// has the tier quarantined it returns false and the cache behaves
	// exactly as if the tier were not configured — memory and peer fill
	// keep serving, misses recompute.
	disk     *cachestore.Store
	diskGate func() bool

	diskHits atomic.Int64 // memory misses served by the durable tier

	// corrupt, when non-nil, mutates a stored program on its way out of
	// the cache — the chaos injector's model of memory rot. It exists so
	// tests can prove the integrity checksum below actually catches
	// corruption; production servers never set it.
	corrupt func(program string) (string, bool)
}

type cacheEntry struct {
	out outcome
	// sum is the integrity checksum of out.body.Program taken at store
	// time. A cached result is replayed verbatim possibly much later; the
	// checksum guarantees that what goes out is what was computed, and
	// turns any in-memory corruption into an eviction instead of a served
	// wrong answer.
	sum [sha256.Size]byte
}

// newResultCache returns a cache holding up to max outcomes, or nil when
// max <= 0 (a nil *resultCache is a valid, always-miss cache).
func newResultCache(max int) *resultCache {
	if max <= 0 {
		return nil
	}
	return &resultCache{mem: newLRU[string, cacheEntry](max)}
}

// cacheKey is the function-granular cache key: it hashes one function's
// canonical print, src, and the directives that decide its outcome
// (mode, effective fuel, effective verify, canonical). The analyses are
// intraprocedural — a function's placement decisions can never depend on
// a neighbor — so this key is sound, and a one-function edit to a large
// module invalidates exactly one entry. Keying on the canonical print
// (not the request's spelling) makes single, batch and stream requests
// share entries for byte-different spellings of the same function. The
// request deadline is deliberately excluded — it decides whether a
// result is produced, never which result.
func cacheKey(req optimizeRequest, src string, fuel int, verify bool) string {
	h := sha256.New()
	var nums [9]byte
	binary.LittleEndian.PutUint64(nums[:8], uint64(fuel))
	var flags byte
	if verify {
		flags |= 1
	}
	if req.Canonical {
		flags |= 2
	}
	nums[8] = flags
	h.Write(nums[:])
	h.Write([]byte(req.Mode))
	h.Write([]byte{0})
	h.Write([]byte(src))
	return hex.EncodeToString(h.Sum(nil))
}

// encodeOutcome flattens a cacheable (clean 200) outcome into the
// payload bytes the durable tier and the peer-fill wire share.
func encodeOutcome(out outcome) ([]byte, error) {
	return json.Marshal(out.body)
}

// decodeOutcome is the inverse, with the semantic gate both remote
// tiers need: only a clean success is a legal cache entry, so anything
// that decodes to an error, fallback, cancellation, or empty program is
// rejected — whatever wrote it, it must not be replayed.
func decodeOutcome(payload []byte) (outcome, bool) {
	out := outcome{status: http.StatusOK}
	err := json.Unmarshal(payload, &out.body)
	out.body.ElapsedMS = 0
	return out, err == nil && isCleanOutcome(out)
}

// get returns the cached outcome for key, consulting memory first and
// the durable tier on miss, and marks it most recently used. The stored
// program is re-checksummed on every memory read; an entry that fails
// the check is evicted, never served, and the third result reports the
// corruption so the server can count it. Disk-tier integrity failures
// are counted by the store itself and surface here as plain misses; a
// disk hit is promoted into memory.
func (c *resultCache) get(key string) (out outcome, ok, corrupted bool) {
	if c == nil {
		return outcome{}, false, false
	}
	c.mu.Lock()
	if ent, found := c.mem.get(key); found {
		if c.corrupt != nil {
			if p, did := c.corrupt(ent.out.body.Program); did {
				ent.out.body.Program = p
			}
		}
		if sha256.Sum256([]byte(ent.out.body.Program)) != ent.sum {
			c.mem.remove(key)
			c.mu.Unlock()
			return outcome{}, false, true
		}
		out = ent.out
		c.mu.Unlock()
		return out, true, false
	}
	c.mu.Unlock()

	if !c.diskEnabled() {
		return outcome{}, false, false
	}
	payload, found, _ := c.disk.Get(key)
	if !found {
		return outcome{}, false, false
	}
	out, okDecode := decodeOutcome(payload)
	if !okDecode {
		return outcome{}, false, false
	}
	c.diskHits.Add(1)
	c.putMem(key, out)
	return out, true, false
}

// put stores an outcome in memory and writes it through to the durable
// tier, evicting the least recently used entry beyond capacity. Storing
// an existing key refreshes its recency.
func (c *resultCache) put(key string, out outcome) {
	if c == nil {
		return
	}
	c.putMem(key, out)
	if c.diskEnabled() {
		if payload, err := encodeOutcome(out); err == nil {
			_ = c.disk.Put(key, payload) // best-effort: a failed durable write only costs warmth
		}
	}
}

// putPayload stores an outcome whose wire payload is already in hand (a
// peer fill), avoiding a re-marshal on the write-through.
func (c *resultCache) putPayload(key string, out outcome, payload []byte) {
	if c == nil {
		return
	}
	c.putMem(key, out)
	if c.diskEnabled() {
		_ = c.disk.Put(key, payload)
	}
}

// diskEnabled reports whether the durable tier exists and is not
// quarantined by the disk-health tracker.
func (c *resultCache) diskEnabled() bool {
	return c.disk != nil && (c.diskGate == nil || c.diskGate())
}

func (c *resultCache) putMem(key string, out outcome) {
	sum := sha256.Sum256([]byte(out.body.Program))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mem.put(key, cacheEntry{out: out, sum: sum})
}

// len reports the number of cached outcomes in memory.
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mem.len()
}

// lru is a map bounded to max entries that evicts its least recently
// used entry. Its owner locks around it.
type lru[K comparable, V any] struct {
	max int
	ll  *list.List // of *lruItem[K, V]; front = most recently used
	m   map[K]*list.Element
}

type lruItem[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](max int) lru[K, V] {
	return lru[K, V]{max: max, ll: list.New(), m: make(map[K]*list.Element, max)}
}

// get returns the value stored under key, now the most recently used.
// The value may be updated in place.
func (c *lru[K, V]) get(key K) (*V, bool) {
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return &el.Value.(*lruItem[K, V]).val, true
}

// put stores val under key as the most recently used entry, evicting the
// least recently used beyond max.
func (c *lru[K, V]) put(key K, val V) {
	if el, ok := c.m[key]; ok {
		el.Value.(*lruItem[K, V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&lruItem[K, V]{key, val})
	for c.ll.Len() > c.max {
		c.remove(c.ll.Back().Value.(*lruItem[K, V]).key)
	}
}

func (c *lru[K, V]) remove(key K) {
	if el, ok := c.m[key]; ok {
		c.ll.Remove(el)
		delete(c.m, key)
	}
}

func (c *lru[K, V]) len() int { return c.ll.Len() }
