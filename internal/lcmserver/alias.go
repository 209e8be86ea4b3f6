package lcmserver

import (
	"crypto/sha256"
	"hash/crc32"
	"sync"
)

// chunkAlias maps the bytes of a function chunk to that function's
// canonical print, so a chunk seen before is keyed without a strict
// parse. The strict parse and the print are pure functions of the chunk
// bytes, so an entry stays true for as long as it is held. It lives in
// memory only, bounded like the result cache's memory tier: a lost entry
// costs one parse.
type chunkAlias struct {
	mu  sync.Mutex
	mem lru[[sha256.Size]byte, aliasEntry]
}

// aliasEntry is one chunk's canonical print, keyed by the chunk's
// SHA-256. It owns its bytes, so it never keeps a request body alive:
// print is held only when it differs from the chunk ("" when the chunk
// is already canonical, as every printed program is). sum checksums the
// key and print, so memory rot costs a miss, never a wrong key; a
// CRC-32C suffices against rot and is cheap enough to check on every
// hit.
type aliasEntry struct {
	print string
	sum   uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func aliasSum(key [sha256.Size]byte, print string) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, key[:]), castagnoli, []byte(print))
}

// newChunkAlias returns an alias holding up to max chunks, or nil when
// max <= 0: the alias is off when caching is.
func newChunkAlias(max int) *chunkAlias {
	if max <= 0 {
		return nil
	}
	return &chunkAlias{mem: newLRU[[sha256.Size]byte, aliasEntry](max)}
}

// get returns the canonical print of chunk, hashing to key, and marks
// its entry the most recently used. An entry that fails its checksum is
// evicted, never returned, and reported as corrupted.
func (a *chunkAlias) get(key [sha256.Size]byte, chunk string) (print string, ok, corrupted bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	e, found := a.mem.get(key)
	switch {
	case !found:
		return "", false, false
	case aliasSum(key, e.print) != e.sum:
		a.mem.remove(key)
		return "", false, true
	case e.print == "":
		return chunk, true, false
	}
	return e.print, true, false
}

// put records print as the canonical print of chunk, hashing to key.
// print must not share memory with the request.
func (a *chunkAlias) put(key [sha256.Size]byte, chunk, print string) {
	if a == nil {
		return
	}
	if print == chunk {
		print = ""
	}
	ent := aliasEntry{print: print, sum: aliasSum(key, print)}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.mem.put(key, ent)
}
