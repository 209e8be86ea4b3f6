package lcmserver

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"lazycm/internal/fleet"
	"lazycm/internal/lcmclient"
)

// peerGroup is the shared-cache tier's fleet half: on a local miss, ask
// the cache key's ring-owner neighbors for the entry before paying for
// the pipeline. The group is strictly fail-open by construction —
// every possible failure (peer down, slow past the tight per-peer
// timeout, breaker open, garbage bytes, integrity mismatch, semantic
// non-entry) is swallowed and reported as "no payload", after which the
// caller computes locally. The tier can therefore only ever make a
// request faster, never wrong and never failed.
type peerGroup struct {
	ring   *fleet.Ring
	peers  map[string]*fleet.Breaker
	ids    []string // insertion order, for stable reporting
	client *http.Client
}

// peerTimeout bounds one peer cache fetch. It is kept tight: a peer
// consult must cost a small fraction of what the pipeline would.
const peerTimeout = 150 * time.Millisecond

// peerConsult is how many neighbors a single local miss asks, in ring
// order from the key: the owner (most likely holder under affinity
// routing) plus one replica. More would trade tail latency for little
// extra hit rate.
const peerConsult = 2

// newPeerGroup builds the tier from the configured peer base URLs, or
// returns nil (a valid, never-fetching group) when none are configured.
func newPeerGroup(cfg Config) *peerGroup {
	pg := &peerGroup{
		peers:  make(map[string]*fleet.Breaker),
		ring:   fleet.NewRing(),
		client: &http.Client{},
	}
	for _, raw := range cfg.Peers {
		id := strings.TrimRight(strings.TrimSpace(raw), "/")
		if id == "" {
			continue
		}
		if _, dup := pg.peers[id]; dup {
			continue
		}
		pg.peers[id] = fleet.NewBreaker(fleet.BreakerConfig{})
		pg.ring.Add(id)
		pg.ids = append(pg.ids, id)
	}
	if len(pg.ids) == 0 {
		return nil
	}
	return pg
}

// fetch asks the key's ring-owner neighbors for the entry and returns
// the first verified payload, or nil when no peer could help. Each
// attempt runs under its own tight timeout carved from the request
// context and is gated by that peer's breaker, so a dead or partitioned
// peer costs at most one short stall before its breaker takes it out of
// the consult path entirely.
func (p *peerGroup) fetch(ctx context.Context, key string) []byte {
	if p == nil {
		return nil
	}
	order := p.ring.Pick(ringKeyOf(key), peerConsult)
	for _, id := range order {
		if ctx.Err() != nil {
			return nil
		}
		br := p.peers[id]
		if !br.Allow() {
			continue
		}
		cctx, cancel := context.WithTimeout(ctx, peerTimeout)
		payload, err := lcmclient.FetchCacheEntry(cctx, p.client, id, key)
		cancel()
		switch {
		case err == nil:
			br.Record(true)
			return payload
		case errors.Is(err, lcmclient.ErrCacheMiss):
			// An authoritative miss proves the peer alive; it just ran cold.
			br.Record(true)
		default:
			br.Record(false)
		}
	}
	return nil
}

// states reports each peer's breaker state for /healthz.
func (p *peerGroup) states() map[string]string {
	if p == nil {
		return nil
	}
	out := make(map[string]string, len(p.ids))
	for _, id := range p.ids {
		out[id] = p.peers[id].State().String()
	}
	return out
}

// ringKeyOf maps a cache key (hex sha256) onto the peer ring's circle.
// The key's leading 64 bits are already uniformly mixed, so they are
// the ring position; every fleet member computes the same mapping from
// the same key, which is what makes "ask the ring owner first" land on
// the node most likely to hold the entry.
func ringKeyOf(key string) uint64 {
	if len(key) < 16 {
		return 0
	}
	v, err := strconv.ParseUint(key[:16], 16, 64)
	if err != nil {
		return 0
	}
	return v
}
