package dataflow

import (
	"sync"

	"lazycm/internal/bitvec"
)

// Scratch is a reusable analysis arena: it caches the (reverse) postorder
// traversal per graph and direction, and pools bit-vector matrices,
// vectors and solver buffers so a sequence of solves — the four LCM
// problems, liveness, repeated pipeline passes — stops reallocating its
// working state for every analysis.
//
// A Scratch never changes what a solver computes, only where its storage
// comes from: the cached order is exactly the order iterationOrder would
// recompute (the traversal is deterministic for a fixed graph), and every
// pooled matrix or vector is zeroed before reuse, which is the same state
// a fresh allocation starts in. See DESIGN.md "Shared analysis scratch".
//
// Scratch is safe for concurrent use, so independent problems over the
// same graph (DSAFE and USAFE) can share one arena while solving in
// parallel. The zero value is not ready; use NewScratch.
type Scratch struct {
	mu     sync.Mutex
	orders map[orderKey][]int
	mats   []*bitvec.Matrix
	vecs   []*bitvec.Vector
	ints   [][]int32
	words  [][]uint64
}

type orderKey struct {
	g   Graph
	dir Direction
}

// maxOrderGraphs bounds the order cache: a scratch shared across many
// graphs (a long batch) keeps only the most recent handful of traversals
// rather than growing without bound.
const maxOrderGraphs = 8

// maxPooled bounds each pool; beyond it, released storage is dropped for
// the garbage collector instead of hoarded.
//
// The pools match by capacity, not exact shape: a matrix released by one
// analysis is reshaped (bitvec.Matrix.Reshape) over its backing for the
// next analysis's dimensions. Exact-shape pooling looked the same on a
// benchmark that replays one function, but a batch over many functions —
// the server's steady state, the experiment drivers — never sees the
// same shape twice in a row, and an arena that can only recycle exact
// shapes degenerates there to an allocator with extra steps.
const maxPooled = 32

// NewScratch returns an empty arena.
func NewScratch() *Scratch {
	return &Scratch{orders: make(map[orderKey][]int)}
}

// Order returns the iteration order for g in the given direction,
// computing it on first use and serving the cached copy afterwards. The
// returned slice is shared and must be treated as read-only; concurrent
// solvers over the same graph read the same slice.
func (s *Scratch) Order(g Graph, dir Direction) []int {
	k := orderKey{g: g, dir: dir}
	s.mu.Lock()
	if o, ok := s.orders[k]; ok {
		s.mu.Unlock()
		return o
	}
	s.mu.Unlock()
	// Compute outside the lock: traversal cost dominates, and two racing
	// computations of the same deterministic order are harmless.
	o := iterationOrder(g, dir)
	s.mu.Lock()
	if len(s.orders) >= 2*maxOrderGraphs { // both directions per graph
		s.orders = make(map[orderKey][]int)
	}
	s.orders[k] = o
	s.mu.Unlock()
	return o
}

// Matrix returns a zeroed rows×cols matrix, recycling the best-fitting
// released one — the smallest backing that still holds the shape — so
// small requests do not strand large backings.
func (s *Scratch) Matrix(rows, cols int) *bitvec.Matrix {
	need := rows * ((cols + 63) >> 6)
	s.mu.Lock()
	best := -1
	bestWords := 0
	for i, m := range s.mats {
		rc, wc := m.Caps()
		if rc < rows || wc < need {
			continue
		}
		if best < 0 || wc < bestWords {
			best, bestWords = i, wc
		}
	}
	if best >= 0 {
		m := s.mats[best]
		last := len(s.mats) - 1
		s.mats[best] = s.mats[last]
		s.mats = s.mats[:last]
		s.mu.Unlock()
		m.Reshape(rows, cols)
		return m
	}
	s.mu.Unlock()
	return bitvec.NewMatrix(rows, cols)
}

// Release returns matrices to the pool for reuse. A released matrix must
// no longer be referenced by the caller — the next Matrix call may hand
// it out reshaped and zeroed. nil entries are ignored, so callers can
// release unconditionally on error paths.
func (s *Scratch) Release(ms ...*bitvec.Matrix) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range ms {
		if m == nil {
			continue
		}
		if len(s.mats) < maxPooled {
			s.mats = append(s.mats, m)
		}
	}
}

// Vector returns a zeroed vector of length n from the pool.
func (s *Scratch) Vector(n int) *bitvec.Vector {
	need := (n + 63) >> 6
	s.mu.Lock()
	best := -1
	bestWords := 0
	for i, v := range s.vecs {
		wc := v.WordCap()
		if wc < need {
			continue
		}
		if best < 0 || wc < bestWords {
			best, bestWords = i, wc
		}
	}
	if best >= 0 {
		v := s.vecs[best]
		last := len(s.vecs) - 1
		s.vecs[best] = s.vecs[last]
		s.vecs = s.vecs[:last]
		s.mu.Unlock()
		v.Reshape(n)
		return v
	}
	s.mu.Unlock()
	return bitvec.New(n)
}

// ReleaseVector returns vectors to the pool. Like Release, a released
// vector must not be used again by the caller; nils are ignored.
func (s *Scratch) ReleaseVector(vs ...*bitvec.Vector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range vs {
		if v == nil {
			continue
		}
		if len(s.vecs) < maxPooled {
			s.vecs = append(s.vecs, v)
		}
	}
}

// Ints returns an int32 slice of length n from the pool, contents
// unspecified. The solver uses it for its flattened adjacency.
func (s *Scratch) Ints(n int) []int32 {
	s.mu.Lock()
	best := -1
	bestCap := 0
	for i, v := range s.ints {
		if c := cap(v); c >= n && (best < 0 || c < bestCap) {
			best, bestCap = i, c
		}
	}
	if best >= 0 {
		v := s.ints[best]
		last := len(s.ints) - 1
		s.ints[best] = s.ints[last]
		s.ints = s.ints[:last]
		s.mu.Unlock()
		return v[:n]
	}
	s.mu.Unlock()
	return make([]int32, n)
}

// ReleaseInts returns int32 slices to the pool; nils are ignored.
func (s *Scratch) ReleaseInts(vs ...[]int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range vs {
		if v == nil {
			continue
		}
		if len(s.ints) < maxPooled {
			s.ints = append(s.ints, v[:cap(v)])
		}
	}
}

// Words returns a zeroed uint64 slice of length n from the pool. The
// solver uses it for its meet buffer.
func (s *Scratch) Words(n int) []uint64 {
	s.mu.Lock()
	best := -1
	bestCap := 0
	for i, v := range s.words {
		if c := cap(v); c >= n && (best < 0 || c < bestCap) {
			best, bestCap = i, c
		}
	}
	if best >= 0 {
		v := s.words[best]
		last := len(s.words) - 1
		s.words[best] = s.words[last]
		s.words = s.words[:last]
		s.mu.Unlock()
		v = v[:n]
		clear(v)
		return v
	}
	s.mu.Unlock()
	return make([]uint64, n)
}

// ReleaseWords returns uint64 slices to the pool; nils are ignored.
func (s *Scratch) ReleaseWords(vs ...[]uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range vs {
		if v == nil {
			continue
		}
		if len(s.words) < maxPooled {
			s.words = append(s.words, v[:cap(v)])
		}
	}
}

// ints, words and their release counterparts resolve against the scratch
// arena when the problem carries one, falling back to fresh allocations.
func (p *Problem) ints(n int) []int32 {
	if p.Scratch != nil {
		return p.Scratch.Ints(n)
	}
	return make([]int32, n)
}

func (p *Problem) releaseInts(vs ...[]int32) {
	if p.Scratch != nil {
		p.Scratch.ReleaseInts(vs...)
	}
}

func (p *Problem) words(n int) []uint64 {
	if p.Scratch != nil {
		return p.Scratch.Words(n)
	}
	return make([]uint64, n)
}

func (p *Problem) releaseWords(vs ...[]uint64) {
	if p.Scratch != nil {
		p.Scratch.ReleaseWords(vs...)
	}
}

// order resolves the iteration order for a problem: the scratch cache
// when the problem carries one, a fresh traversal otherwise.
func (p *Problem) order(g Graph) []int {
	if p.Scratch != nil {
		return p.Scratch.Order(g, p.Dir)
	}
	return iterationOrder(g, p.Dir)
}
