package dataflow

import (
	"sync"

	"lazycm/internal/bitvec"
)

// Scratch is a reusable analysis arena: it caches the (reverse) postorder
// traversal per graph and direction, and pools bit-vector matrices, so a
// sequence of solves — the four LCM problems, liveness, repeated pipeline
// passes — stops recomputing its orders and reallocating its solution
// matrices for every analysis. Smaller working state (a solve's meet
// buffer and adjacency, a derivation's temporary vectors) is allocated
// fresh: pooling it measured no faster (DESIGN.md "Shared analysis
// scratch").
//
// A Scratch never changes what a solver computes, only where its storage
// comes from: the cached order is exactly the order iterationOrder would
// recompute (the traversal is deterministic for a fixed graph), and every
// pooled matrix is zeroed before reuse, which is the same state a fresh
// allocation starts in.
//
// A nil *Scratch is a working arena that pools nothing: Order computes
// afresh, Matrix allocates, and Release drops its arguments. A non-nil
// Scratch is safe for concurrent use; NewScratch makes one.
type Scratch struct {
	mu     sync.Mutex
	orders map[orderKey][]int
	mats   []*bitvec.Matrix
}

type orderKey struct {
	g   Graph
	dir Direction
}

// maxOrderGraphs bounds the order cache: a scratch shared across many
// graphs (a long batch) keeps only the most recent handful of traversals
// rather than growing without bound.
const maxOrderGraphs = 8

// maxPooled bounds the matrix pool; beyond it, released matrices are
// dropped for the garbage collector instead of hoarded.
//
// The pool matches by capacity, not exact shape: a matrix released by one
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
// returned slice is shared and must be treated as read-only.
func (s *Scratch) Order(g Graph, dir Direction) []int {
	if s == nil {
		return iterationOrder(g, dir)
	}
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
	if s == nil {
		return bitvec.NewMatrix(rows, cols)
	}
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
	if s == nil {
		return
	}
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
