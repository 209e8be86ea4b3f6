// Package dataflow implements the iterative bit-vector data-flow framework
// of the reproduction: unidirectional gen/kill problems over an abstract
// directed graph, solved round-robin in (reverse) postorder until a fixed
// point. Every analysis of the Lazy Code Motion paper — up-safety,
// down-safety, delayability, isolation — and the auxiliary liveness
// analysis are instances of this framework; the Morel–Renvoise baseline is
// deliberately not, because it is bidirectional, which is exactly the cost
// the paper eliminates (experiment T4 measures the difference using the
// Stats this package reports).
//
// One solver reaches every fixpoint: the flat round-robin sweep of Solve,
// the standard iterative algorithm the paper's unidirectional systems
// were designed for, which converges within loop-connectedness + 2
// passes on reducible graphs (Kam–Ullman). The fixpoint of a monotone
// gen/kill system is unique, so another iteration strategy could only be
// faster, never different — and on this service's workloads none was
// (DESIGN.md §11).
package dataflow

import (
	"context"
	"errors"
	"fmt"

	"lazycm/internal/bitvec"
)

// ErrFuelExhausted reports that a solver ran out of its node-visit budget
// before reaching a fixed point. Callers test for it with errors.Is; the
// concrete error carries the problem name and the budget.
var ErrFuelExhausted = errors.New("dataflow: fuel exhausted before fixpoint")

// ErrCanceled reports that a fixpoint was abandoned because its context
// was canceled or its deadline expired. Callers test for it with
// errors.Is; the concrete *CancelError also unwraps to the context's own
// error, so errors.Is(err, context.DeadlineExceeded) distinguishes a
// deadline from an explicit cancel.
var ErrCanceled = errors.New("dataflow: canceled before fixpoint")

// CancelError is the concrete error returned when a fixpoint observes a
// done context. It unwraps to both ErrCanceled and the context error
// (context.Canceled or context.DeadlineExceeded).
type CancelError struct {
	// Problem is the name of the fixpoint that was abandoned.
	Problem string
	// Err is the context's error.
	Err error
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("dataflow: %s: canceled before fixpoint: %v", e.Problem, e.Err)
}

func (e *CancelError) Unwrap() []error { return []error{ErrCanceled, e.Err} }

// Canceled wraps a done context's error for the named fixpoint, or
// returns nil when ctx is nil or still live. Fixpoint loops outside this
// package (the MR placement-possible system, the block-level LATER
// system, the opt reapplication rounds) use it so every cancellation in
// the tree is the same structured error.
func Canceled(ctx context.Context, problem string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return &CancelError{Problem: problem, Err: err}
	}
	return nil
}

// cancelInterval is how many node visits may pass between context checks
// inside a sweep, bounding cancellation latency on very large graphs
// without paying a context poll per node.
const cancelInterval = 256

// FuelError is the concrete error returned when a Problem's Fuel budget is
// exhausted. It unwraps to ErrFuelExhausted.
type FuelError struct {
	// Problem is the name of the problem that ran dry.
	Problem string
	// Fuel is the node-visit budget that was exceeded.
	Fuel int
}

func (e *FuelError) Error() string {
	return fmt.Sprintf("dataflow: %s: fuel exhausted after %d node visits before fixpoint", e.Problem, e.Fuel)
}

func (e *FuelError) Unwrap() error { return ErrFuelExhausted }

// Graph is the directed graph a problem is solved over. Nodes are dense
// indices 0..NumNodes()-1.
type Graph interface {
	NumNodes() int
	NumSuccs(n int) int
	Succ(n, i int) int
	NumPreds(n int) int
	Pred(n, i int) int
}

// Direction selects forward (along edges) or backward (against edges)
// propagation.
type Direction int

const (
	Forward Direction = iota
	Backward
)

// String names the direction.
func (d Direction) String() string {
	if d == Forward {
		return "forward"
	}
	return "backward"
}

// Meet selects the confluence operator.
type Meet int

const (
	// Must intersects the inputs: a property must hold on all paths.
	Must Meet = iota
	// May unions the inputs: a property holds on some path.
	May
)

// String names the meet operator.
func (m Meet) String() string {
	if m == Must {
		return "must"
	}
	return "may"
}

// Boundary selects the meet input at boundary nodes (no predecessors for
// forward problems, no successors for backward ones).
type Boundary int

const (
	// BoundaryEmpty makes the property false at the boundary.
	BoundaryEmpty Boundary = iota
	// BoundaryFull makes the property true at the boundary.
	BoundaryFull
)

// Problem is a gen/kill bit-vector data-flow problem. With
// flow-side = IN for forward problems applied as
//
//	IN(n)  = meet over preds m of OUT(m)        (boundary at no preds)
//	OUT(n) = GEN(n) ∨ (IN(n) ∧ ¬KILL(n))
//
// and symmetrically for backward problems
//
//	OUT(n) = meet over succs m of IN(m)         (boundary at no succs)
//	IN(n)  = GEN(n) ∨ (OUT(n) ∧ ¬KILL(n))
type Problem struct {
	// Name labels the problem in stats output.
	Name string
	Dir  Direction
	Meet Meet
	// Width is the number of bits per node (e.g. the expression universe
	// size).
	Width int
	// Gen and Kill are per-node vectors; both must be NumNodes×Width.
	Gen, Kill *bitvec.Matrix
	// Boundary is the meet input at boundary nodes.
	Boundary Boundary
	// Fuel bounds the solver's node visits; 0 means unlimited. A problem
	// whose fixpoint is not reached within Fuel visits fails with a
	// FuelError instead of iterating further, so a buggy (non-monotone)
	// transfer function cannot spin the process.
	Fuel int
	// Ctx, when non-nil, lets the caller abandon the solve: the solver
	// polls it at iteration boundaries (each sweep, and every
	// cancelInterval node visits within a sweep) and fails with a
	// *CancelError once it is done. Nil means "never canceled".
	Ctx context.Context
	// Scratch supplies the solver's traversal order and its In and Out
	// matrices; nil computes the order and allocates the matrices afresh.
	// The solution is identical either way; see Scratch. The caller owns
	// the Result matrices and releases back to the arena whichever side
	// it does not keep.
	Scratch *Scratch
}

// check validates the problem's shape against the graph.
func (p *Problem) check(g Graph) error {
	n := g.NumNodes()
	if p.Gen == nil || p.Kill == nil {
		return fmt.Errorf("dataflow: %s: nil gen/kill matrix", p.Name)
	}
	if p.Gen.Rows() != n || p.Kill.Rows() != n || p.Gen.Cols() != p.Width || p.Kill.Cols() != p.Width {
		return fmt.Errorf("dataflow: %s: gen %dx%d / kill %dx%d do not match graph (%d nodes) and width %d",
			p.Name, p.Gen.Rows(), p.Gen.Cols(), p.Kill.Rows(), p.Kill.Cols(), n, p.Width)
	}
	return nil
}

// Result holds the fixpoint solution and solver statistics.
type Result struct {
	// In and Out are the per-node solution matrices, indexed by node.
	In, Out *bitvec.Matrix
	Stats   Stats
}

// Stats records solver effort, the efficiency currency of experiment T4.
type Stats struct {
	// Name echoes the problem name.
	Name string
	// Passes is the number of full round-robin sweeps, including the last
	// (unchanged) confirming sweep.
	Passes int
	// NodeVisits is the number of node evaluations.
	NodeVisits int
	// VectorOps counts whole-bit-vector operations (and/or/andnot/copy),
	// the unit the PRE-efficiency literature reports.
	VectorOps int
}

// Add accumulates other into s (keeping s's name).
func (s *Stats) Add(other Stats) {
	s.Passes += other.Passes
	s.NodeVisits += other.NodeVisits
	s.VectorOps += other.VectorOps
}

func (s Stats) String() string {
	return fmt.Sprintf("%s: %d passes, %d node visits, %d vector ops", s.Name, s.Passes, s.NodeVisits, s.VectorOps)
}

// Solve runs the problem to its (unique) fixed point over g. The iteration
// order is reverse postorder for forward problems and postorder for
// backward ones, computed over reachable nodes; nodes unreachable in the
// iteration direction keep their initial value.
//
// Solve fails with a descriptive error when the gen/kill matrices do not
// match the graph and width, with a FuelError when p.Fuel is positive and
// exhausted before the fixed point, and with a CancelError when p.Ctx is
// done before the fixed point.
//
// The solver is a round-robin sweep over the whole vector of every node,
// repeated until a sweep changes nothing. It works on the matrices' flat
// word backing rather than per-row Vector views: most functions have a
// universe of at most a word or two, so a Row header, a bounds check, and
// a method dispatch per node visit would cost more than the word math
// itself. The meet-side adjacency is flattened once per solve for the
// same reason — two interface calls per edge per pass become one flat
// index load. None of this changes what is computed; the op accounting
// below mirrors the vector formulation exactly, so Stats stays the
// comparable currency of experiment T4.
func Solve(g Graph, p *Problem) (*Result, error) {
	if err := p.check(g); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	in, out := p.Scratch.Matrix(n, p.Width), p.Scratch.Matrix(n, p.Width)
	res := &Result{In: in, Out: out}
	res.Stats.Name = p.Name

	stride := in.Stride()
	lastMask := ^uint64(0)
	if rem := uint(p.Width) & 63; rem != 0 {
		lastMask = (uint64(1) << rem) - 1
	}

	// The dataflow orientation: fi is the meet result side, fo the
	// transferred side neighbors read. For backward problems they live in
	// the opposite matrices.
	fiMat, foMat := in, out
	if p.Dir != Forward {
		fiMat, foMat = out, in
	}

	// Initialize the flow-side values to top so a Must meet can descend.
	// For May problems bottom (empty) is the correct start.
	if p.Meet == Must && stride > 0 {
		w := foMat.Data()
		for i := range w {
			w[i] = ^uint64(0)
		}
		for r := 0; r < n; r++ {
			w[r*stride+stride-1] &= lastMask
		}
	}

	// Flatten the meet-side adjacency into one buffer: offs[i]..offs[i+1]
	// index the edges, the sources whose fo rows meet into node i.
	total := 0
	for i := 0; i < n; i++ {
		if p.Dir == Forward {
			total += g.NumPreds(i)
		} else {
			total += g.NumSuccs(i)
		}
	}
	adj := make([]int32, n+1+total)
	offs, edges := adj[:n+1], adj[n+1:]
	e := 0
	for i := 0; i < n; i++ {
		offs[i] = int32(e)
		if p.Dir == Forward {
			for k, d := 0, g.NumPreds(i); k < d; k++ {
				edges[e] = int32(g.Pred(i, k))
				e++
			}
		} else {
			for k, d := 0, g.NumSuccs(i); k < d; k++ {
				edges[e] = int32(g.Succ(i, k))
				e++
			}
		}
	}
	offs[n] = int32(e)

	order := p.Scratch.Order(g, p.Dir)
	fiW, foW := fiMat.Data(), foMat.Data()
	genW, killW := p.Gen.Data(), p.Kill.Data()
	meet := make([]uint64, stride)
	fail := func(err error) (*Result, error) {
		p.Scratch.Release(in, out)
		return nil, err
	}

	for {
		if err := Canceled(p.Ctx, p.Name); err != nil {
			return fail(err)
		}
		res.Stats.Passes++
		changed := false
		for _, node := range order {
			res.Stats.NodeVisits++
			if p.Fuel > 0 && res.Stats.NodeVisits > p.Fuel {
				return fail(&FuelError{Problem: p.Name, Fuel: p.Fuel})
			}
			if res.Stats.NodeVisits%cancelInterval == 0 {
				if err := Canceled(p.Ctx, p.Name); err != nil {
					return fail(err)
				}
			}
			base := node * stride
			e0, e1 := int(offs[node]), int(offs[node+1])

			// Meet. Each source counts as one vector op, exactly as the
			// vector formulation counted its CopyFrom/And/Or per source.
			if e0 == e1 {
				if p.Boundary == BoundaryFull {
					for k := 0; k < stride; k++ {
						meet[k] = ^uint64(0)
					}
					if stride > 0 {
						meet[stride-1] &= lastMask
					}
				} else {
					for k := 0; k < stride; k++ {
						meet[k] = 0
					}
				}
			} else {
				sb := int(edges[e0]) * stride
				copy(meet, foW[sb:sb+stride])
				res.Stats.VectorOps++
				if p.Meet == Must {
					for e := e0 + 1; e < e1; e++ {
						sb := int(edges[e]) * stride
						sw := foW[sb : sb+stride]
						for k := 0; k < stride; k++ {
							meet[k] &= sw[k]
						}
						res.Stats.VectorOps++
					}
				} else {
					for e := e0 + 1; e < e1; e++ {
						sb := int(edges[e]) * stride
						sw := foW[sb : sb+stride]
						for k := 0; k < stride; k++ {
							meet[k] |= sw[k]
						}
						res.Stats.VectorOps++
					}
				}
			}
			for k := 0; k < stride; k++ {
				if fiW[base+k] != meet[k] {
					fiW[base+k] = meet[k]
					changed = true
				}
			}
			res.Stats.VectorOps++

			// Transfer, fused into one word sweep:
			//   flowOut = gen ∨ (flowIn ∧ ¬kill)
			// Accounted as the three logical ops (andnot, or, copy) it
			// replaces.
			for k := 0; k < stride; k++ {
				nv := genW[base+k] | (meet[k] &^ killW[base+k])
				if foW[base+k] != nv {
					foW[base+k] = nv
					changed = true
				}
			}
			res.Stats.VectorOps += 3
		}
		if !changed {
			return res, nil
		}
	}
}

// iterationOrder returns reverse postorder from boundary nodes for forward
// problems, and reverse postorder of the reversed graph for backward ones.
// Nodes unreachable from any boundary node are appended afterwards so they
// still stabilize.
func iterationOrder(g Graph, dir Direction) []int {
	n := g.NumNodes()
	seen := make([]bool, n)
	post := make([]int, 0, n)

	degree := func(i int) int {
		if dir == Forward {
			return g.NumPreds(i)
		}
		return g.NumSuccs(i)
	}
	next := func(i, k int) int {
		if dir == Forward {
			return g.Succ(i, k)
		}
		return g.Pred(i, k)
	}
	fanout := func(i int) int {
		if dir == Forward {
			return g.NumSuccs(i)
		}
		return g.NumPreds(i)
	}

	type frame struct{ node, i int }
	var stack []frame
	dfs := func(root int) {
		if seen[root] {
			return
		}
		seen[root] = true
		stack = append(stack, frame{node: root})
		for len(stack) > 0 {
			fr := &stack[len(stack)-1]
			if fr.i < fanout(fr.node) {
				s := next(fr.node, fr.i)
				fr.i++
				if !seen[s] {
					seen[s] = true
					stack = append(stack, frame{node: s})
				}
				continue
			}
			post = append(post, fr.node)
			stack = stack[:len(stack)-1]
		}
	}
	for i := 0; i < n; i++ {
		if degree(i) == 0 {
			dfs(i)
		}
	}
	for i := 0; i < n; i++ {
		dfs(i)
	}
	// Reverse postorder.
	order := make([]int, len(post))
	for i, v := range post {
		order[len(post)-1-i] = v
	}
	return order
}
