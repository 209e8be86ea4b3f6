package lcm

import (
	"context"
	"fmt"
	"sort"

	"lazycm/internal/dataflow"
	"lazycm/internal/graph"
	"lazycm/internal/ir"
	"lazycm/internal/nodes"
	"lazycm/internal/props"
	"lazycm/internal/rewrite"
)

// Result is the outcome of a PRE transformation.
type Result struct {
	// F is the transformed function: a clone of the input with critical
	// edges split, temporaries inserted, and computations replaced. The
	// input function is never mutated.
	F *ir.Function
	// Mode is the placement mode used.
	Mode Mode
	// Analysis is the full predicate analysis on the (edge-split) clone's
	// node graph.
	Analysis *Analysis
	// Placement is the insert/replace decision applied.
	Placement *Placement
	// TempFor maps each candidate expression to its temporary's name.
	// Only expressions with at least one insertion or replacement appear.
	TempFor map[ir.Expr]string
	// Inserted and Replaced count the code edits.
	Inserted, Replaced int
	// EdgesSplit is the number of critical edges materialized.
	EdgesSplit int
}

// Options tunes a transformation run beyond the placement mode.
type Options struct {
	// Canonical identifies commutated forms of commutative operators
	// (a+b ≡ b+a) in the expression universe, exposing strictly more
	// redundancies than the paper's purely lexical model — the extension
	// measured by experiment T7.
	Canonical bool
	// Fuel bounds each data-flow problem to that many node visits;
	// 0 means unlimited. See dataflow.Problem.Fuel.
	Fuel int
	// Ctx, when non-nil, lets the caller abandon the transformation: the
	// four data-flow problems poll it at iteration boundaries and the
	// whole run fails with an error unwrapping to dataflow.ErrCanceled.
	// Nil means "never canceled". See dataflow.Problem.Ctx.
	Ctx context.Context
	// Scratch, when non-nil, is the shared analysis arena: traversal
	// orders computed once per graph and recycled bit-vector storage
	// across the four data-flow problems (and across calls, e.g. one
	// arena per pipeline run). Nil means a run-private arena. The
	// analysis results are identical either way; see dataflow.Scratch.
	// Callers that keep one arena across calls should Release finished
	// results (Result.Release / Analysis.Release) so the six retained
	// predicate matrices recycle too.
	Scratch *dataflow.Scratch
}

// Release returns the result's analysis and placement matrices to the
// scratch arena they were drawn from. Callers that run many
// transformations over one shared arena (pipeline rounds, server workers,
// benchmark loops) call it once they are done reading the predicates; the
// transformed function, counters, and TempFor map stay valid. Releasing a
// nil result or releasing twice is a no-op.
func (r *Result) Release() {
	if r == nil {
		return
	}
	r.Analysis.Release()
	r.Placement.Release()
}

// Transform applies the given placement mode to a clone of f and returns
// the result. The input function must be valid; the output is valid too.
func Transform(f *ir.Function, mode Mode) (*Result, error) {
	return TransformOpts(f, mode, Options{})
}

// TransformWith is Transform with the canonical-universe option.
func TransformWith(f *ir.Function, mode Mode, canonical bool) (*Result, error) {
	return TransformOpts(f, mode, Options{Canonical: canonical})
}

// TransformOpts is Transform with full options.
func TransformOpts(f *ir.Function, mode Mode, o Options) (*Result, error) {
	if !mode.Valid() {
		return nil, fmt.Errorf("lcm: invalid mode %d (valid: bcm, alcm, lcm)", int(mode))
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("lcm: input invalid: %w", err)
	}
	clone := f.Clone()
	split := graph.SplitCriticalEdges(clone)

	var u *props.Universe
	if o.Canonical {
		u = props.CollectCanonical(clone)
	} else {
		u = props.Collect(clone)
	}
	g := nodes.Build(clone, u)
	a, err := AnalyzeOpts(g, o)
	if err != nil {
		return nil, err
	}
	p, err := a.Placement(mode)
	if err != nil {
		return nil, err
	}

	res := &Result{
		F: clone, Mode: mode, Analysis: a, Placement: p,
		EdgesSplit: split,
	}
	if err := apply(res, g, u); err != nil {
		return nil, err
	}
	if err := clone.Validate(); err != nil {
		return nil, fmt.Errorf("lcm: transformed function invalid: %w", err)
	}
	return res, nil
}

// insertion is one pending edit: place t_expr = expr before position pos of
// a block.
type insertion struct {
	pos  int
	expr int
}

func apply(res *Result, g *nodes.Graph, u *props.Universe) error {
	clone := res.F

	// Name the temporaries deterministically: in expression-number order,
	// t0, t1, … skipping any names the program already uses. Only
	// expressions the placement touches get a temporary.
	touched := make([]bool, u.Size())
	for id := 0; id < g.NumNodes(); id++ {
		res.Placement.Insert.Row(id).ForEach(func(e int) { touched[e] = true })
		res.Placement.Replace.Row(id).ForEach(func(e int) { touched[e] = true })
	}
	var tempName []string
	tempName, res.TempFor = rewrite.TempNamer(clone, u, touched, "t")

	// Group insertions by block; record replacements per (block, index).
	insertsByBlock := make(map[*ir.Block][]insertion)
	type replKey struct {
		b   *ir.Block
		idx int
	}
	replace := make(map[replKey][]int)

	for id, nd := range g.Nodes {
		insRow := res.Placement.Insert.Row(id)
		if !insRow.IsEmpty() {
			var blk *ir.Block
			var pos int
			switch nd.Kind {
			case nodes.Stmt:
				blk, pos = nd.Block, nd.Index
			case nodes.Term:
				blk, pos = nd.Block, len(nd.Block.Instrs)
			case nodes.Entry:
				blk, pos = clone.Entry(), 0
			case nodes.Exit:
				return fmt.Errorf("lcm: internal error: insertion at virtual exit")
			}
			insRow.ForEach(func(e int) {
				insertsByBlock[blk] = append(insertsByBlock[blk], insertion{pos: pos, expr: e})
			})
		}
		repRow := res.Placement.Replace.Row(id)
		if !repRow.IsEmpty() {
			if nd.Kind != nodes.Stmt {
				return fmt.Errorf("lcm: internal error: replacement at non-statement node %s", nd)
			}
			repRow.ForEach(func(e int) {
				k := replKey{b: nd.Block, idx: nd.Index}
				replace[k] = append(replace[k], e)
			})
		}
	}

	// Apply replacements first (indices are still the originals).
	for k, exprs := range replace {
		if len(exprs) != 1 {
			return fmt.Errorf("lcm: internal error: %d replacements at one statement", len(exprs))
		}
		e := exprs[0]
		in := &k.b.Instrs[k.idx]
		ie, ok := in.Expr()
		if !ok {
			return fmt.Errorf("lcm: internal error: replacing non-computation %s", in)
		}
		if idx, found := u.Index(ie); !found || idx != e {
			return fmt.Errorf("lcm: internal error: replacement expression mismatch at %s", in)
		}
		*in = ir.NewCopy(in.Dst, ir.Var(tempName[e]))
		res.Replaced++
	}

	// Apply insertions back to front within each block so positions stay
	// valid; ties (same position) are applied in expression order.
	for blk, ins := range insertsByBlock {
		sort.Slice(ins, func(i, j int) bool {
			if ins[i].pos != ins[j].pos {
				return ins[i].pos > ins[j].pos
			}
			return ins[i].expr > ins[j].expr
		})
		for _, c := range ins {
			e := u.Expr(c.expr)
			blk.InsertAt(c.pos, ir.NewBinOp(tempName[c.expr], e.Op, e.A, e.B))
			res.Inserted++
		}
	}
	clone.Recompute()
	return nil
}

// StaticComputations counts BinOp statements in f: the static code-size
// measure reported by the experiments.
func StaticComputations(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Kind == ir.BinOp {
				n++
			}
		}
	}
	return n
}
