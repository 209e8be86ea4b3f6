// Package gcse implements global common-subexpression elimination on fully
// redundant computations only: a computation is rewritten to reuse a
// temporary exactly when the expression is available (up-safe) at it. This
// is the weaker classical optimization that PRE generalizes; experiment T6
// checks that Lazy Code Motion eliminates a superset of what GCSE
// eliminates, on every input.
//
// The transformation, for each candidate expression e with temporary t:
// every computation x = e at which e is available becomes "x = t", and
// every surviving computation becomes "t = e; x = t" so that the value is
// captured wherever availability may later rely on it. No computations are
// ever inserted, so GCSE can never slow a program down — and never removes
// partial redundancies.
package gcse

import (
	"context"
	"fmt"

	"lazycm/internal/bitvec"
	"lazycm/internal/dataflow"
	"lazycm/internal/ir"
	"lazycm/internal/nodes"
	"lazycm/internal/props"
)

// Options tunes a transformation run.
type Options struct {
	// Fuel bounds the availability analysis in node visits; 0 means
	// unlimited.
	Fuel int
	// Ctx, when non-nil, is polled at iteration boundaries of the
	// availability fixpoint; once done the run fails with an error
	// unwrapping to dataflow.ErrCanceled. Nil means "never canceled".
	Ctx context.Context
}

// Result is the outcome of the GCSE transformation.
type Result struct {
	// F is the transformed clone; the input is not mutated.
	F *ir.Function
	// TempFor maps each touched expression to its temporary.
	TempFor map[ir.Expr]string
	// Replaced counts rewritten fully redundant computations; Saved counts
	// the capture copies added at surviving computations.
	Replaced, Saved int
	// Stats is the availability solver's effort.
	Stats dataflow.Stats
}

// Transform applies GCSE to a clone of f.
func Transform(f *ir.Function) (*Result, error) {
	return TransformOpts(f, Options{})
}

// TransformOpts is Transform with full options (fuel and cancellation).
func TransformOpts(f *ir.Function, o Options) (*Result, error) {
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("gcse: input invalid: %w", err)
	}
	clone := f.Clone()
	u := props.Collect(clone)
	g := nodes.Build(clone, u)
	n := g.NumNodes()
	w := u.Size()

	notTransp := bitvec.NewMatrix(n, w)
	usafeGen := bitvec.NewMatrix(n, w)
	for i := 0; i < n; i++ {
		row := notTransp.Row(i)
		row.CopyFrom(g.Transp.Row(i))
		row.Not()
		gen := usafeGen.Row(i)
		gen.CopyFrom(g.Comp.Row(i))
		gen.And(g.Transp.Row(i))
	}
	avail, err := dataflow.Solve(g, &dataflow.Problem{
		Name: "gcse-avail", Dir: dataflow.Forward, Meet: dataflow.Must,
		Width: w, Gen: usafeGen, Kill: notTransp,
		Boundary: dataflow.BoundaryEmpty, Fuel: o.Fuel, Ctx: o.Ctx,
	})
	if err != nil {
		return nil, fmt.Errorf("gcse: %w", err)
	}

	res := &Result{F: clone, TempFor: make(map[ir.Expr]string), Stats: avail.Stats}

	// An expression is touched if any computation of it is fully
	// redundant (available at its own node).
	touched := make([]bool, w)
	for id, nd := range g.Nodes {
		if nd.Kind != nodes.Stmt {
			continue
		}
		if e, ok := nd.Block.Instrs[nd.Index].Expr(); ok {
			if i, found := u.Index(e); found && avail.In.Get(id, i) {
				touched[i] = true
			}
		}
	}
	used := make(map[string]bool)
	for _, v := range clone.Vars() {
		used[v] = true
	}
	tempName := make([]string, w)
	next := 0
	for e := range touched {
		if !touched[e] {
			continue
		}
		for {
			cand := fmt.Sprintf("g%d", next)
			next++
			if !used[cand] {
				tempName[e] = cand
				used[cand] = true
				res.TempFor[u.Expr(e)] = cand
				break
			}
		}
	}

	// Rewrite per block: replace computations where available, save where
	// not. Iterating the node graph gives us the availability bit per
	// statement; edits are collected per block and applied back to front.
	type edit struct {
		idx     int
		replace bool
		expr    int
	}
	editsByBlock := make(map[*ir.Block][]edit)
	for id, nd := range g.Nodes {
		if nd.Kind != nodes.Stmt {
			continue
		}
		e, ok := nd.Block.Instrs[nd.Index].Expr()
		if !ok {
			continue
		}
		i, found := u.Index(e)
		if !found || tempName[i] == "" {
			continue
		}
		editsByBlock[nd.Block] = append(editsByBlock[nd.Block], edit{
			idx: nd.Index, replace: avail.In.Get(id, i), expr: i,
		})
	}
	for blk, edits := range editsByBlock {
		for j := len(edits) - 1; j >= 0; j-- {
			ed := edits[j]
			in := blk.Instrs[ed.idx]
			t := tempName[ed.expr]
			if ed.replace {
				blk.Instrs[ed.idx] = ir.NewCopy(in.Dst, ir.Var(t))
				res.Replaced++
			} else {
				ex := u.Expr(ed.expr)
				blk.Instrs[ed.idx] = ir.NewCopy(in.Dst, ir.Var(t))
				blk.InsertAt(ed.idx, ir.NewBinOp(t, ex.Op, ex.A, ex.B))
				res.Saved++
			}
		}
	}
	clone.Recompute()
	if err := clone.Validate(); err != nil {
		return nil, fmt.Errorf("gcse: transformed function invalid: %w", err)
	}
	return res, nil
}
