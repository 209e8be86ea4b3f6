// Package lcmblock implements the block-level, edge-placement formulation
// of Lazy Code Motion (the Drechsler–Stadel variation, SIGPLAN Notices
// 28(5), 1993 — the formulation adopted by GCC's lcm.cc). It computes the
// same computationally optimal placement as the statement-level core in
// package lcm, but expresses it with two derived edge predicates:
//
//	ANTIN/ANTOUT   anticipatability (down-safety), backward/must
//	AVIN/AVOUT     availability (up-safety), forward/must
//	EARLIEST(i,j)  = ANTIN(j) ∧ ¬AVOUT(i) ∧ (¬TRANSP(i) ∨ ¬ANTOUT(i))
//	               (on the virtual entry edge: just ANTIN(entry))
//	LATER(i,j)     = EARLIEST(i,j) ∨ (LATERIN(i) ∧ ¬ANTLOC(i))
//	LATERIN(j)     = ∏ over incoming edges of LATER
//	INSERT(i,j)    = LATER(i,j) ∧ ¬LATERIN(j)       (placed on the edge)
//	DELETE(b)      = ANTLOC(b) ∧ ¬LATERIN(b)
//
// Deleted upward-exposed computations read the temporary; surviving
// downward-exposed computations save into it (so availability-justified
// deletions see the value); INSERT edges get the computation materialized
// on the edge, splitting it into a fresh block when it cannot be attached
// to either endpoint.
//
// The paper's model assumes local common-subexpression elimination has
// run; Transform therefore applies package lcse first. The property that
// this variant and the statement-level core perform identical numbers of
// dynamic evaluations on every path is cross-checked in the tests.
package lcmblock

import (
	"context"
	"fmt"

	"lazycm/internal/bitvec"
	"lazycm/internal/dataflow"
	"lazycm/internal/graph"
	"lazycm/internal/ir"
	"lazycm/internal/lcse"
	"lazycm/internal/props"
	"lazycm/internal/rewrite"
)

// Analysis exposes the block/edge-level predicates.
type Analysis struct {
	U     *props.Universe
	Local *props.BlockLocal
	// AntIn/AntOut and AvIn/AvOut are per-block.
	AntIn, AntOut *bitvec.Matrix
	AvIn, AvOut   *bitvec.Matrix
	// Edges lists the CFG edges the edge predicates are indexed by;
	// Edges[0] is the virtual entry edge (From == nil, To == entry).
	Edges []EdgeRef
	// Earliest, Later and Insert are per-edge (row = edge index).
	Earliest, Later, Insert *bitvec.Matrix
	// LaterIn and Delete are per-block.
	LaterIn, Delete *bitvec.Matrix
	// UniStats are the two unidirectional problems; LaterPasses and
	// LaterVectorOps are the LATER fixpoint's effort.
	UniStats                    []dataflow.Stats
	LaterPasses, LaterVectorOps int

	// sc is the arena the matrices were drawn from (nil: none).
	sc *dataflow.Scratch
}

// Release returns every predicate matrix to the arena it came from
// (dropping them without one) and nils them out; the edge list, stats and
// locals stay valid. Callers that analyze many functions over one shared
// arena call it once they are done reading the predicates. Releasing
// twice is a no-op.
func (a *Analysis) Release() {
	if a == nil {
		return
	}
	a.sc.Release(a.AntIn, a.AntOut, a.AvIn, a.AvOut,
		a.Earliest, a.Later, a.Insert, a.LaterIn, a.Delete)
	a.AntIn, a.AntOut, a.AvIn, a.AvOut = nil, nil, nil, nil
	a.Earliest, a.Later, a.Insert, a.LaterIn, a.Delete = nil, nil, nil, nil, nil
}

// EdgeRef identifies an edge for the edge-indexed predicates. The virtual
// entry edge has From == nil.
type EdgeRef struct {
	From *ir.Block
	// Index is the successor slot in From (meaningless for the virtual
	// entry edge).
	Index int
	To    *ir.Block
}

// TotalVectorOps returns all whole-vector operations spent: the
// same-granularity comparison currency for experiment T4b.
func (a *Analysis) TotalVectorOps() int {
	t := a.LaterVectorOps
	for _, s := range a.UniStats {
		t += s.VectorOps
	}
	return t
}

// Options tunes an analysis or transformation run.
type Options struct {
	// Fuel bounds each data-flow problem (node visits) and the LATER
	// fixpoint (block visits); 0 means unlimited.
	Fuel int
	// Ctx, when non-nil, is polled at iteration boundaries of every
	// fixpoint; once done the run fails with an error unwrapping to
	// dataflow.ErrCanceled. Nil means "never canceled".
	Ctx context.Context
	// Scratch, when non-nil, is the shared analysis arena: the two
	// unidirectional solves and every predicate matrix draw from it.
	// Results are identical either way; callers should Release finished
	// analyses so the matrices recycle. See dataflow.Scratch.
	Scratch *dataflow.Scratch
}

// AnalyzeOpts computes the edge-LCM predicates for f (which should
// already be LCSE-normalized; Transform takes care of that). A positive
// o.Fuel bounds each data-flow problem in node visits and the LATER
// fixpoint in block visits; 0 means unlimited.
func AnalyzeOpts(f *ir.Function, o Options) (*Analysis, error) {
	fuel := o.Fuel
	sc := o.Scratch
	u := props.Collect(f)
	local := props.ComputeBlockLocal(f, u)
	n := f.NumBlocks()
	w := u.Size()
	g := dataflow.BlockGraph{F: f}

	notTransp := sc.Matrix(n, w)
	for i := 0; i < n; i++ {
		row := notTransp.Row(i)
		row.CopyFrom(local.Transp.Row(i))
		row.Not()
	}

	ant, err := dataflow.Solve(g, &dataflow.Problem{
		Name: "blk-ant", Dir: dataflow.Backward, Meet: dataflow.Must,
		Width: w, Gen: local.Antloc, Kill: notTransp,
		Boundary: dataflow.BoundaryEmpty, Fuel: fuel, Ctx: o.Ctx, Scratch: sc,
	})
	if err != nil {
		return nil, fmt.Errorf("lcmblock: %w", err)
	}
	av, err := dataflow.Solve(g, &dataflow.Problem{
		Name: "blk-avail", Dir: dataflow.Forward, Meet: dataflow.Must,
		Width: w, Gen: local.Comp, Kill: notTransp,
		Boundary: dataflow.BoundaryEmpty, Fuel: fuel, Ctx: o.Ctx, Scratch: sc,
	})
	if err != nil {
		return nil, fmt.Errorf("lcmblock: %w", err)
	}
	sc.Release(notTransp) // kill set only feeds the two solves above

	a := &Analysis{
		U: u, Local: local,
		AntIn: ant.In, AntOut: ant.Out,
		AvIn: av.In, AvOut: av.Out,
		UniStats: []dataflow.Stats{ant.Stats, av.Stats},
		sc:       sc,
	}

	// Edge list: virtual entry edge first, then real edges in
	// deterministic (block, slot) order.
	a.Edges = append(a.Edges, EdgeRef{From: nil, To: f.Entry()})
	for _, e := range graph.Edges(f) {
		a.Edges = append(a.Edges, EdgeRef{From: e.From, Index: e.Index, To: e.To()})
	}
	ne := len(a.Edges)

	// EARLIEST per edge.
	a.Earliest = sc.Matrix(ne, w)
	tmp, prev := bitvec.New(w), bitvec.New(w)
	for x, e := range a.Edges {
		row := a.Earliest.Row(x)
		row.CopyFrom(a.AntIn.Row(e.To.ID))
		if e.From == nil {
			continue // virtual entry: EARLIEST = ANTIN(entry)
		}
		i := e.From.ID
		row.AndNot(a.AvOut.Row(i))
		// ∧ (¬TRANSP(i) ∨ ¬ANTOUT(i)) = ¬(TRANSP(i) ∧ ANTOUT(i))
		tmp.CopyFrom(local.Transp.Row(i))
		tmp.And(a.AntOut.Row(i))
		row.AndNot(tmp)
	}

	// LATER / LATERIN fixpoint (decreasing from all-ones).
	a.Later = sc.Matrix(ne, w)
	a.LaterIn = sc.Matrix(n, w)
	for x := 0; x < ne; x++ {
		a.Later.Row(x).SetAll()
	}
	for b := 0; b < n; b++ {
		a.LaterIn.Row(b).SetAll()
	}
	// Incoming edge indices per block.
	inEdges := make([][]int, n)
	for x, e := range a.Edges {
		inEdges[e.To.ID] = append(inEdges[e.To.ID], x)
	}
	rpo := graph.ReversePostorder(f)
	visits := 0
	for {
		if err := dataflow.Canceled(o.Ctx, "blk-later"); err != nil {
			return nil, err
		}
		a.LaterPasses++
		changed := false
		for _, b := range rpo {
			visits++
			if fuel > 0 && visits > fuel {
				return nil, fmt.Errorf("lcmblock: later fixpoint: %w",
					&dataflow.FuelError{Problem: "blk-later", Fuel: fuel})
			}
			// LATERIN(b) = ∏ incoming LATER. Every block has at least one
			// incoming edge (entry has the virtual one; others are
			// reachable).
			tmp.SetAll()
			for _, x := range inEdges[b.ID] {
				tmp.And(a.Later.Row(x))
				a.LaterVectorOps++
			}
			if a.LaterIn.Row(b.ID).CopyFrom(tmp) {
				changed = true
			}
			a.LaterVectorOps++
			// Outgoing LATER(b, s) = EARLIEST ∨ (LATERIN(b) ∧ ¬ANTLOC(b)).
			for x, e := range a.Edges {
				if e.From != b {
					continue
				}
				row := a.Later.Row(x)
				prev.CopyFrom(row)
				row.CopyFrom(a.LaterIn.Row(b.ID))
				row.AndNot(local.Antloc.Row(b.ID))
				row.Or(a.Earliest.Row(x))
				a.LaterVectorOps += 3
				if !row.Equal(prev) {
					changed = true
				}
			}
		}
		// The virtual entry edge's LATER is constant: EARLIEST(entry).
		if a.Later.Row(0).CopyFrom(a.Earliest.Row(0)) {
			changed = true
		}
		a.LaterVectorOps++
		if !changed {
			break
		}
	}

	// INSERT per edge; DELETE per block.
	a.Insert = sc.Matrix(ne, w)
	for x, e := range a.Edges {
		row := a.Insert.Row(x)
		row.CopyFrom(a.Later.Row(x))
		row.AndNot(a.LaterIn.Row(e.To.ID))
	}
	a.Delete = sc.Matrix(n, w)
	for b := 0; b < n; b++ {
		row := a.Delete.Row(b)
		row.CopyFrom(local.Antloc.Row(b))
		row.AndNot(a.LaterIn.Row(b))
	}
	return a, nil
}

// Result is the outcome of the edge-LCM transformation.
type Result struct {
	// F is the transformed clone (LCSE applied first); the input is not
	// mutated.
	F *ir.Function
	// TempFor maps each touched expression to its temporary.
	TempFor map[ir.Expr]string
	// Analysis is the edge-level analysis of the LCSE-normalized clone.
	Analysis *Analysis
	// Inserted/Deleted/Saved count the PRE edits; LCSEEliminated counts
	// the local pre-pass eliminations; EdgesSplit counts edges that needed
	// a fresh block for their insertion.
	Inserted, Deleted, Saved int
	LCSEEliminated           int
	EdgesSplit               int
}

// Release returns the result's analysis matrices to the scratch arena they
// were drawn from; the transformed function, counters, and TempFor map
// stay valid. No-op on a nil or released result.
func (r *Result) Release() {
	if r == nil {
		return
	}
	r.Analysis.Release()
}

// Transform applies LCSE and then edge-based LCM to a clone of f.
func Transform(f *ir.Function) (*Result, error) {
	return TransformOpts(f, Options{})
}

// TransformOpts is Transform with full options (fuel and cancellation).
func TransformOpts(f *ir.Function, o Options) (*Result, error) {
	pre, err := lcse.Transform(f)
	if err != nil {
		return nil, fmt.Errorf("lcmblock: %w", err)
	}
	clone := pre.F
	a, err := AnalyzeOpts(clone, o)
	if err != nil {
		return nil, err
	}
	u := a.U
	w := u.Size()

	res := &Result{F: clone, Analysis: a, LCSEEliminated: pre.Eliminated}

	touched := make([]bool, w)
	for x := range a.Edges {
		a.Insert.Row(x).ForEach(func(e int) { touched[e] = true })
	}
	for b := 0; b < clone.NumBlocks(); b++ {
		a.Delete.Row(b).ForEach(func(e int) { touched[e] = true })
	}
	tempName, tempFor := rewrite.TempNamer(clone, u, touched, "e")
	res.TempFor = tempFor

	// Deletes and saves, per block.
	for _, b := range clone.Blocks {
		ed := rewrite.Edits{}
		a.Delete.Row(b.ID).ForEach(func(e int) { ed.Delete = append(ed.Delete, e) })
		for e := 0; e < w; e++ {
			if touched[e] && a.Local.Comp.Get(b.ID, e) {
				ed.SaveDown = append(ed.SaveDown, e)
			}
		}
		c := rewrite.Apply(b, u, ed, tempName)
		res.Deleted += c.Deleted
		res.Saved += c.Saved
	}

	// Insertions, per edge. Collect first: splitting edges while iterating
	// would disturb the edge references.
	type edgeInsert struct {
		ref   EdgeRef
		exprs []int
	}
	var inserts []edgeInsert
	for x, e := range a.Edges {
		row := a.Insert.Row(x)
		if row.IsEmpty() {
			continue
		}
		ei := edgeInsert{ref: e}
		row.ForEach(func(expr int) { ei.exprs = append(ei.exprs, expr) })
		inserts = append(inserts, ei)
	}
	for _, ins := range inserts {
		blk, split := materializeEdge(clone, ins.ref)
		if split {
			res.EdgesSplit++
		}
		// Insert at the end of blk (it is either a dedicated split block,
		// a single-successor source, or handled at the destination top).
		for _, expr := range ins.exprs {
			e := u.Expr(expr)
			in := ir.NewBinOp(tempName[expr], e.Op, e.A, e.B)
			if blk.atTop {
				blk.b.InsertAt(0, in)
			} else {
				blk.b.Append(in)
			}
			res.Inserted++
		}
	}

	clone.Recompute()
	if err := clone.Validate(); err != nil {
		return nil, fmt.Errorf("lcmblock: transformed function invalid: %w", err)
	}
	return res, nil
}

// placement says where on an edge the insertion physically goes.
type placement struct {
	b     *ir.Block
	atTop bool
}

// materializeEdge returns the block that realizes a placement on the given
// edge, splitting the edge with a fresh block when neither endpoint can
// host the code alone.
func materializeEdge(f *ir.Function, e EdgeRef) (placement, bool) {
	if e.From == nil {
		// Virtual entry edge: the top of the entry block (which has no
		// other predecessors... it may have loop back edges; if so, split
		// semantics require a preheader — insert at top only if entry has
		// no predecessors).
		if len(f.Entry().Preds()) == 0 {
			return placement{b: f.Entry(), atTop: true}, false
		}
		// Extremely unusual shape (entry is a loop header): create a
		// fresh pre-entry block.
		nb := f.AddBlock(f.FreshBlockName("preentry"))
		old := f.Entry()
		// Make nb the new entry by swapping it to position 0.
		last := len(f.Blocks) - 1
		f.Blocks[0], f.Blocks[last] = f.Blocks[last], f.Blocks[0]
		nb.Term = ir.Terminator{Kind: ir.Jump, Then: old}
		f.Recompute()
		return placement{b: nb}, true
	}
	to := e.To
	// The destination can host the insertion at its top only if this edge
	// is its sole way in; the entry block always has the virtual entry
	// path in addition to any real predecessors.
	if len(to.Preds()) == 1 && to != f.Entry() {
		return placement{b: to, atTop: true}, false
	}
	if e.From.NumSuccs() == 1 {
		return placement{b: e.From}, false
	}
	// Critical edge: split.
	nb := f.AddBlock(f.FreshBlockName(e.From.Name + "." + to.Name + ".split"))
	nb.Term = ir.Terminator{Kind: ir.Jump, Then: to}
	e.From.SetSucc(e.Index, nb)
	f.Recompute()
	return placement{b: nb}, true
}
