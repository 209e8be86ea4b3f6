// Package mr implements the Morel–Renvoise partial-redundancy elimination
// (CACM 1979), the bidirectional baseline that Lazy Code Motion supersedes.
// It is the comparator of experiments T2 (eliminated computations) and T4
// (solver cost): MR requires a bidirectional fixpoint over the
// placement-possible system, places code at block ends rather than on
// edges (so it misses placements that need a critical edge split), guards
// placement with partial availability, and does not minimize temporary
// lifetimes.
//
// The transformation, for each candidate expression e with temporary t:
//
//	insert  — blocks with INSERT get "t = e" appended at the block end;
//	delete  — the upward-exposed computation x = e of a block with PPIN
//	          becomes "x = t";
//	save    — the surviving downward-exposed computation x = e of a block
//	          becomes "t = e; x = t", so t is current wherever AVOUT
//	          justifies a later deletion. (Saving unconditionally adds
//	          copies, never evaluations; MR's published refinements that
//	          avoid some copies are orthogonal to the measurements here.)
package mr

import (
	"context"
	"fmt"

	"lazycm/internal/bitvec"
	"lazycm/internal/dataflow"
	"lazycm/internal/ir"
	"lazycm/internal/props"
	"lazycm/internal/rewrite"
)

// Options tunes an MR analysis or transformation run.
type Options struct {
	// Fuel bounds each unidirectional data-flow problem (in node visits)
	// and the bidirectional placement-possible fixpoint (in block visits);
	// 0 means unlimited.
	Fuel int
	// Ctx, when non-nil, is polled at iteration boundaries of every
	// fixpoint; once done the run fails with an error unwrapping to
	// dataflow.ErrCanceled. Nil means "never canceled".
	Ctx context.Context
	// Scratch, when non-nil, is the shared analysis arena: the
	// unidirectional solves and every predicate matrix draw from it, and
	// Transform releases them back when done, so repeated MR runs
	// (experiment loops, pipeline passes) recycle one backing store.
	// Results are identical either way.
	Scratch *dataflow.Scratch
}

// Result is the outcome of the MR transformation.
type Result struct {
	// F is the transformed clone; the input is not mutated.
	F *ir.Function
	// TempFor maps each touched expression to its temporary.
	TempFor map[ir.Expr]string
	// Inserted, Deleted and Saved count the code edits.
	Inserted, Deleted, Saved int
	// UniStats are the unidirectional preparatory problems (availability,
	// partial availability).
	UniStats []dataflow.Stats
	// Bidir is the effort of the bidirectional placement-possible
	// fixpoint, reported in the same currency as dataflow.Stats.
	Bidir dataflow.Stats
}

// TotalVectorOps returns all whole-vector operations spent, the T4 metric.
func (r *Result) TotalVectorOps() int {
	total := r.Bidir.VectorOps
	for _, s := range r.UniStats {
		total += s.VectorOps
	}
	return total
}

// Analysis exposes MR's global predicates for inspection and testing.
type Analysis struct {
	U                      *props.Universe
	Local                  *props.BlockLocal
	AvIn, AvOut            *bitvec.Matrix
	PavIn, PavOut          *bitvec.Matrix
	PPIn, PPOut            *bitvec.Matrix
	Insert, Delete         *bitvec.Matrix
	UniStats               []dataflow.Stats
	Passes, BidirVectorOps int

	// sc is the arena the matrices were drawn from (nil: none).
	sc *dataflow.Scratch
}

// Release returns every predicate matrix to the arena it came from
// (dropping them without one) and nils them out; see lcm.Analysis.Release
// for the contract. Transform calls it once the rewrite no longer needs
// the predicates.
func (a *Analysis) Release() {
	if a == nil {
		return
	}
	a.sc.Release(a.AvIn, a.AvOut, a.PavIn, a.PavOut, a.PPIn, a.PPOut, a.Insert, a.Delete)
	a.AvIn, a.AvOut, a.PavIn, a.PavOut = nil, nil, nil, nil
	a.PPIn, a.PPOut, a.Insert, a.Delete = nil, nil, nil, nil
}

// AnalyzeOpts computes MR's global predicates for f. A positive o.Fuel
// bounds each data-flow problem in node visits and the bidirectional
// placement-possible fixpoint in block visits; 0 means unlimited. The
// bidirectional system is exactly where a bound earns its keep: unlike
// the unidirectional problems, its convergence argument is subtler, and
// a bug in the transfer functions would otherwise spin forever. The same
// reasoning makes it the right place for cancellation: it is the most
// iteration-hungry fixpoint in the tree, so o.Ctx is polled every sweep.
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

	av, err := dataflow.Solve(g, &dataflow.Problem{
		Name: "mr-avail", Dir: dataflow.Forward, Meet: dataflow.Must,
		Width: w, Gen: local.Comp, Kill: notTransp,
		Boundary: dataflow.BoundaryEmpty, Fuel: fuel, Ctx: o.Ctx, Scratch: sc,
	})
	if err != nil {
		return nil, fmt.Errorf("mr: %w", err)
	}
	pav, err := dataflow.Solve(g, &dataflow.Problem{
		Name: "mr-pavail", Dir: dataflow.Forward, Meet: dataflow.May,
		Width: w, Gen: local.Comp, Kill: notTransp,
		Boundary: dataflow.BoundaryEmpty, Fuel: fuel, Ctx: o.Ctx, Scratch: sc,
	})
	if err != nil {
		return nil, fmt.Errorf("mr: %w", err)
	}
	sc.Release(notTransp) // kill set only feeds the two solves above

	a := &Analysis{
		U: u, Local: local,
		AvIn: av.In, AvOut: av.Out,
		PavIn: pav.In, PavOut: pav.Out,
		PPIn: sc.Matrix(n, w), PPOut: sc.Matrix(n, w),
		UniStats: []dataflow.Stats{av.Stats, pav.Stats},
		sc:       sc,
	}

	// Bidirectional placement-possible system, solved as a decreasing
	// round-robin fixpoint from the all-true start:
	//
	//	PPOUT(i) = ∏_{s∈succ(i)} PPIN(s)                (false at exits)
	//	PPIN(i)  = PAVIN(i)
	//	         ∧ (ANTLOC(i) ∨ (TRANSP(i) ∧ PPOUT(i)))
	//	         ∧ ∏_{p∈pred(i)} (PPOUT(p) ∨ AVOUT(p))  (false at entry)
	//
	// Like dataflow's serial solver, the sweep works on the matrices'
	// flat word backing: the universes here are a word or two wide, so
	// per-row Vector views would cost more in dispatch than the word
	// math. The op accounting mirrors the vector formulation exactly.
	stride := a.PPIn.Stride()
	lastMask := ^uint64(0)
	if rem := uint(w) & 63; rem != 0 {
		lastMask = (uint64(1) << rem) - 1
	}
	ppInW, ppOutW := a.PPIn.Data(), a.PPOut.Data()
	if stride > 0 {
		for i := range ppInW {
			ppInW[i] = ^uint64(0)
			ppOutW[i] = ^uint64(0)
		}
		for i := 0; i < n; i++ {
			ppInW[i*stride+stride-1] &= lastMask
			ppOutW[i*stride+stride-1] &= lastMask
		}
	}
	transpW, antlocW := local.Transp.Data(), local.Antloc.Data()
	pavInW, avOutW := a.PavIn.Data(), a.AvOut.Data()
	acc := make([]uint64, stride)
	visits := 0
	for {
		if err := dataflow.Canceled(o.Ctx, "mr-pp"); err != nil {
			return nil, err
		}
		a.Passes++
		changed := false
		for _, b := range f.Blocks {
			i := b.ID
			visits++
			if fuel > 0 && visits > fuel {
				return nil, fmt.Errorf("mr: placement-possible fixpoint: %w",
					&dataflow.FuelError{Problem: "mr-pp", Fuel: fuel})
			}
			base := i * stride
			// PPOUT
			if b.NumSuccs() == 0 {
				for k := 0; k < stride; k++ {
					acc[k] = 0
				}
			} else {
				for k := 0; k < stride; k++ {
					acc[k] = ^uint64(0)
				}
				if stride > 0 {
					acc[stride-1] &= lastMask
				}
				for s := 0; s < b.NumSuccs(); s++ {
					sb := b.Succ(s).ID * stride
					for k := 0; k < stride; k++ {
						acc[k] &= ppInW[sb+k]
					}
					a.BidirVectorOps++
				}
			}
			for k := 0; k < stride; k++ {
				if ppOutW[base+k] != acc[k] {
					ppOutW[base+k] = acc[k]
					changed = true
				}
			}
			a.BidirVectorOps++

			// PPIN
			preds := b.Preds()
			if len(preds) == 0 {
				for k := 0; k < stride; k++ {
					acc[k] = 0
				}
			} else {
				// PAVIN ∧ (ANTLOC ∨ (TRANSP ∧ PPOUT)), fused per word,
				// counted as the four vector ops it replaces.
				for k := 0; k < stride; k++ {
					acc[k] = pavInW[base+k] & (antlocW[base+k] | (transpW[base+k] & ppOutW[base+k]))
				}
				a.BidirVectorOps += 4
				for p := 0; p < len(preds); p++ {
					pb := preds[p].ID * stride
					for k := 0; k < stride; k++ {
						acc[k] &= ppOutW[pb+k] | avOutW[pb+k]
					}
					a.BidirVectorOps += 3
				}
			}
			for k := 0; k < stride; k++ {
				if ppInW[base+k] != acc[k] {
					ppInW[base+k] = acc[k]
					changed = true
				}
			}
			a.BidirVectorOps++
		}
		if !changed {
			break
		}
	}

	// INSERT(i) = PPOUT(i) ∧ ¬AVOUT(i) ∧ (¬PPIN(i) ∨ ¬TRANSP(i))
	// DELETE(i) = ANTLOC(i) ∧ PPIN(i)
	a.Insert = sc.Matrix(n, w)
	a.Delete = sc.Matrix(n, w)
	for i := 0; i < n; i++ {
		ins := a.Insert.Row(i)
		ins.CopyFrom(a.PPIn.Row(i))
		ins.And(local.Transp.Row(i))
		ins.Not()
		ins.And(a.PPOut.Row(i))
		ins.AndNot(a.AvOut.Row(i))

		del := a.Delete.Row(i)
		del.CopyFrom(local.Antloc.Row(i))
		del.And(a.PPIn.Row(i))
	}
	return a, nil
}

// Transform applies the MR transformation to a clone of f.
func Transform(f *ir.Function) (*Result, error) {
	return TransformOpts(f, Options{})
}

// TransformOpts is Transform with full options (fuel and cancellation).
func TransformOpts(f *ir.Function, o Options) (*Result, error) {
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("mr: input invalid: %w", err)
	}
	clone := f.Clone()
	a, err := AnalyzeOpts(clone, o)
	if err != nil {
		return nil, err
	}
	u := a.U
	n := clone.NumBlocks()
	w := u.Size()

	res := &Result{
		F: clone, TempFor: make(map[ir.Expr]string),
		UniStats: a.UniStats,
		Bidir: dataflow.Stats{
			Name: "mr-pp", Passes: a.Passes,
			NodeVisits: a.Passes * n, VectorOps: a.BidirVectorOps,
		},
	}

	// Temp naming: deterministic, by expression number, for expressions
	// with any insertion or deletion.
	touched := make([]bool, w)
	for i := 0; i < n; i++ {
		a.Insert.Row(i).ForEach(func(e int) { touched[e] = true })
		a.Delete.Row(i).ForEach(func(e int) { touched[e] = true })
	}
	tempName, tempFor := rewrite.TempNamer(clone, u, touched, "m")
	res.TempFor = tempFor

	for _, b := range clone.Blocks {
		ed := rewrite.Edits{}
		a.Delete.Row(b.ID).ForEach(func(e int) { ed.Delete = append(ed.Delete, e) })
		for e := 0; e < w; e++ {
			if touched[e] && a.Local.Comp.Get(b.ID, e) {
				ed.SaveDown = append(ed.SaveDown, e)
			}
		}
		a.Insert.Row(b.ID).ForEach(func(e int) { ed.Append = append(ed.Append, e) })
		c := rewrite.Apply(b, u, ed, tempName)
		res.Deleted += c.Deleted
		res.Saved += c.Saved
		res.Inserted += c.Inserted
	}
	// The Result does not retain the Analysis, so every predicate matrix
	// can go straight back to the arena for the caller's next run.
	a.Release()
	clone.Recompute()
	if err := clone.Validate(); err != nil {
		return nil, fmt.Errorf("mr: transformed function invalid: %w", err)
	}
	return res, nil
}
