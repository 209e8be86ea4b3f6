// Package lcm implements the paper's contribution: Lazy Code Motion
// (Knoop, Rüthing & Steffen, PLDI 1992), a partial-redundancy-elimination
// transformation that is computationally optimal and, among all
// computationally optimal placements, lifetime optimal.
//
// The algorithm runs on the paper's program model (package nodes: one
// elementary statement per node, unique empty entry and exit, synthetic
// nodes on critical edges) and consists of four unidirectional bit-vector
// data-flow analyses plus two derived predicates, all computed for every
// candidate expression simultaneously:
//
//	DSAFE    (backward, must)  — down-safety: on every path from the node,
//	                             e is computed before any operand changes.
//	USAFE    (forward, must)   — up-safety (availability): on every path to
//	                             the node, e was computed after the last
//	                             operand change.
//	EARLIEST (derived)         — down-safe nodes where the computation can
//	                             be hoisted no further.
//	DELAY    (forward, must)   — insertions can be postponed from earliest
//	                             points down to here without losing
//	                             computational optimality.
//	LATEST   (derived)         — the frontier of delayability: the latest
//	                             computationally optimal insertion points.
//	ISOLATED (backward, must)  — insertions here would only feed the
//	                             immediately following computation.
//
// Three placement modes expose the paper's development:
//
//	BCM  (busy)        — insert at EARLIEST: computationally optimal,
//	                     maximal temporary lifetimes.
//	ALCM (almost lazy) — insert at LATEST: minimal lifetimes except for
//	                     isolated single-use copies.
//	LCM  (lazy)        — insert at LATEST ∧ ¬ISOLATED, suppressing the
//	                     useless copies: the paper's final transformation.
package lcm

import (
	"fmt"
	"strings"

	"lazycm/internal/bitvec"
	"lazycm/internal/dataflow"
	"lazycm/internal/nodes"
	"lazycm/internal/props"
)

// Mode selects a placement strategy.
type Mode int

const (
	// BCM is Busy Code Motion: insert as early as possible.
	BCM Mode = iota
	// ALCM is Almost Lazy Code Motion: insert as late as possible.
	ALCM
	// LCM is Lazy Code Motion: as late as possible, minus isolated
	// insertions.
	LCM
)

// Modes lists the valid placement modes.
func Modes() []Mode { return []Mode{BCM, ALCM, LCM} }

// Valid reports whether m is a defined placement mode.
func (m Mode) Valid() bool { return m == BCM || m == ALCM || m == LCM }

// ParseMode resolves a case-insensitive mode name ("bcm", "alcm", "lcm")
// to its Mode. The second result is false for unknown names.
func ParseMode(s string) (Mode, bool) {
	switch strings.ToLower(s) {
	case "bcm":
		return BCM, true
	case "alcm":
		return ALCM, true
	case "lcm":
		return LCM, true
	}
	return Mode(-1), false
}

// String names the mode.
func (m Mode) String() string {
	switch m {
	case BCM:
		return "BCM"
	case ALCM:
		return "ALCM"
	case LCM:
		return "LCM"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Analysis holds the six global predicates of the paper over a node graph,
// one row per node, one column per candidate expression.
type Analysis struct {
	G *nodes.Graph
	U *props.Universe

	DSafe    *bitvec.Matrix // down-safety at node entry
	USafe    *bitvec.Matrix // up-safety at node entry
	Earliest *bitvec.Matrix
	Delay    *bitvec.Matrix
	Latest   *bitvec.Matrix
	Isolated *bitvec.Matrix

	// Stats holds the solver statistics of the data-flow problems, in the
	// order they were solved (down-safety, up-safety, delay, isolation).
	// The derived predicates' vector operations are accounted in Derived.
	Stats []dataflow.Stats
	// Derived counts the whole-vector operations spent computing EARLIEST
	// and LATEST.
	Derived int

	// sc is the arena every retained matrix was drawn from; Release
	// returns them to it so the next analysis on this arena reuses the
	// same backing storage instead of allocating six fresh matrices.
	sc *dataflow.Scratch
}

// Release returns the six predicate matrices to the analysis arena and
// nils them out. Callers that are done reading the predicates — pipeline
// rounds, server workers between requests, benchmark loops — call it so
// repeated analyses recycle one backing store. Releasing twice is a no-op;
// using the matrices after Release is a caller bug (the arena may hand
// them to the next analysis zeroed).
func (a *Analysis) Release() {
	if a == nil {
		return
	}
	a.sc.Release(a.DSafe, a.USafe, a.Earliest, a.Delay, a.Latest, a.Isolated)
	a.DSafe, a.USafe, a.Earliest, a.Delay, a.Latest, a.Isolated = nil, nil, nil, nil, nil, nil
}

// TotalVectorOps returns the total whole-vector operation count across the
// four data-flow problems and the derived predicates: the efficiency
// currency of experiment T4.
func (a *Analysis) TotalVectorOps() int {
	total := a.Derived
	for _, s := range a.Stats {
		total += s.VectorOps
	}
	return total
}

// Analyze computes all six predicates over g with no fuel bound and no
// cancellation.
func Analyze(g *nodes.Graph) (*Analysis, error) {
	return AnalyzeOpts(g, Options{})
}

// AnalyzeOpts is Analyze with full options: a positive o.Fuel bounds
// each of the four data-flow problems to that many node visits, and a
// problem that fails to converge within it aborts the analysis with an
// error wrapping dataflow.ErrFuelExhausted; o.Ctx, when non-nil, is
// polled at iteration boundaries so a canceled or expired context aborts
// the analysis with an error wrapping dataflow.ErrCanceled (o.Canonical
// is irrelevant here — the universe is fixed by g).
//
// All four data-flow problems and the derived predicates share one
// dataflow.Scratch (o.Scratch, or a run-private one): the traversal order
// is computed once per direction and the matrices are recycled between
// problems instead of reallocated per analysis. The problems are solved
// one after another on the caller's goroutine, each honoring o.Fuel and
// o.Ctx on its own. None of this changes what is computed: every
// fixpoint is the unique solution of its own monotone system (see
// DESIGN.md "Shared analysis scratch").
func AnalyzeOpts(g *nodes.Graph, o Options) (*Analysis, error) {
	n := g.NumNodes()
	w := g.U.Size()
	fuel := o.Fuel
	sc := o.Scratch
	if sc == nil {
		sc = dataflow.NewScratch()
	}
	a := &Analysis{G: g, U: g.U, sc: sc}

	// Shared kill vector: expressions killed by a node are those with a
	// redefined operand, i.e. ¬TRANSP.
	notTransp := sc.Matrix(n, w)
	for i := 0; i < n; i++ {
		notTransp.Row(i).NotOf(g.Transp.Row(i))
	}

	// Gen for up-safety: COMP ∧ TRANSP, because a computation whose own
	// assignment kills an operand (v = v ⊕ b) does not make the
	// expression available.
	usafeGen := sc.Matrix(n, w)
	for i := 0; i < n; i++ {
		usafeGen.Row(i).AndOf(g.Comp.Row(i), g.Transp.Row(i))
	}

	// Down-safety: backward, must.
	//   DSAFE(n) = COMP(n) ∨ (TRANSP(n) ∧ ∏_{m∈succ(n)} DSAFE(m))
	// with DSAFE ≡ false at the exit node.
	//
	// Up-safety: forward, must.
	//   USAFE(n) = ∏_{m∈pred(n)} ((USAFE(m) ∨ COMP(m)) ∧ TRANSP(m))
	// with USAFE ≡ false at the entry node.
	//
	// The two systems are independent — neither reads the other's
	// solution. Down-safety is solved first, so when it fails (fuel
	// starves it, or the context ends) its error is the analysis's on
	// every run.
	dsafeRes, err := dataflow.Solve(g, &dataflow.Problem{
		Name: "dsafe", Dir: dataflow.Backward, Meet: dataflow.Must,
		Width: w, Gen: g.Comp, Kill: notTransp,
		Boundary: dataflow.BoundaryEmpty, Fuel: fuel, Ctx: o.Ctx, Scratch: sc,
	})
	if err != nil {
		sc.Release(notTransp, usafeGen)
		return nil, fmt.Errorf("lcm: %w", err)
	}
	usafeRes, err := dataflow.Solve(g, &dataflow.Problem{
		Name: "usafe", Dir: dataflow.Forward, Meet: dataflow.Must,
		Width: w, Gen: usafeGen, Kill: notTransp,
		Boundary: dataflow.BoundaryEmpty, Fuel: fuel, Ctx: o.Ctx, Scratch: sc,
	})
	if err != nil {
		sc.Release(dsafeRes.In, dsafeRes.Out, notTransp, usafeGen)
		return nil, fmt.Errorf("lcm: %w", err)
	}
	a.DSafe = dsafeRes.In
	a.USafe = usafeRes.In
	a.Stats = append(a.Stats, dsafeRes.Stats, usafeRes.Stats)
	sc.Release(dsafeRes.Out, usafeRes.Out, usafeGen)

	// Earliestness (derived):
	//   EARLIEST(n) = DSAFE(n) ∧ (pred(n) = ∅ ∨
	//       ¬∏_{m∈pred(n)} (TRANSP(m) ∧ (DSAFE(m) ∨ USAFE(m))))
	// A computation can be hoisted over predecessor m only if m does not
	// change its value (TRANSP) and placing it at m is safe. The fused
	// vector ops below compute the same predicates in fewer memory sweeps;
	// Derived still counts the logical (unfused) operations so the T4
	// efficiency currency stays comparable across implementations.
	a.Earliest = sc.Matrix(n, w)
	hoistable := bitvec.New(w)
	tmp := bitvec.New(w)
	for i := 0; i < n; i++ {
		row := a.Earliest.Row(i)
		row.CopyFrom(a.DSafe.Row(i))
		a.Derived++
		if g.NumPreds(i) == 0 {
			continue // entry: earliest wherever down-safe
		}
		hoistable.SetAll()
		for p := 0; p < g.NumPreds(i); p++ {
			m := g.Pred(i, p)
			tmp.OrAndOf(a.DSafe.Row(m), a.USafe.Row(m), g.Transp.Row(m))
			hoistable.And(tmp)
			a.Derived += 4
		}
		row.AndNot(hoistable)
		a.Derived++
	}

	// Delayability: forward, must.
	//   DELAY(n) = EARLIEST(n) ∨ ∏_{m∈pred(n)} (DELAY(m) ∧ ¬COMP(m))
	// with the meet-input false at the entry node. In gen/kill form the
	// transfer is OUT = (IN ∨ EARLIEST) ∧ ¬COMP.
	delayGen := sc.Matrix(n, w)
	for i := 0; i < n; i++ {
		delayGen.Row(i).AndNotOf(a.Earliest.Row(i), g.Comp.Row(i))
	}
	delayRes, err := dataflow.Solve(g, &dataflow.Problem{
		Name: "delay", Dir: dataflow.Forward, Meet: dataflow.Must,
		Width: w, Gen: delayGen, Kill: g.Comp,
		Boundary: dataflow.BoundaryEmpty, Fuel: fuel, Ctx: o.Ctx, Scratch: sc,
	})
	if err != nil {
		sc.Release(notTransp, delayGen, a.Earliest)
		return nil, fmt.Errorf("lcm: %w", err)
	}
	// DELAY at the node is IN ∨ EARLIEST; fold EARLIEST into the solver's
	// IN matrix in place and retain it.
	a.Delay = delayRes.In
	for i := 0; i < n; i++ {
		a.Delay.Row(i).Or(a.Earliest.Row(i))
	}
	a.Stats = append(a.Stats, delayRes.Stats)
	sc.Release(delayRes.Out, delayGen)

	// Latestness (derived):
	//   LATEST(n) = DELAY(n) ∧ (COMP(n) ∨ ¬∏_{m∈succ(n)} DELAY(m))
	a.Latest = sc.Matrix(n, w)
	for i := 0; i < n; i++ {
		row := a.Latest.Row(i)
		ns := g.NumSuccs(i)
		if ns == 0 {
			// ∏ over the empty set is true: LATEST = DELAY ∧ COMP.
			row.AndOf(a.Delay.Row(i), g.Comp.Row(i))
			a.Derived += 2
			continue
		}
		hoistable.SetAll()
		for s := 0; s < ns; s++ {
			hoistable.And(a.Delay.Row(g.Succ(i, s)))
			a.Derived++
		}
		hoistable.Not()
		hoistable.Or(g.Comp.Row(i))
		row.AndOf(a.Delay.Row(i), hoistable)
		a.Derived += 4
	}

	// Isolation: backward, must.
	//   ISOLATED(n) = ∏_{m∈succ(n)} (LATEST(m) ∨ (¬COMP(m) ∧ ISOLATED(m)))
	// with ISOLATED ≡ true at the exit node. In flow form the node value
	// is the OUT side; the IN transfer is IN = LATEST ∨ (OUT ∧ ¬COMP).
	isoRes, err := dataflow.Solve(g, &dataflow.Problem{
		Name: "isolated", Dir: dataflow.Backward, Meet: dataflow.Must,
		Width: w, Gen: a.Latest, Kill: g.Comp,
		Boundary: dataflow.BoundaryFull, Fuel: fuel, Ctx: o.Ctx, Scratch: sc,
	})
	if err != nil {
		sc.Release(notTransp)
		return nil, fmt.Errorf("lcm: %w", err)
	}
	a.Isolated = isoRes.Out
	a.Stats = append(a.Stats, isoRes.Stats)
	sc.Release(isoRes.In, notTransp)

	return a, nil
}

// Placement is a code-motion decision: which expressions to insert before
// which nodes and which computations to rewrite to the temporary.
type Placement struct {
	Mode Mode
	// Insert(node, expr): place t_expr = expr immediately before node.
	Insert *bitvec.Matrix
	// Replace(node, expr): rewrite the node's computation of expr to read
	// t_expr.
	Replace *bitvec.Matrix

	// sc is the arena the matrices came from; see Analysis.sc.
	sc *dataflow.Scratch
}

// Release returns the placement matrices to the analysis arena and nils
// them out; see Analysis.Release for the contract.
func (p *Placement) Release() {
	if p == nil {
		return
	}
	p.sc.Release(p.Insert, p.Replace)
	p.Insert, p.Replace = nil, nil
}

// Placement derives the insert/replace decision for the given mode. An
// unknown mode is a returned error, not a panic: the hardened CLIs
// validate modes up front and the pipeline surfaces the error.
func (a *Analysis) Placement(mode Mode) (*Placement, error) {
	if !mode.Valid() {
		return nil, fmt.Errorf("lcm: invalid mode %d (valid: bcm, alcm, lcm)", int(mode))
	}
	n := a.G.NumNodes()
	w := a.U.Size()
	p := &Placement{Mode: mode, sc: a.sc, Insert: a.sc.Matrix(n, w), Replace: a.sc.Matrix(n, w)}
	for i := 0; i < n; i++ {
		ins := p.Insert.Row(i)
		rep := p.Replace.Row(i)
		switch mode {
		case BCM:
			ins.CopyFrom(a.Earliest.Row(i))
			rep.CopyFrom(a.G.Comp.Row(i))
		case ALCM:
			ins.CopyFrom(a.Latest.Row(i))
			rep.CopyFrom(a.G.Comp.Row(i))
		case LCM:
			// INSERT = LATEST ∧ ¬ISOLATED
			ins.CopyFrom(a.Latest.Row(i))
			ins.AndNot(a.Isolated.Row(i))
			// REPLACE = COMP ∧ ¬(LATEST ∧ ISOLATED)
			rep.CopyFrom(a.Latest.Row(i))
			rep.And(a.Isolated.Row(i))
			rep.Not()
			rep.And(a.G.Comp.Row(i))
		}
	}
	return p, nil
}
