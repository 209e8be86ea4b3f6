// Package live computes variable liveness at statement granularity and the
// temporary-lifetime metric of the paper's lifetime-optimality theorem
// (experiment T3): the number of program points at which a PRE temporary is
// live. Busy code motion maximizes these ranges; lazy code motion
// provably minimizes them among all computationally optimal placements.
package live

import (
	"context"
	"fmt"
	"sort"

	"lazycm/internal/bitvec"
	"lazycm/internal/dataflow"
	"lazycm/internal/ir"
	"lazycm/internal/nodes"
	"lazycm/internal/props"
)

// Info is the liveness solution for one function over a chosen variable
// set.
type Info struct {
	G    *nodes.Graph
	Vars []string
	// LiveIn and LiveOut are node×variable matrices: LiveIn(n, v) means v
	// is live immediately before node n.
	LiveIn, LiveOut *bitvec.Matrix

	index map[string]int
	// Stats are the liveness solver's statistics.
	Stats dataflow.Stats

	// sc is the arena the solution matrices came from (nil: none).
	sc *dataflow.Scratch
}

// Release returns the liveness matrices to the arena they were drawn from
// (dropping them without one) and nils them out. Repeated liveness solves
// over one arena — the DCE fixpoint rounds, lifetime metrics over many
// functions — recycle the same backing store this way.
func (i *Info) Release() {
	if i == nil {
		return
	}
	i.sc.Release(i.LiveIn, i.LiveOut)
	i.LiveIn, i.LiveOut = nil, nil
}

// Compute solves liveness for f. If vars is nil, all variables of f are
// tracked; otherwise only the given ones. Variables in vars that f never
// mentions are legal and simply never live.
func Compute(f *ir.Function, vars []string) (*Info, error) {
	return ComputeCtx(nil, f, vars)
}

// ComputeCtx is Compute with cancellation: a non-nil ctx is polled at the
// liveness solver's iteration boundaries, and once done the computation
// fails with an error unwrapping to dataflow.ErrCanceled. A nil ctx means
// "never canceled".
func ComputeCtx(ctx context.Context, f *ir.Function, vars []string) (*Info, error) {
	return ComputeScratch(ctx, f, vars, nil)
}

// ComputeScratch is ComputeCtx with a shared analysis arena: a non-nil
// scratch supplies the liveness solver's traversal order and matrices,
// so repeated liveness queries (lifetime metrics over many
// temporaries, pipeline runs over many functions) reuse allocations. The
// solution is identical with or without it.
func ComputeScratch(ctx context.Context, f *ir.Function, vars []string, sc *dataflow.Scratch) (*Info, error) {
	if vars == nil {
		vars = f.Vars()
	}
	info := &Info{Vars: vars, index: make(map[string]int, len(vars))}
	for i, v := range vars {
		info.index[v] = i
	}
	u := props.Collect(f)
	g := nodes.Build(f, u)
	info.G = g

	n := g.NumNodes()
	w := len(vars)
	use, def := sc.Matrix(n, w), sc.Matrix(n, w)
	var scratch []string
	for id, nd := range g.Nodes {
		switch nd.Kind {
		case nodes.Stmt:
			in := nd.Block.Instrs[nd.Index]
			scratch = in.UsedVars(scratch[:0])
			for _, v := range scratch {
				if i, ok := info.index[v]; ok {
					use.Set(id, i)
				}
			}
			if d := in.Defs(); d != "" {
				if i, ok := info.index[d]; ok {
					def.Set(id, i)
				}
			}
		case nodes.Term:
			scratch = nd.Block.Term.UsedVars(scratch[:0])
			for _, v := range scratch {
				if i, ok := info.index[v]; ok {
					use.Set(id, i)
				}
			}
		}
	}

	res, err := dataflow.Solve(g, &dataflow.Problem{
		Name: "liveness", Dir: dataflow.Backward, Meet: dataflow.May,
		Width: w, Gen: use, Kill: def,
		Boundary: dataflow.BoundaryEmpty, Ctx: ctx, Scratch: sc,
	})
	sc.Release(use, def) // gen/kill are solver inputs only; the solution is retained
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	info.LiveIn = res.In
	info.LiveOut = res.Out
	info.Stats = res.Stats
	info.sc = sc
	return info, nil
}

// LiveBefore reports whether v is live immediately before node id.
func (i *Info) LiveBefore(id int, v string) bool {
	vi, ok := i.index[v]
	if !ok {
		return false
	}
	return i.LiveIn.Get(id, vi)
}

// LiveAfter reports whether v is live immediately after node id.
func (i *Info) LiveAfter(id int, v string) bool {
	vi, ok := i.index[v]
	if !ok {
		return false
	}
	return i.LiveOut.Get(id, vi)
}

// LiveRange returns the number of nodes at whose entry v is live: the
// lifetime metric.
func (i *Info) LiveRange(v string) int {
	vi, ok := i.index[v]
	if !ok {
		return 0
	}
	return i.LiveIn.Column(vi).Count()
}

// TotalLiveRange sums LiveRange over the given variables; with vars nil it
// sums over all tracked variables.
func (i *Info) TotalLiveRange(vars []string) int {
	if vars == nil {
		vars = i.Vars
	}
	t := 0
	for _, v := range vars {
		t += i.LiveRange(v)
	}
	return t
}

// TempLifetimes measures, for a PRE result with the given expression→temp
// mapping, the live range of each temporary. The returned map is keyed by
// the temporary name.
func TempLifetimes(f *ir.Function, tempFor map[ir.Expr]string) (map[string]int, error) {
	if len(tempFor) == 0 {
		return map[string]int{}, nil
	}
	var temps []string
	for _, t := range tempFor {
		temps = append(temps, t)
	}
	// Deterministic order for reproducible stats.
	sort.Strings(temps)
	info, err := Compute(f, temps)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, len(temps))
	for _, t := range temps {
		out[t] = info.LiveRange(t)
	}
	return out, nil
}
