package dataflow

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"lazycm/internal/bitvec"
	"lazycm/internal/ir"
)

// sliceGraph is a test graph given by adjacency lists.
type sliceGraph struct {
	succs [][]int
	preds [][]int
}

func newSliceGraph(n int, edges [][2]int) *sliceGraph {
	g := &sliceGraph{succs: make([][]int, n), preds: make([][]int, n)}
	for _, e := range edges {
		g.succs[e[0]] = append(g.succs[e[0]], e[1])
		g.preds[e[1]] = append(g.preds[e[1]], e[0])
	}
	return g
}

func (g *sliceGraph) NumNodes() int      { return len(g.succs) }
func (g *sliceGraph) NumSuccs(n int) int { return len(g.succs[n]) }
func (g *sliceGraph) Succ(n, i int) int  { return g.succs[n][i] }
func (g *sliceGraph) NumPreds(n int) int { return len(g.preds[n]) }
func (g *sliceGraph) Pred(n, i int) int  { return g.preds[n][i] }

// diamondG: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
func diamondG() *sliceGraph {
	return newSliceGraph(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
}

// availability on the diamond: expression generated in node 1 only.
// IN(3) must be empty under Must (not generated along 0->2) and set under
// May (generated along 0->1).
func availProblem(meet Meet) *Problem {
	gen := bitvec.NewMatrix(4, 1)
	kill := bitvec.NewMatrix(4, 1)
	gen.Set(1, 0)
	return &Problem{Name: "avail", Dir: Forward, Meet: meet, Width: 1, Gen: gen, Kill: kill, Boundary: BoundaryEmpty}
}

// mustSolve runs Solve and fails the test on error.
func mustSolve(t *testing.T, g Graph, p *Problem) *Result {
	t.Helper()
	res, err := Solve(g, p)
	if err != nil {
		t.Fatalf("Solve(%s): %v", p.Name, err)
	}
	return res
}

func TestForwardMust(t *testing.T) {
	res := mustSolve(t, diamondG(), availProblem(Must))
	if res.In.Get(3, 0) {
		t.Error("Must: expr available at join despite missing on one path")
	}
	if !res.Out.Get(1, 0) {
		t.Error("OUT(1) should hold the generated expr")
	}
	if res.In.Get(0, 0) || res.Out.Get(0, 0) {
		t.Error("entry should be empty with BoundaryEmpty")
	}
}

func TestForwardMay(t *testing.T) {
	res := mustSolve(t, diamondG(), availProblem(May))
	if !res.In.Get(3, 0) {
		t.Error("May: expr partially available at join")
	}
	if res.In.Get(2, 0) {
		t.Error("node 2 has no generating predecessor")
	}
}

func TestKill(t *testing.T) {
	// 0 -> 1 -> 2; gen at 0, kill at 1.
	g := newSliceGraph(3, [][2]int{{0, 1}, {1, 2}})
	gen := bitvec.NewMatrix(3, 1)
	kill := bitvec.NewMatrix(3, 1)
	gen.Set(0, 0)
	kill.Set(1, 0)
	res := mustSolve(t, g, &Problem{Name: "k", Dir: Forward, Meet: Must, Width: 1, Gen: gen, Kill: kill, Boundary: BoundaryEmpty})
	if !res.In.Get(1, 0) {
		t.Error("IN(1) should see gen from 0")
	}
	if res.Out.Get(1, 0) || res.In.Get(2, 0) {
		t.Error("kill at 1 should stop propagation")
	}
}

func TestBackwardMust(t *testing.T) {
	// Anticipatability on the diamond: expression computed in 1 and 2.
	// OUT(0) must be set (computed on both arms). If only in 1: unset.
	g := diamondG()
	gen := bitvec.NewMatrix(4, 1)
	kill := bitvec.NewMatrix(4, 1)
	gen.Set(1, 0)
	gen.Set(2, 0)
	res := mustSolve(t, g, &Problem{Name: "ant", Dir: Backward, Meet: Must, Width: 1, Gen: gen, Kill: kill, Boundary: BoundaryEmpty})
	if !res.Out.Get(0, 0) {
		t.Error("anticipatable on both arms but OUT(0) unset")
	}
	gen2 := bitvec.NewMatrix(4, 1)
	gen2.Set(1, 0)
	res2 := mustSolve(t, g, &Problem{Name: "ant2", Dir: Backward, Meet: Must, Width: 1, Gen: gen2, Kill: kill, Boundary: BoundaryEmpty})
	if res2.Out.Get(0, 0) {
		t.Error("anticipatable on one arm only but OUT(0) set")
	}
}

func TestBoundaryFullBackward(t *testing.T) {
	// With BoundaryFull, a backward Must problem starts true at exits:
	// with no gens/kills everything becomes true everywhere.
	g := newSliceGraph(3, [][2]int{{0, 1}, {1, 2}})
	gen := bitvec.NewMatrix(3, 2)
	kill := bitvec.NewMatrix(3, 2)
	res := mustSolve(t, g, &Problem{Name: "b", Dir: Backward, Meet: Must, Width: 2, Gen: gen, Kill: kill, Boundary: BoundaryFull})
	for n := 0; n < 3; n++ {
		if res.In.Row(n).Count() != 2 || res.Out.Row(n).Count() != 2 {
			t.Errorf("node %d not saturated: in=%v out=%v", n, res.In.Row(n), res.Out.Row(n))
		}
	}
}

func TestLoopFixpoint(t *testing.T) {
	// 0 -> 1 -> 2 -> 1 (loop), 2 -> 3. Availability generated at 0,
	// killed nowhere: must remain available through the loop.
	g := newSliceGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 1}, {2, 3}})
	gen := bitvec.NewMatrix(4, 1)
	kill := bitvec.NewMatrix(4, 1)
	gen.Set(0, 0)
	res := mustSolve(t, g, &Problem{Name: "loop", Dir: Forward, Meet: Must, Width: 1, Gen: gen, Kill: kill, Boundary: BoundaryEmpty})
	for n := 1; n < 4; n++ {
		if !res.In.Get(n, 0) {
			t.Errorf("IN(%d) lost availability in loop", n)
		}
	}
	// Now kill inside the loop at node 2: nothing after 2 (and via the
	// back edge, nothing at 1 either on the second pass) stays available.
	kill.Set(2, 0)
	res = mustSolve(t, g, &Problem{Name: "loop2", Dir: Forward, Meet: Must, Width: 1, Gen: gen, Kill: kill, Boundary: BoundaryEmpty})
	if res.In.Get(1, 0) {
		t.Error("IN(1) should be killed via back edge")
	}
	if res.In.Get(3, 0) {
		t.Error("IN(3) should be killed")
	}
}

func TestStatsPopulated(t *testing.T) {
	res := mustSolve(t, diamondG(), availProblem(Must))
	s := res.Stats
	if s.Name != "avail" || s.Passes < 2 || s.NodeVisits < 8 || s.VectorOps == 0 {
		t.Errorf("stats implausible: %+v", s)
	}
	var agg Stats
	agg.Add(s)
	agg.Add(s)
	if agg.Passes != 2*s.Passes {
		t.Error("Stats.Add wrong")
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

func TestDimensionMismatchError(t *testing.T) {
	_, err := Solve(diamondG(), &Problem{Name: "bad", Width: 1, Gen: bitvec.NewMatrix(3, 1), Kill: bitvec.NewMatrix(4, 1)})
	if err == nil {
		t.Fatal("no error on dimension mismatch")
	}
	if _, err := Solve(diamondG(), &Problem{Name: "nil", Width: 1}); err == nil {
		t.Fatal("no error on nil gen/kill")
	}
}

func TestFuelExhaustion(t *testing.T) {
	p := availProblem(Must)
	p.Fuel = 3 // the diamond needs at least 2 sweeps x 4 nodes
	_, err := Solve(diamondG(), p)
	if !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("Solve: want ErrFuelExhausted, got %v", err)
	}
	var fe *FuelError
	if !errors.As(err, &fe) || fe.Problem != "avail" || fe.Fuel != 3 {
		t.Fatalf("FuelError fields wrong: %+v", err)
	}

	// With enough fuel the solver converges and the budget is inert.
	p.Fuel = 1 << 20
	if _, err := Solve(diamondG(), p); err != nil {
		t.Fatalf("ample fuel: %v", err)
	}
}

func TestSolveDeterministic(t *testing.T) {
	p := availProblem(Must)
	a := mustSolve(t, diamondG(), p)
	for i := 0; i < 5; i++ {
		b := mustSolve(t, diamondG(), p)
		if !a.In.Equal(b.In) || !a.Out.Equal(b.Out) || a.Stats != b.Stats {
			t.Fatal("solver nondeterministic")
		}
	}
}

func TestBlockGraphAdapter(t *testing.T) {
	f, err := ir.NewBuilder("g", "c").
		Block("entry").Branch(ir.Var("c"), "a", "b").
		Block("a").Jump("join").
		Block("b").Jump("join").
		Block("join").RetVoid().
		Finish()
	if err != nil {
		t.Fatal(err)
	}
	g := BlockGraph{F: f}
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if g.NumSuccs(0) != 2 || g.Succ(0, 0) != 1 || g.Succ(0, 1) != 2 {
		t.Error("successors wrong")
	}
	join := f.BlockByName("join").ID
	if g.NumPreds(join) != 2 {
		t.Error("join preds wrong")
	}
	if g.NumPreds(0) != 0 || g.NumSuccs(join) != 0 {
		t.Error("boundary degrees wrong")
	}
}

// TestQuickFixpointIsFixed verifies on random graphs that the returned
// solution actually satisfies the data-flow equations (it is a fixed
// point), for all four direction/meet combinations.
func TestQuickFixpointIsFixed(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		var edges [][2]int
		for i := 0; i < n-1; i++ {
			edges = append(edges, [2]int{i, i + 1}) // spine keeps it connected
		}
		extra := r.Intn(2 * n)
		for i := 0; i < extra; i++ {
			edges = append(edges, [2]int{r.Intn(n), r.Intn(n)})
		}
		g := newSliceGraph(n, edges)
		w := 1 + r.Intn(9)
		gen := bitvec.NewMatrix(n, w)
		kill := bitvec.NewMatrix(n, w)
		for i := 0; i < n; i++ {
			for j := 0; j < w; j++ {
				if r.Intn(3) == 0 {
					gen.Set(i, j)
				}
				if r.Intn(3) == 0 {
					kill.Set(i, j)
				}
			}
		}
		for _, dir := range []Direction{Forward, Backward} {
			for _, meet := range []Meet{Must, May} {
				bound := Boundary(r.Intn(2))
				p := &Problem{Name: "q", Dir: dir, Meet: meet, Width: w, Gen: gen, Kill: kill, Boundary: bound}
				res, err := Solve(g, p)
				if err != nil {
					return false
				}
				if !satisfies(g, p, res) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// satisfies re-evaluates the equations once and checks nothing changes.
func satisfies(g Graph, p *Problem, res *Result) bool {
	n := g.NumNodes()
	for node := 0; node < n; node++ {
		meetIn := bitvec.New(p.Width)
		var degree int
		if p.Dir == Forward {
			degree = g.NumPreds(node)
		} else {
			degree = g.NumSuccs(node)
		}
		if degree == 0 {
			if p.Boundary == BoundaryFull {
				meetIn.SetAll()
			}
		} else {
			first := true
			for i := 0; i < degree; i++ {
				var src *bitvec.Vector
				if p.Dir == Forward {
					src = res.Out.Row(g.Pred(node, i))
				} else {
					src = res.In.Row(g.Succ(node, i))
				}
				if first {
					meetIn.CopyFrom(src)
					first = false
				} else if p.Meet == Must {
					meetIn.And(src)
				} else {
					meetIn.Or(src)
				}
			}
		}
		var flowIn, flowOut *bitvec.Vector
		if p.Dir == Forward {
			flowIn, flowOut = res.In.Row(node), res.Out.Row(node)
		} else {
			flowIn, flowOut = res.Out.Row(node), res.In.Row(node)
		}
		if !flowIn.Equal(meetIn) {
			return false
		}
		tmp := meetIn.Copy()
		tmp.AndNot(p.Kill.Row(node))
		tmp.Or(p.Gen.Row(node))
		if !flowOut.Equal(tmp) {
			return false
		}
	}
	return true
}

func TestDirectionMeetStrings(t *testing.T) {
	if Forward.String() != "forward" || Backward.String() != "backward" {
		t.Error("Direction strings")
	}
	if Must.String() != "must" || May.String() != "may" {
		t.Error("Meet strings")
	}
}
