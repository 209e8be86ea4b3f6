package dataflow

import (
	"fmt"
	"math/rand"
	"testing"

	"lazycm/internal/bitvec"
)

// randGraph builds a random digraph of n nodes: a spine 0→1→…→n-1 plus
// extra random edges (including back edges), so both directions have
// boundary nodes and real cycles.
func randGraph(rng *rand.Rand, n int) *sliceGraph {
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	extra := n / 2
	for i := 0; i < extra; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			edges = append(edges, [2]int{a, b})
		}
	}
	return newSliceGraph(n, edges)
}

func randMatrix(rng *rand.Rand, rows, cols int) *bitvec.Matrix {
	m := bitvec.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		// Thin rows: set ~1/8 of the bits.
		for b := 0; b < cols; b += 1 + rng.Intn(15) {
			m.Set(i, b)
		}
	}
	return m
}

// referenceSolve is the textbook formulation Solve's flat loop is an
// optimization of: round-robin sweeps in the same iteration order, one
// bitvec.Vector operation per step, through the Graph interface rather
// than a flattened adjacency. Each vector operation counts once in
// VectorOps: the first meet source's copy, every further And/Or, the
// copy into the meet side, and the andnot/or/copy transfer chain.
func referenceSolve(g Graph, p *Problem) *Result {
	n := g.NumNodes()
	res := &Result{In: bitvec.NewMatrix(n, p.Width), Out: bitvec.NewMatrix(n, p.Width)}
	res.Stats.Name = p.Name
	fiMat, foMat := res.In, res.Out
	if p.Dir != Forward {
		fiMat, foMat = res.Out, res.In
	}
	if p.Meet == Must {
		for i := 0; i < n; i++ {
			foMat.Row(i).SetAll()
		}
	}
	meet, tmp := bitvec.New(p.Width), bitvec.New(p.Width)
	order := iterationOrder(g, p.Dir)
	for changed := true; changed; {
		changed = false
		res.Stats.Passes++
		for _, node := range order {
			res.Stats.NodeVisits++
			degree, src := g.NumPreds(node), g.Pred
			if p.Dir != Forward {
				degree, src = g.NumSuccs(node), g.Succ
			}
			switch {
			case degree == 0 && p.Boundary == BoundaryFull:
				meet.SetAll()
			case degree == 0:
				meet.ClearAll()
			default:
				meet.CopyFrom(foMat.Row(src(node, 0)))
				res.Stats.VectorOps++
				for k := 1; k < degree; k++ {
					if p.Meet == Must {
						meet.And(foMat.Row(src(node, k)))
					} else {
						meet.Or(foMat.Row(src(node, k)))
					}
					res.Stats.VectorOps++
				}
			}
			if fiMat.Row(node).CopyFrom(meet) {
				changed = true
			}
			tmp.AndNotOf(meet, p.Kill.Row(node))
			tmp.Or(p.Gen.Row(node))
			if foMat.Row(node).CopyFrom(tmp) {
				changed = true
			}
			res.Stats.VectorOps += 4
		}
	}
	return res
}

// TestSolverEquivalence pins Solve against referenceSolve: for random
// cyclic graphs, random gen/kill sets, every direction × meet × boundary
// combination, widths from one bit to 66 words, and with and without a
// shared scratch arena, the two must agree on In, Out and every Stats
// counter. That is the check behind the flat loop's claim that its op
// accounting mirrors the vector formulation experiment T4 reports.
func TestSolverEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	widths := []int{1, 63, 64, 65, 300, 4200}
	if testing.Short() {
		widths = []int{1, 65, 300}
	}
	sc := NewScratch()
	for _, width := range widths {
		for trial := 0; trial < 4; trial++ {
			n := 2 + rng.Intn(200)
			g := randGraph(rng, n)
			gen := randMatrix(rng, n, width)
			kill := randMatrix(rng, n, width)
			for _, dir := range []Direction{Forward, Backward} {
				for _, meet := range []Meet{Must, May} {
					for _, bnd := range []Boundary{BoundaryEmpty, BoundaryFull} {
						name := fmt.Sprintf("w%d/n%d/%v/%v/b%d", width, n, dir, meet, bnd)
						base := Problem{
							Name: name, Dir: dir, Meet: meet, Width: width,
							Gen: gen, Kill: kill, Boundary: bnd,
						}
						ref := referenceSolve(g, &base)
						for _, scratch := range []*Scratch{nil, sc} {
							p := base
							p.Scratch = scratch
							got, err := Solve(g, &p)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if !got.In.Equal(ref.In) || !got.Out.Equal(ref.Out) {
								t.Fatalf("%s: solution differs from the reference", name)
							}
							if got.Stats != ref.Stats {
								t.Fatalf("%s: stats %+v, reference %+v", name, got.Stats, ref.Stats)
							}
							if scratch != nil {
								scratch.Release(got.In, got.Out)
							}
						}
					}
				}
			}
		}
	}
}
