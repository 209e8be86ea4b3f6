package dataflow

import (
	"context"
	"errors"
	"sync"
	"testing"

	"lazycm/internal/bitvec"
)

// scratchGraph is a small diamond with a back edge, enough to need a
// second sweep.
func scratchGraph() *sliceGraph {
	return newSliceGraph(6,
		[][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 1}, {4, 5}})
}

// scratchProblem builds a deterministic Must/forward problem over g.
func scratchProblem(n, w int, sc *Scratch) *Problem {
	gen := bitvec.NewMatrix(n, w)
	kill := bitvec.NewMatrix(n, w)
	for i := 0; i < n; i++ {
		gen.Set(i, i%w)
		kill.Set(i, (i+1)%w)
	}
	return &Problem{
		Name: "scratch-test", Dir: Forward, Meet: Must, Width: w,
		Gen: gen, Kill: kill, Boundary: BoundaryEmpty, Scratch: sc,
	}
}

// TestScratchSolutionIdentical: the arena changes where storage comes
// from, never what is computed — solution and stats match the fresh
// allocation path exactly, and repeatedly so reused (dirty) storage is
// proven to be re-zeroed.
func TestScratchSolutionIdentical(t *testing.T) {
	g := scratchGraph()
	const w = 70 // force a partial last word
	sc := NewScratch()
	fresh, err := Solve(g, scratchProblem(g.NumNodes(), w, nil))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		got, err := Solve(g, scratchProblem(g.NumNodes(), w, sc))
		if err != nil {
			t.Fatal(err)
		}
		if !got.In.Equal(fresh.In) || !got.Out.Equal(fresh.Out) {
			t.Fatalf("round %d: scratch solution differs from fresh", round)
		}
		if got.Stats != fresh.Stats {
			t.Fatalf("round %d: stats %+v != fresh %+v", round, got.Stats, fresh.Stats)
		}
		// Dirty the retained matrices, then hand them back: the next
		// round must still match, proving pooled storage is re-zeroed.
		got.In.Row(0).SetAll()
		got.Out.Row(0).SetAll()
		sc.Release(got.In, got.Out)
	}
}

// TestScratchOrderCached: the traversal order is computed once per
// (graph, direction) and the cached slice is returned afterwards.
func TestScratchOrderCached(t *testing.T) {
	g := scratchGraph()
	sc := NewScratch()
	a := sc.Order(g, Forward)
	b := sc.Order(g, Forward)
	if &a[0] != &b[0] {
		t.Fatal("Order recomputed instead of cached")
	}
	want := iterationOrder(g, Forward)
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("cached order %v != fresh %v", a, want)
		}
	}
	back := sc.Order(g, Backward)
	wantBack := iterationOrder(g, Backward)
	for i := range wantBack {
		if back[i] != wantBack[i] {
			t.Fatalf("backward order %v != fresh %v", back, wantBack)
		}
	}
}

// TestScratchConcurrentSolves: one arena shared by parallel solves over
// the same graph — the DSAFE/USAFE shape — races nothing (-race is the
// referee) and every solve still matches the fresh path.
func TestScratchConcurrentSolves(t *testing.T) {
	g := scratchGraph()
	const w = 33
	fresh, err := Solve(g, scratchProblem(g.NumNodes(), w, nil))
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Solve(g, scratchProblem(g.NumNodes(), w, sc))
			if err != nil {
				t.Error(err)
				return
			}
			if !res.In.Equal(fresh.In) || !res.Out.Equal(fresh.Out) {
				t.Error("concurrent scratch solve diverged")
				return
			}
			sc.Release(res.In, res.Out)
		}()
	}
	wg.Wait()
}

// TestScratchErrorPathsRelease: fuel and cancellation failures return
// their state to the arena (no pooled-storage leak) and still produce
// the same structured errors as the fresh path.
func TestScratchErrorPathsRelease(t *testing.T) {
	g := scratchGraph()
	sc := NewScratch()

	p := scratchProblem(g.NumNodes(), 8, sc)
	p.Fuel = 2
	if _, err := Solve(g, p); !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("fuel err = %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p2 := scratchProblem(g.NumNodes(), 8, sc)
	p2.Ctx = ctx
	if _, err := Solve(g, p2); !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancel err = %v", err)
	}

	// The released matrices are reusable and clean.
	m := sc.Matrix(g.NumNodes(), 8)
	for i := 0; i < g.NumNodes(); i++ {
		if !m.Row(i).IsEmpty() {
			t.Fatal("pooled matrix not zeroed after error-path release")
		}
	}
}
