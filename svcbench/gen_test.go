package main

import (
	"bytes"
	"testing"

	"lazycm/internal/props"
)

func samePlan(a, b *plan) bool {
	groups := [][2][]*request{{a.prep, b.prep}, {a.warm, b.warm}, {a.reqs, b.reqs}}
	for _, g := range groups {
		if len(g[0]) != len(g[1]) {
			return false
		}
		for i := range g[0] {
			if g[0][i].path != g[1][i].path || !bytes.Equal(g[0][i].body, g[1][i].body) {
				return false
			}
		}
	}
	return true
}

func TestPlansAreDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.plan(5, 1), w.plan(5, 1), w.plan(6, 1)
		if len(a.reqs) == 0 {
			t.Fatalf("%s: empty plan", w.name)
		}
		if !samePlan(a, b) {
			t.Errorf("%s: seed 5 generated two different plans", w.name)
		}
		if samePlan(a, c) {
			t.Errorf("%s: seeds 5 and 6 generated the same plan", w.name)
		}
	}
}

func TestColdPlanMixesShapesAndEndpoints(t *testing.T) {
	p := coldPlan(3, 200)
	paths := map[string]int{}
	classes := map[string]int{}
	for _, r := range p.reqs {
		paths[r.path]++
		if n := len(r.fns); n < 1 || n > 8 {
			t.Errorf("module of %d functions", n)
		}
		for _, s := range r.fns {
			classes[s.class.name]++
		}
	}
	if paths[pathSingle] == 0 || paths[pathBatch] == 0 {
		t.Errorf("endpoints %v", paths)
	}
	for _, c := range []*sizeClass{small, medium, wide, deepNarrow} {
		if classes[c.name] == 0 {
			t.Errorf("no %s functions in %v", c.name, classes)
		}
	}
}

func TestSettledFunctionsEngageTheirSolvers(t *testing.T) {
	// The solver strategies engage by universe width and node count: a
	// wide universe needs 256+ expressions, Sparse needs 512+ nodes.
	for seed := int64(1); seed <= 6; seed++ {
		for _, c := range []*sizeClass{small, medium, wide, deepNarrow} {
			s := fnSpec{class: c, seed: seed, name: "f"}
			s.seed, _ = s.settle()
			f := s.build()
			if n := statements(f); n < c.lo || n > c.hi {
				t.Errorf("%s seed %d: %d statements outside [%d, %d]", c.name, seed, n, c.lo, c.hi)
			}
			exprs := props.Collect(f).Size()
			if c == wide && exprs <= 256 {
				t.Errorf("wide seed %d: %d expressions", seed, exprs)
			}
			if c == deepNarrow && statements(f) < 512 {
				t.Errorf("deep_narrow seed %d: %d statements", seed, statements(f))
			}
		}
	}
}

func TestEditPlanChangesOneFunctionPerRequest(t *testing.T) {
	p := editPlan(9, 50)
	if len(p.warm) != editModules {
		t.Fatalf("%d warm modules", len(p.warm))
	}
	current := map[string]string{} // function name → spec key
	for _, r := range p.warm {
		for _, s := range r.fns {
			current[s.name] = s.key()
		}
	}
	for i, r := range p.reqs {
		changed := 0
		for _, s := range r.fns {
			if current[s.name] != s.key() {
				changed++
				current[s.name] = s.key()
			}
		}
		if changed != 1 || len(r.fns) != editFuncs {
			t.Errorf("request %d changes %d of %d functions, want 1 of %d", i, changed, len(r.fns), editFuncs)
		}
	}
}

func TestDurablePlanPreparesHalfOfEveryModule(t *testing.T) {
	p := durablePlan(4, 3)
	for i, r := range p.reqs {
		prep := p.prep[i].fns
		if r.path != pathStream || len(r.fns) != editFuncs || len(prep) != editFuncs/2 {
			t.Fatalf("module %d: %s of %d, prep %d", i, r.path, len(r.fns), len(prep))
		}
		for j, s := range prep {
			if s.key() != r.fns[j].key() {
				t.Errorf("module %d: prep function %d differs from the streamed one", i, j)
			}
		}
	}
}
