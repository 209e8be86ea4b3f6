package lcm

import (
	"testing"

	"lazycm/internal/graph"
	"lazycm/internal/ir"
	"lazycm/internal/nodes"
	"lazycm/internal/props"
	"lazycm/internal/textir"
)

// prep parses src, splits critical edges, and runs the analysis.
func prep(t *testing.T, src string) (*ir.Function, *nodes.Graph, *Analysis) {
	t.Helper()
	f, err := textir.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	graph.SplitCriticalEdges(f)
	u := props.Collect(f)
	g := nodes.Build(f, u)
	a, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	return f, g, a
}

// place derives a placement, failing the test on error.
func place(t *testing.T, a *Analysis, mode Mode) *Placement {
	t.Helper()
	p, err := a.Placement(mode)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// stmtNode returns the node index of instruction idx in the named block.
func stmtNode(t *testing.T, f *ir.Function, g *nodes.Graph, block string, idx int) int {
	t.Helper()
	b := f.BlockByName(block)
	if b == nil {
		t.Fatalf("no block %q", block)
	}
	return g.FirstOf(b) + idx
}

const diamondSrc = `
func diamond(a, b, c) {
entry:
  br c then else
then:
  x = a + b
  jmp join
else:
  jmp join
join:
  y = a + b
  ret y
}`

// TestDiamondPredicates walks the worked example of the paper's development
// (a partially redundant computation across a join) and checks every
// predicate against the hand-derived values.
func TestDiamondPredicates(t *testing.T) {
	f, g, a := prep(t, diamondSrc)
	const e = 0 // a + b

	thenX := stmtNode(t, f, g, "then", 0)
	joinY := stmtNode(t, f, g, "join", 0)
	elseTerm := g.TermOf(f.BlockByName("else"))
	entryV := g.EntryNode()

	// Down-safety: holds from entry through both arms up to join's
	// computation; fails after it and at exit.
	for _, n := range []int{entryV, thenX, joinY, elseTerm} {
		if !a.DSafe.Get(n, e) {
			t.Errorf("DSAFE(%s) = false", g.Nodes[n])
		}
	}
	if a.DSafe.Get(g.ExitNode(), e) {
		t.Error("DSAFE(exit) must be false")
	}
	joinTerm := g.TermOf(f.BlockByName("join"))
	if a.DSafe.Get(joinTerm, e) {
		t.Error("DSAFE after the last computation must be false")
	}

	// Up-safety: true only after then's computation on the then arm;
	// false at the join (the else arm never computes a+b).
	thenTerm := g.TermOf(f.BlockByName("then"))
	if !a.USafe.Get(thenTerm, e) {
		t.Error("USAFE(then.term) = false; computation precedes it")
	}
	if a.USafe.Get(joinY, e) {
		t.Error("USAFE(join computation) must be false (partial only)")
	}
	if a.USafe.Get(entryV, e) {
		t.Error("USAFE(entry) must be false")
	}

	// Earliest: the whole graph up to the join is down-safe, so the
	// computation hoists all the way to the virtual entry and nowhere
	// else.
	if !a.Earliest.Get(entryV, e) {
		t.Error("EARLIEST(entry) = false")
	}
	for _, n := range []int{thenX, joinY, elseTerm} {
		if a.Earliest.Get(n, e) {
			t.Errorf("EARLIEST(%s) = true; should hoist past it", g.Nodes[n])
		}
	}

	// Delay: from the entry down both arms, stopping at then's
	// computation; at join the then-arm is no longer delayed, so DELAY
	// fails there.
	for _, n := range []int{entryV, thenX, elseTerm} {
		if !a.Delay.Get(n, e) {
			t.Errorf("DELAY(%s) = false", g.Nodes[n])
		}
	}
	if a.Delay.Get(joinY, e) {
		t.Error("DELAY(join) must fail: then-arm already used the value")
	}

	// Latest: then's computation (a use) and the end of the else arm
	// (delay frontier before the join).
	if !a.Latest.Get(thenX, e) {
		t.Error("LATEST(then computation) = false")
	}
	if !a.Latest.Get(elseTerm, e) {
		t.Error("LATEST(else end) = false")
	}
	if a.Latest.Get(joinY, e) || a.Latest.Get(entryV, e) {
		t.Error("LATEST leaked to join or entry")
	}

	// Isolation: neither latest point is isolated — both feed join's
	// replaced computation.
	if a.Isolated.Get(thenX, e) {
		t.Error("ISOLATED(then computation) = true")
	}
	if a.Isolated.Get(elseTerm, e) {
		t.Error("ISOLATED(else end) = true")
	}
}

func TestDiamondPlacements(t *testing.T) {
	f, g, a := prep(t, diamondSrc)
	const e = 0
	thenX := stmtNode(t, f, g, "then", 0)
	joinY := stmtNode(t, f, g, "join", 0)
	elseTerm := g.TermOf(f.BlockByName("else"))

	bcm := place(t, a, BCM)
	if !bcm.Insert.Get(g.EntryNode(), e) {
		t.Error("BCM must insert at entry")
	}
	if !bcm.Replace.Get(thenX, e) || !bcm.Replace.Get(joinY, e) {
		t.Error("BCM must replace both computations")
	}

	lcm := place(t, a, LCM)
	if !lcm.Insert.Get(thenX, e) || !lcm.Insert.Get(elseTerm, e) {
		t.Error("LCM must insert at the two latest points")
	}
	if lcm.Insert.Get(g.EntryNode(), e) {
		t.Error("LCM must not insert at entry")
	}
	if !lcm.Replace.Get(thenX, e) || !lcm.Replace.Get(joinY, e) {
		t.Error("LCM must replace both computations")
	}

	alcm := place(t, a, ALCM)
	if !alcm.Insert.Equal(a.Latest) {
		t.Error("ALCM insertions must equal LATEST")
	}
}

// TestLoopInvariantHoisting: in a bottom-test loop the invariant
// computation is down-safe at the preheader, so LCM hoists it out — the
// paper's claim that PRE subsumes loop-invariant code motion.
func TestLoopInvariantHoisting(t *testing.T) {
	f, g, a := prep(t, `
func f(a, b, n) {
entry:
  i = 0
  jmp body
body:
  x = a + b
  i = i + 1
  c = i < n
  br c body exit
exit:
  ret x
}`)
	u := g.U
	ei, ok := u.Index(ir.Expr{Op: ir.Add, A: ir.Var("a"), B: ir.Var("b")})
	if !ok {
		t.Fatal("a + b not in universe")
	}
	bodyX := stmtNode(t, f, g, "body", 0)

	// Earliest is the virtual entry (down-safe everywhere before the
	// loop), so BCM hoists to program start.
	if !a.Earliest.Get(g.EntryNode(), ei) {
		t.Error("EARLIEST(entry) = false for loop invariant")
	}
	if a.Earliest.Get(bodyX, ei) {
		t.Error("EARLIEST inside loop body")
	}

	// LCM's latest point is the end of the preheader (entry block): the
	// delay frontier stops before the loop join.
	entryTerm := g.TermOf(f.Entry())
	if !a.Latest.Get(entryTerm, ei) {
		t.Error("LATEST(end of preheader) = false")
	}
	if a.Latest.Get(bodyX, ei) {
		t.Error("LATEST inside loop body: not hoisted")
	}
	lcm := place(t, a, LCM)
	if !lcm.Insert.Get(entryTerm, ei) || !lcm.Replace.Get(bodyX, ei) {
		t.Error("LCM placement did not hoist the invariant")
	}
	if a.Isolated.Get(entryTerm, ei) {
		t.Error("preheader insertion wrongly isolated")
	}
}

// TestTopTestLoopIsSafe: in a top-test (while) loop the expression is NOT
// down-safe at the preheader (the zero-trip path never computes it), so
// classic LCM must not hoist it — that would be speculative.
func TestTopTestLoopIsSafe(t *testing.T) {
	f, g, a := prep(t, `
func f(a, b, n) {
entry:
  i = 0
  jmp head
head:
  c = i < n
  br c body exit
body:
  x = a + b
  i = i + 1
  jmp head
exit:
  ret
}`)
	ei, ok := g.U.Index(ir.Expr{Op: ir.Add, A: ir.Var("a"), B: ir.Var("b")})
	if !ok {
		t.Fatal("a + b not in universe")
	}
	if a.DSafe.Get(g.EntryNode(), ei) {
		t.Error("a+b must not be down-safe at entry of a zero-trip loop")
	}
	bodyX := stmtNode(t, f, g, "body", 0)
	if !a.Earliest.Get(bodyX, ei) {
		t.Error("earliest must stay at the body computation")
	}
	lcm := place(t, a, LCM)
	head := f.BlockByName("head")
	for n := g.FirstOf(head); n <= g.TermOf(head); n++ {
		if lcm.Insert.Get(n, ei) {
			t.Errorf("speculative insertion at %s", g.Nodes[n])
		}
	}
	entry := f.Entry()
	for n := g.FirstOf(entry); n <= g.TermOf(entry); n++ {
		if lcm.Insert.Get(n, ei) {
			t.Errorf("speculative insertion at %s", g.Nodes[n])
		}
	}
}

// TestIsolation: a computation used only by its own statement must be left
// alone by LCM (no insertion, no replacement), while ALCM rewrites it.
func TestIsolation(t *testing.T) {
	f, g, a := prep(t, `
func f(a, b, c) {
entry:
  br c yes no
yes:
  x = a + b
  ret x
no:
  ret 0
}`)
	const e = 0
	yesX := stmtNode(t, f, g, "yes", 0)
	if !a.Latest.Get(yesX, e) {
		t.Fatal("LATEST(yes computation) = false")
	}
	if !a.Isolated.Get(yesX, e) {
		t.Fatal("ISOLATED(yes computation) = false")
	}
	lcm := place(t, a, LCM)
	if lcm.Insert.Get(yesX, e) || lcm.Replace.Get(yesX, e) {
		t.Error("LCM must leave the isolated computation untouched")
	}
	alcm := place(t, a, ALCM)
	if !alcm.Insert.Get(yesX, e) || !alcm.Replace.Get(yesX, e) {
		t.Error("ALCM should produce the isolated copy")
	}
}

// TestFullRedundancy: straight-line x=a+b; y=a+b collapses to one
// computation under every mode.
func TestFullRedundancy(t *testing.T) {
	f, g, a := prep(t, `
func f(a, b) {
e:
  x = a + b
  y = a + b
  ret y
}`)
	const e = 0
	x := stmtNode(t, f, g, "e", 0)
	y := stmtNode(t, f, g, "e", 1)
	if !a.USafe.Get(y, e) {
		t.Error("second computation must be up-safe")
	}
	lcm := place(t, a, LCM)
	if !lcm.Insert.Get(x, e) {
		t.Error("LCM inserts before the first computation")
	}
	if !lcm.Replace.Get(x, e) || !lcm.Replace.Get(y, e) {
		t.Error("LCM replaces both computations")
	}
	if lcm.Insert.Get(y, e) {
		t.Error("no insertion at the redundant computation")
	}
}

// TestSelfKillRecomputation: v = a + b; a = 0; w = a + b — the two
// computations are of the same lexeme but different values; no elimination
// may happen across the kill.
func TestKillBlocksMotion(t *testing.T) {
	f, g, a := prep(t, `
func f(a, b) {
e:
  v = a + b
  a = 0
  w = a + b
  ret w
}`)
	const e = 0
	w := stmtNode(t, f, g, "e", 2)
	if a.USafe.Get(w, e) {
		t.Error("expression must not be up-safe across the kill")
	}
	if !a.Earliest.Get(w, e) {
		t.Error("second computation must restart as earliest")
	}
	lcm := place(t, a, LCM)
	// Both computations are isolated single uses: nothing to do at all.
	if lcm.Insert.Row(w).Get(e) && !lcm.Replace.Get(w, e) {
		t.Error("inconsistent placement at second computation")
	}
}

func TestAnalysisStats(t *testing.T) {
	_, _, a := prep(t, diamondSrc)
	if len(a.Stats) != 4 {
		t.Fatalf("expected 4 data-flow problems, got %d", len(a.Stats))
	}
	wantNames := []string{"dsafe", "usafe", "delay", "isolated"}
	for i, s := range a.Stats {
		if s.Name != wantNames[i] {
			t.Errorf("problem %d = %q, want %q", i, s.Name, wantNames[i])
		}
		if s.Passes < 2 || s.VectorOps == 0 {
			t.Errorf("stats implausible for %s: %+v", s.Name, s)
		}
	}
	if a.TotalVectorOps() <= a.Derived {
		t.Error("TotalVectorOps must include solver ops")
	}
}

func TestModeString(t *testing.T) {
	if BCM.String() != "BCM" || ALCM.String() != "ALCM" || LCM.String() != "LCM" {
		t.Error("mode strings wrong")
	}
}

func TestPlacementInvalidModeError(t *testing.T) {
	_, _, a := prep(t, diamondSrc)
	if _, err := a.Placement(Mode(42)); err == nil {
		t.Fatal("invalid mode did not error")
	}
	if _, err := TransformOpts(mustParse(t, diamondSrc), Mode(42), Options{}); err == nil {
		t.Fatal("TransformOpts with invalid mode did not error")
	}
}

func mustParse(t *testing.T, src string) *ir.Function {
	t.Helper()
	f, err := textir.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParseMode(t *testing.T) {
	for name, want := range map[string]Mode{"bcm": BCM, "ALCM": ALCM, "Lcm": LCM} {
		got, ok := ParseMode(name)
		if !ok || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := ParseMode("mr"); ok {
		t.Error("ParseMode accepted a non-LCM mode name")
	}
	for _, m := range Modes() {
		if !m.Valid() {
			t.Errorf("mode %v reported invalid", m)
		}
	}
	if Mode(42).Valid() {
		t.Error("Mode(42) reported valid")
	}
}

func TestAnalyzeFuelExhaustion(t *testing.T) {
	_, g, _ := prep(t, diamondSrc)
	if _, err := AnalyzeOpts(g, Options{Fuel: 1}); err == nil {
		t.Fatal("fuel 1 should exhaust on the diamond")
	}
	if _, err := AnalyzeOpts(g, Options{Fuel: 1 << 20}); err != nil {
		t.Fatalf("ample fuel: %v", err)
	}
}

// TestDelayWithinDownSafe: every delayed node must be down-safe — the
// structural fact that makes insertion-at-nodes sufficient.
func TestDelayWithinDownSafe(t *testing.T) {
	for _, src := range []string{diamondSrc, `
func g(a, b, p, q) {
entry:
  br p l r
l:
  x = a * b
  jmp m
r:
  a = 1
  jmp m
m:
  y = a * b
  br q l end
end:
  ret y
}`} {
		_, g, a := prep(t, src)
		for n := 0; n < g.NumNodes(); n++ {
			if !a.Delay.Row(n).SubsetOf(a.DSafe.Row(n)) {
				t.Errorf("DELAY ⊄ DSAFE at %s", g.Nodes[n])
			}
			if !a.Earliest.Row(n).SubsetOf(a.DSafe.Row(n)) {
				t.Errorf("EARLIEST ⊄ DSAFE at %s", g.Nodes[n])
			}
			if !a.Latest.Row(n).SubsetOf(a.Delay.Row(n)) {
				t.Errorf("LATEST ⊄ DELAY at %s", g.Nodes[n])
			}
		}
	}
}
