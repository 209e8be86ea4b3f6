package ir

import (
	"strings"
	"testing"
)

// diamond builds the canonical partially-redundant diamond:
//
//	entry: br c then else
//	then:  x = a + b
//	else:  (nothing)
//	join:  y = a + b; ret y
func diamond(t *testing.T) *Function {
	t.Helper()
	f, err := NewBuilder("diamond", "a", "b", "c").
		Block("entry").Branch(Var("c"), "then", "else").
		Block("then").BinOp("x", Add, Var("a"), Var("b")).Jump("join").
		Block("else").Jump("join").
		Block("join").BinOp("y", Add, Var("a"), Var("b")).Ret(Var("y")).
		Finish()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestOpEval(t *testing.T) {
	cases := []struct {
		op   Op
		a, b int64
		want int64
	}{
		{Add, 2, 3, 5},
		{Sub, 2, 3, -1},
		{Mul, 4, 3, 12},
		{Div, 7, 2, 3},
		{Div, 7, 0, 0},
		{Mod, 7, 4, 3},
		{Mod, 7, 0, 0},
		{Eq, 3, 3, 1},
		{Eq, 3, 4, 0},
		{Ne, 3, 4, 1},
		{Lt, 1, 2, 1},
		{Le, 2, 2, 1},
		{Gt, 2, 1, 1},
		{Ge, 1, 2, 0},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.a, c.b); got != c.want {
			t.Errorf("%d %s %d = %d, want %d", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestOpStringRoundTrip(t *testing.T) {
	for _, op := range Ops() {
		got, ok := OpFromString(op.String())
		if !ok || got != op {
			t.Errorf("OpFromString(%q) = %v, %v", op.String(), got, ok)
		}
	}
	if _, ok := OpFromString("**"); ok {
		t.Error("OpFromString accepted bogus operator")
	}
	if Op(99).String() == "" {
		t.Error("out-of-range Op has empty String")
	}
	if Op(99).Valid() {
		t.Error("Op(99) claims valid")
	}
}

func TestOperands(t *testing.T) {
	v := Var("x")
	c := Const(-7)
	if !v.IsVar() || v.IsConst() || v.String() != "x" {
		t.Errorf("Var misbehaves: %+v", v)
	}
	if !c.IsConst() || c.IsVar() || c.String() != "-7" {
		t.Errorf("Const misbehaves: %+v", c)
	}
	if !v.Uses("x") || v.Uses("y") || c.Uses("x") {
		t.Error("Uses misbehaves")
	}
}

func TestVarEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Var(\"\") did not panic")
		}
	}()
	Var("")
}

func TestExpr(t *testing.T) {
	e := Expr{Op: Add, A: Var("a"), B: Const(1)}
	if e.String() != "a + 1" {
		t.Errorf("Expr.String = %q", e.String())
	}
	if !e.UsesVar("a") || e.UsesVar("b") {
		t.Error("UsesVar misbehaves")
	}
	vs := e.Vars(nil)
	if len(vs) != 1 || vs[0] != "a" {
		t.Errorf("Vars = %v", vs)
	}
	// Expr must be usable as a map key.
	m := map[Expr]int{e: 1}
	if m[Expr{Op: Add, A: Var("a"), B: Const(1)}] != 1 {
		t.Error("Expr not comparable by value")
	}
}

func TestInstrAccessors(t *testing.T) {
	bin := NewBinOp("x", Mul, Var("a"), Var("b"))
	if e, ok := bin.Expr(); !ok || e.String() != "a * b" {
		t.Errorf("Expr() = %v, %v", e, ok)
	}
	if bin.Defs() != "x" {
		t.Errorf("Defs = %q", bin.Defs())
	}
	if got := bin.UsedVars(nil); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("UsedVars = %v", got)
	}
	cp := NewCopy("y", Const(3))
	if _, ok := cp.Expr(); ok {
		t.Error("Copy has an Expr")
	}
	if cp.Defs() != "y" || len(cp.UsedVars(nil)) != 0 {
		t.Error("Copy accessors wrong")
	}
	pr := NewPrint(Var("z"))
	if pr.Defs() != "" || len(pr.UsedVars(nil)) != 1 {
		t.Error("Print accessors wrong")
	}
	if NewNop().String() != "nop" {
		t.Error("Nop string")
	}
	if bin.String() != "x = a * b" {
		t.Errorf("BinOp string = %q", bin.String())
	}
	if cp.String() != "y = 3" {
		t.Errorf("Copy string = %q", cp.String())
	}
	if pr.String() != "print z" {
		t.Errorf("Print string = %q", pr.String())
	}
}

func TestBuilderDiamond(t *testing.T) {
	f := diamond(t)
	if f.NumBlocks() != 4 {
		t.Fatalf("NumBlocks = %d", f.NumBlocks())
	}
	entry := f.Entry()
	if entry.Name != "entry" || entry.NumSuccs() != 2 {
		t.Fatalf("entry wrong: %v", entry)
	}
	join := f.BlockByName("join")
	if len(join.Preds()) != 2 {
		t.Fatalf("join preds = %d", len(join.Preds()))
	}
	if got := f.BlockByName("then").Succ(0); got != join {
		t.Fatalf("then succ = %v", got)
	}
	if f.NumInstrs() != 2 {
		t.Fatalf("NumInstrs = %d", f.NumInstrs())
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder("f").Block("a").Jump("nowhere").Finish(); err == nil {
		t.Error("undefined jump target accepted")
	}
	if _, err := NewBuilder("f").Block("a").Finish(); err == nil {
		t.Error("missing terminator accepted")
	}
	if _, err := NewBuilder("f").Block("a").RetVoid().Block("a").RetVoid().Finish(); err == nil {
		t.Error("duplicate block accepted")
	}
	if _, err := NewBuilder("f").Block("a").RetVoid().Block("b").RetVoid().Finish(); err == nil {
		t.Error("unreachable block accepted")
	}
	bd := NewBuilder("f").Block("a").RetVoid()
	bd.Copy("x", Const(1)) // statement after terminator
	if _, err := bd.Finish(); err == nil {
		t.Error("statement after terminator accepted")
	}
	if _, err := NewBuilder("f").Block("a").Branch(Var("c"), "a", "missing").Finish(); err == nil {
		t.Error("branch to undefined block accepted")
	}
}

func TestMustFinishPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFinish did not panic on invalid function")
		}
	}()
	NewBuilder("f").Block("a").Jump("nowhere").MustFinish()
}

func TestValidateInfiniteLoopRejected(t *testing.T) {
	// A loop with no path to ret violates the paper's model.
	bd := NewBuilder("f").
		Block("entry").Jump("loop").
		Block("loop").Jump("loop")
	if _, err := bd.Finish(); err == nil || !strings.Contains(err.Error(), "cannot reach any return") {
		t.Errorf("infinite loop accepted: %v", err)
	}
}

func TestValidateStaleID(t *testing.T) {
	f := diamond(t)
	f.Blocks[1], f.Blocks[2] = f.Blocks[2], f.Blocks[1]
	if err := f.Validate(); err == nil {
		t.Error("stale IDs accepted")
	}
	f.Recompute()
	if err := f.Validate(); err != nil {
		t.Errorf("Validate after Recompute: %v", err)
	}
}

func TestFreshNames(t *testing.T) {
	f := diamond(t)
	if got := f.FreshBlockName("split"); got != "split" {
		t.Errorf("FreshBlockName = %q", got)
	}
	if got := f.FreshBlockName("join"); got == "join" {
		t.Error("FreshBlockName returned used name")
	}
	if got := f.FreshVarName("h"); got != "h" {
		t.Errorf("FreshVarName = %q", got)
	}
	if got := f.FreshVarName("a"); got == "a" {
		t.Error("FreshVarName returned used name")
	}
	if got := f.FreshVarName("x"); got == "x" {
		t.Error("FreshVarName returned defined name")
	}
}

func TestVars(t *testing.T) {
	f := diamond(t)
	got := strings.Join(f.Vars(), ",")
	if got != "a,b,c,x,y" {
		t.Errorf("Vars = %q", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	f := diamond(t)
	g := f.Clone()
	if g.String() != f.String() {
		t.Fatalf("clone differs:\n%s\nvs\n%s", g, f)
	}
	g.BlockByName("then").Instrs[0] = NewCopy("x", Const(0))
	if f.String() == g.String() {
		t.Fatal("clone shares instruction storage")
	}
	// Clone terminators must point at clone blocks.
	for _, b := range g.Blocks {
		for i, n := 0, b.NumSuccs(); i < n; i++ {
			s := b.Succ(i)
			if f.BlockByName(s.Name) == s {
				t.Fatal("clone terminator points into original")
			}
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAt(t *testing.T) {
	b := &Block{Name: "b"}
	b.Append(NewCopy("x", Const(1)))
	b.Append(NewCopy("y", Const(2)))
	b.InsertAt(1, NewNop())
	if len(b.Instrs) != 3 || b.Instrs[1].Kind != Nop {
		t.Fatalf("InsertAt middle: %v", b.Instrs)
	}
	b.InsertAt(0, NewPrint(Const(9)))
	if b.Instrs[0].Kind != Print {
		t.Fatal("InsertAt front")
	}
	b.InsertAt(len(b.Instrs), NewNop())
	if b.Instrs[len(b.Instrs)-1].Kind != Nop {
		t.Fatal("InsertAt end")
	}
}

func TestSetSucc(t *testing.T) {
	f := diamond(t)
	entry := f.Entry()
	then := f.BlockByName("then")
	entry.SetSucc(1, then) // both arms to then
	f.Recompute()
	if entry.Succ(1) != then {
		t.Fatal("SetSucc failed")
	}
	if len(then.Preds()) != 1 { // one pred block, even with two edges? No: preds lists blocks per edge
		// Recompute appends per edge, so then has entry twice.
		t.Logf("preds = %d (per-edge semantics)", len(then.Preds()))
	}
}

func TestStringFormat(t *testing.T) {
	f := diamond(t)
	s := f.String()
	for _, want := range []string{
		"func diamond(a, b, c) {",
		"entry:",
		"  br c then else",
		"  x = a + b",
		"  jmp join",
		"  ret y",
		"}",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

func TestTerminatorString(t *testing.T) {
	tm := Terminator{Kind: Ret}
	if tm.String() != "ret" {
		t.Errorf("bare ret = %q", tm.String())
	}
	tm = Terminator{Kind: Jump}
	if !strings.Contains(tm.String(), "<nil>") {
		t.Errorf("nil jump = %q", tm.String())
	}
}

func TestTerminatorUsedVars(t *testing.T) {
	br := Terminator{Kind: Branch, Cond: Var("c")}
	if got := br.UsedVars(nil); len(got) != 1 || got[0] != "c" {
		t.Errorf("branch UsedVars = %v", got)
	}
	rv := Terminator{Kind: Ret, HasVal: true, Val: Var("r")}
	if got := rv.UsedVars(nil); len(got) != 1 || got[0] != "r" {
		t.Errorf("ret UsedVars = %v", got)
	}
	if got := (Terminator{Kind: Ret}).UsedVars(nil); len(got) != 0 {
		t.Errorf("void ret UsedVars = %v", got)
	}
}

// TestBuilderStatementGrowth pins the builder's statement storage to
// amortized growth: a long block, and two blocks resumed in turn, take a
// logarithmic number of allocations, not one per statement.
func TestBuilderStatementGrowth(t *testing.T) {
	const n = 5000
	long := func() {
		bd := NewBuilder("long").Block("a")
		for i := 0; i < n; i++ {
			bd.Nop()
		}
		bd.RetVoid().MustFinish()
	}
	alternating := func() {
		bd := NewBuilder("alt", "c").Block("a").Nop().Block("b").Nop()
		for i := 0; i < n; i++ {
			bd.Block("a").Nop().Block("b").Nop()
		}
		f := bd.Block("a").Branch(Var("c"), "b", "b").Block("b").RetVoid().MustFinish()
		if len(f.Blocks[0].Instrs) != n+1 || len(f.Blocks[1].Instrs) != n+1 {
			t.Fatalf("blocks hold %d and %d statements, want %d each", len(f.Blocks[0].Instrs), len(f.Blocks[1].Instrs), n+1)
		}
	}
	for name, build := range map[string]func(){"long": long, "alternating": alternating} {
		if allocs := testing.AllocsPerRun(5, build); allocs > 100 {
			t.Errorf("%s: %v allocations for %d statements", name, allocs, n)
		}
	}
}

// TestRecomputePredecessors pins what Recompute builds: one entry per
// edge, in Blocks and successor order; lists that outgrow their backing
// array still come out right; and a target outside the function gets its
// entry appended to its own list.
func TestRecomputePredecessors(t *testing.T) {
	f := NewBuilder("p", "c").
		Block("a").Branch(Var("c"), "d", "b").
		Block("b").Branch(Var("c"), "d", "c").
		Block("c").Jump("d").
		Block("d").RetVoid().
		MustFinish()
	a, b, c, d := f.Blocks[0], f.Blocks[1], f.Blocks[2], f.Blocks[3]
	want := func(blk *Block, preds ...*Block) {
		t.Helper()
		got := blk.Preds()
		if len(got) != len(preds) {
			t.Fatalf("%s: %d predecessors, want %d", blk.Name, len(got), len(preds))
		}
		for i := range got {
			if got[i] != preds[i] {
				t.Fatalf("%s: predecessor %d is %s, want %s", blk.Name, i, got[i].Name, preds[i].Name)
			}
		}
	}
	want(a)
	want(b, a)
	want(c, b)
	want(d, a, b, c)

	// Grow b's list past its backing array and move a block.
	c.Term = Terminator{Kind: Branch, Cond: Var("c"), Then: b, Else: b}
	f.Blocks[2], f.Blocks[3] = d, c
	f.Recompute()
	want(b, a, c, c)
	want(d, a, b)
	if err := Validate(f); err != nil {
		t.Fatal(err)
	}

	outside := &Block{Name: "outside", Term: Terminator{Kind: Ret}}
	d.Term = Terminator{Kind: Jump, Then: outside}
	f.Recompute()
	f.Recompute()
	want(outside, d, d)
	if err := f.Validate(); err == nil {
		t.Fatal("jump outside the function validated")
	}
}
