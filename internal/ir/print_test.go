package ir_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lazycm/internal/ir"
	"lazycm/internal/randprog"
	"lazycm/internal/textir"
)

// The reference printer: the fmt-based printer that AppendText replaced.
// The function cache keys on the printed bytes, so the two must agree on
// every function, valid or not.

func refOperand(o ir.Operand) string {
	if o.IsVar() {
		return o.Name
	}
	return fmt.Sprintf("%d", o.Value)
}

func refOp(o ir.Op) string {
	if !o.Valid() {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return []string{"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">="}[o]
}

func refInstr(in ir.Instr) string {
	switch in.Kind {
	case ir.BinOp:
		return fmt.Sprintf("%s = %s %s %s", in.Dst, refOperand(in.A), refOp(in.Op), refOperand(in.B))
	case ir.Copy:
		return fmt.Sprintf("%s = %s", in.Dst, refOperand(in.A))
	case ir.Print:
		return fmt.Sprintf("print %s", refOperand(in.A))
	case ir.Nop:
		return "nop"
	}
	return fmt.Sprintf("<invalid instr kind %d>", int(in.Kind))
}

func refBlockName(b *ir.Block) string {
	if b == nil {
		return "<nil>"
	}
	return b.Name
}

func refTerm(t ir.Terminator) string {
	switch t.Kind {
	case ir.Jump:
		return fmt.Sprintf("jmp %s", refBlockName(t.Then))
	case ir.Branch:
		return fmt.Sprintf("br %s %s %s", refOperand(t.Cond), refBlockName(t.Then), refBlockName(t.Else))
	case ir.Ret:
		if t.HasVal {
			return fmt.Sprintf("ret %s", refOperand(t.Val))
		}
		return "ret"
	}
	return fmt.Sprintf("<invalid terminator kind %d>", int(t.Kind))
}

func refFunction(f *ir.Function) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(%s) {\n", f.Name, strings.Join(f.Params, ", "))
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "%s:\n", blk.Name)
		for _, in := range blk.Instrs {
			fmt.Fprintf(&b, "  %s\n", refInstr(in))
		}
		fmt.Fprintf(&b, "  %s\n", refTerm(blk.Term))
	}
	b.WriteString("}\n")
	return b.String()
}

// shapes are the four function shapes the service benchmark draws from,
// as edits of randprog.Default.
var shapes = map[string]func(*randprog.Config){
	"small": func(*randprog.Config) {},
	"medium": func(c *randprog.Config) {
		c.MaxDepth, c.MaxItems, c.MaxStmts, c.Vars, c.Params = 4, 4, 6, 10, 4
	},
	"wide": func(c *randprog.Config) {
		c.MaxDepth, c.MaxItems, c.MaxStmts, c.Vars = 3, 6, 10, 24
	},
	"deep_narrow": func(c *randprog.Config) {
		c.MaxDepth, c.MaxItems, c.MaxStmts, c.Vars, c.Params, c.MaxTrips = 7, 3, 2, 2, 1, 2
	},
}

func generate(shape string, seed int64) *ir.Function {
	c := randprog.Default(seed)
	shapes[shape](&c)
	return randprog.Generate(c)
}

// mediumModule returns the eight functions of a medium module: the
// first medium functions, by seed, with 300 to 1030 statements.
func mediumModule() []*ir.Function {
	var fns []*ir.Function
	for seed := int64(1); len(fns) < 8; seed++ {
		f := generate("medium", seed)
		if n := f.NumInstrs() + f.NumBlocks(); n >= 300 && n <= 1030 {
			fns = append(fns, f)
		}
	}
	return fns
}

// checkPrint compares every print path of f with the reference.
func checkPrint(t *testing.T, what string, f *ir.Function) {
	t.Helper()
	want := refFunction(f)
	if got := f.String(); got != want {
		t.Fatalf("%s: String differs from the reference printer\ngot:\n%s\nwant:\n%s", what, got, want)
	}
	if got := string(f.AppendText([]byte("#"))); got != "#"+want {
		t.Fatalf("%s: AppendText does not append to its buffer", what)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if got, want := in.String(), refInstr(in); got != want {
				t.Fatalf("%s: Instr.String = %q, reference %q", what, got, want)
			}
		}
		if got, want := b.Term.String(), refTerm(b.Term); got != want {
			t.Fatalf("%s: Terminator.String = %q, reference %q", what, got, want)
		}
	}
}

func TestPrinterMatchesReference(t *testing.T) {
	for shape := range shapes {
		for seed := int64(-2); seed < 30; seed++ {
			checkPrint(t, fmt.Sprintf("%s seed %d", shape, seed), generate(shape, seed))
		}
	}
	var files []string
	for _, pat := range []string{"../../testdata/*.ir", "../../testdata/crashers/*.ir"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) == 0 {
		t.Fatal("no testdata programs found")
	}
	parsed := 0
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fns, err := textir.Parse(string(src))
		if err != nil {
			continue // a crasher the strict parser rejects has nothing to print
		}
		parsed++
		for _, f := range fns {
			checkPrint(t, path, f)
		}
	}
	if parsed == 0 {
		t.Fatal("no testdata program parsed")
	}
}

func TestPrinterMatchesReferenceOnInvalidStates(t *testing.T) {
	f := ir.NewBuilder("bad", "p").
		Block("entry").Copy("x", ir.Const(math.MinInt64)).Branch(ir.Var("p"), "a", "b").
		Block("a").BinOp("y", ir.Sub, ir.Var("x"), ir.Const(math.MaxInt64)).Jump("b").
		Block("b").Ret(ir.Const(math.MinInt64)).
		MustFinish()
	a, b := f.Blocks[1], f.Blocks[2]
	a.Append(ir.Instr{Kind: ir.InstrKind(7), Dst: "z"})
	a.Append(ir.Instr{Kind: ir.InstrKind(-3)})
	a.Append(ir.NewBinOp("w", ir.Op(-1), ir.Var("x"), ir.Const(-1)))
	a.Append(ir.NewBinOp("w", ir.Op(11), ir.Var("x"), ir.Const(-1)))
	a.Append(ir.NewBinOp("w", ir.Op(math.MinInt64), ir.Const(0), ir.Const(0)))
	a.Append(ir.NewPrint(ir.Const(math.MinInt64)))
	a.Append(ir.NewNop())
	checkPrint(t, "invalid instructions", f)

	for _, tm := range []ir.Terminator{
		{Kind: ir.Jump},
		{Kind: ir.Branch, Cond: ir.Const(math.MinInt64)},
		{Kind: ir.Branch, Cond: ir.Var("p"), Then: a},
		{Kind: ir.Branch, Cond: ir.Var("p"), Else: a},
		{Kind: ir.Ret, HasVal: true, Val: ir.Const(math.MinInt64)},
		{Kind: ir.TermKind(3)},
		{Kind: ir.TermKind(-1)},
	} {
		b.Term = tm
		checkPrint(t, "invalid terminator", f)
	}
	if got := ir.Op(-7).String(); got != "op(-7)" {
		t.Errorf("Op(-7).String() = %q", got)
	}
	if got := (ir.Expr{Op: ir.Op(99), A: ir.Var("a"), B: ir.Const(-2)}).String(); got != "a op(99) -2" {
		t.Errorf("Expr.String() = %q", got)
	}
}

func TestAppendTextAllocations(t *testing.T) {
	fns := mediumModule()
	buf := make([]byte, 0, 1<<20)
	if n := testing.AllocsPerRun(20, func() {
		for _, f := range fns {
			buf = f.AppendText(buf[:0])
		}
	}); n != 0 {
		t.Errorf("AppendText into a large enough buffer: %v allocations, want 0", n)
	}
	for _, f := range fns {
		if n := testing.AllocsPerRun(20, func() { _ = f.String() }); n > 2 {
			t.Errorf("%s: String: %v allocations, want at most 2", f.Name, n)
		}
	}
}
