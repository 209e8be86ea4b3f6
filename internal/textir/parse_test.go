package textir

import (
	"strings"
	"testing"

	"lazycm/internal/ir"
	"lazycm/internal/randprog"
)

const diamondSrc = `
# the canonical partially redundant diamond
func diamond(a, b, c) {
entry:
  br c then else
then:
  x = a + b
  jmp join
else:
  jmp join
join:
  y = a + b   # redundant along then
  ret y
}
`

func TestParseDiamond(t *testing.T) {
	f, err := ParseFunction(diamondSrc)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "diamond" || len(f.Params) != 3 {
		t.Fatalf("header wrong: %s %v", f.Name, f.Params)
	}
	if f.NumBlocks() != 4 || f.Entry().Name != "entry" {
		t.Fatalf("blocks wrong: %d", f.NumBlocks())
	}
	then := f.BlockByName("then")
	if len(then.Instrs) != 1 || then.Instrs[0].String() != "x = a + b" {
		t.Fatalf("then wrong: %v", then.Instrs)
	}
	join := f.BlockByName("join")
	if join.Term.Kind != ir.Ret || !join.Term.HasVal || join.Term.Val.Name != "y" {
		t.Fatalf("join term wrong: %v", join.Term)
	}
}

func TestRoundTrip(t *testing.T) {
	f, err := ParseFunction(diamondSrc)
	if err != nil {
		t.Fatal(err)
	}
	printed := f.String()
	g, err := ParseFunction(printed)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, printed)
	}
	if g.String() != printed {
		t.Fatalf("round trip unstable:\n%s\nvs\n%s", printed, g.String())
	}
}

func TestParseAllStatementForms(t *testing.T) {
	src := `
func all(a) {
entry:
  x = a + 1
  y = x
  z = -5
  w = x % y
  print w
  print 7
  nop
  br x pos neg
pos:
  ret x
neg:
  ret
}
`
	f, err := ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	e := f.Entry()
	if len(e.Instrs) != 7 {
		t.Fatalf("entry instrs = %d", len(e.Instrs))
	}
	if e.Instrs[2].Kind != ir.Copy || e.Instrs[2].A.Value != -5 {
		t.Errorf("negative constant copy wrong: %v", e.Instrs[2])
	}
	if e.Instrs[3].Op != ir.Mod {
		t.Errorf("mod parsed as %v", e.Instrs[3].Op)
	}
	if f.BlockByName("neg").Term.HasVal {
		t.Error("bare ret has value")
	}
	// Round-trip again.
	if _, err := ParseFunction(f.String()); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

func TestParseMultipleFunctions(t *testing.T) {
	src := `
func one() {
e:
  ret
}
func two(x) {
e:
  ret x
}
`
	fns, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(fns) != 2 || fns[0].Name != "one" || fns[1].Name != "two" {
		t.Fatalf("parsed %d functions", len(fns))
	}
	if _, err := Parse(PrintFunctions(fns)); err != nil {
		t.Fatalf("multi round trip: %v", err)
	}
}

func TestParseAllOperators(t *testing.T) {
	var b strings.Builder
	b.WriteString("func ops(a, b) {\nentry:\n")
	for _, op := range ir.Ops() {
		b.WriteString("  x = a " + op.String() + " b\n")
	}
	b.WriteString("  ret x\n}\n")
	f, err := ParseFunction(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Entry().Instrs) != len(ir.Ops()) {
		t.Fatalf("instrs = %d", len(f.Entry().Instrs))
	}
	for i, op := range ir.Ops() {
		if f.Entry().Instrs[i].Op != op {
			t.Errorf("instr %d op = %v, want %v", i, f.Entry().Instrs[i].Op, op)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"empty", "", "no functions"},
		{"not func", "banana {", "expected 'func'"},
		{"bad header", "func f( {", "malformed function header"},
		{"bad name", "func 9f() {", "bad function name"},
		{"bad param", "func f(9x) {", "bad parameter"},
		{"missing brace", "func f()\ne:\n ret\n}", "expected '{'"},
		{"eof", "func f() {\ne:\n  ret", "unexpected end"},
		{"stmt before label", "func f() {\n  ret\n}", "before any block"},
		{"bad jmp", "func f() {\ne:\n  jmp\n}", "malformed jmp"},
		{"bad br", "func f() {\ne:\n  br c e\n}", "malformed br"},
		{"bad ret", "func f() {\ne:\n  ret a b\n}", "malformed ret"},
		{"bad print", "func f() {\ne:\n  print\n}", "malformed print"},
		{"bad nop", "func f() {\ne:\n  nop 3\n}", "malformed nop"},
		{"bad op", "func f() {\ne:\n  x = a ** b\n  ret\n}", "unknown operator"},
		{"bad operand", "func f() {\ne:\n  x = 12z\n  ret\n}", "bad operand"},
		{"bad dst", "func f() {\ne:\n  9x = a\n  ret\n}", "bad destination"},
		{"long assign", "func f() {\ne:\n  x = a + b + c\n  ret\n}", "malformed assignment"},
		{"gibberish", "func f() {\ne:\n  woof woof\n  ret\n}", "unrecognized statement"},
		{"undefined target", "func f() {\ne:\n  jmp nowhere\n}", "undefined block"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("no error for %q", c.src)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err.Error(), c.want)
			}
		})
	}
}

func TestParseErrorHasLine(t *testing.T) {
	src := "func f() {\ne:\n  woof\n  ret\n}"
	_, err := Parse(src)
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 3 {
		t.Errorf("error line = %d, want 3", pe.Line)
	}
}

func TestIsIdent(t *testing.T) {
	good := []string{"a", "A", "_", "a1", "a_b", "a.b.split", "xYz_9"}
	bad := []string{"", "9a", ".a", "a-b", "a b", "func", "jmp", "br", "ret", "print", "nop", "a+"}
	for _, s := range good {
		if !isIdent(s) {
			t.Errorf("isIdent(%q) = false", s)
		}
	}
	for _, s := range bad {
		if isIdent(s) {
			t.Errorf("isIdent(%q) = true", s)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := "  # leading comment\n\nfunc f() {   # trailing\ne:\n\n   ret   # done\n}\n#tail"
	if _, err := ParseFunction(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseReportsFirstUndefinedTarget(t *testing.T) {
	src := "func f(c) {\na:\n  br c b d\nb:\n  jmp nowhere\nd:\n  jmp elsewhere\n}"
	const want = `builder f: block "b" jumps to undefined block "nowhere"`
	for i := 0; i < 100; i++ {
		if _, err := Parse(src); err == nil || err.Error() != want {
			t.Fatalf("parse %d: error %v, want %q", i, err, want)
		}
	}
}

// mediumModule is an eight-function module of the service benchmark's
// medium shape: the first functions, by seed, with 300 to 1030
// statements.
func mediumModule() string {
	c := randprog.Default(0)
	c.MaxDepth, c.MaxItems, c.MaxStmts, c.Vars, c.Params = 4, 4, 6, 10, 4
	var fns []*ir.Function
	for c.Seed = 1; len(fns) < 8; c.Seed++ {
		f := randprog.Generate(c)
		if n := f.NumInstrs() + f.NumBlocks(); n >= 300 && n <= 1030 {
			fns = append(fns, f)
		}
	}
	return PrintFunctions(fns)
}

func TestParseAllocations(t *testing.T) {
	src := mediumModule()
	fns, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	for _, f := range fns {
		blocks += f.NumBlocks()
	}
	n := testing.AllocsPerRun(10, func() {
		if _, err := Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d functions, %d blocks: %.0f allocations, %.2f per block", len(fns), blocks, n, n/float64(blocks))
	if n > 2*float64(blocks) {
		t.Errorf("Parse: %.0f allocations for %d blocks, want at most 2 per block", n, blocks)
	}
}

func BenchmarkParse(b *testing.B) {
	src := mediumModule()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseModule(b *testing.B) {
	src := mediumModule()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseModule(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrint(b *testing.B) {
	fns, err := Parse(mediumModule())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, f := range fns {
			_ = f.String()
		}
	}
}

func BenchmarkCut(b *testing.B) {
	src := mediumModule()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Cut(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSplitFunctions(b *testing.B) {
	src := mediumModule()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SplitFunctions(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnitBuild is the server's unit build with nothing in its
// chunk alias: the cut, then for each chunk its strict parse and
// canonical print.
func BenchmarkUnitBuild(b *testing.B) {
	src := mediumModule()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		chunks, err := Cut(src)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range chunks {
			f, err := ParseFunction(c.Text)
			if err != nil {
				b.Fatal(err)
			}
			_ = f.String()
		}
	}
}
