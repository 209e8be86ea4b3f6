package textir

import (
	"strings"
	"testing"
)

const surgerySrc = `
# leading comment
func f(a, b, p) {
entry:
  br p t e
t:
  x = a + b
  jmp j
e:
  y = a + b
  jmp j
j:
  z = a + b
  ret z
}

func g(q) {
e:
  print q
  ret
}
`

func TestParseModuleRoundTrip(t *testing.T) {
	m, err := ParseModule(surgerySrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Funcs) != 2 || m.Funcs[0].Name != "f" || m.Funcs[1].Name != "g" {
		t.Fatalf("bad structure: %+v", m.Funcs)
	}
	if len(m.Funcs[0].Blocks) != 4 {
		t.Fatalf("f has %d blocks, want 4", len(m.Funcs[0].Blocks))
	}
	// The printed module must parse strictly to the same functions.
	fns1, err := Parse(surgerySrc)
	if err != nil {
		t.Fatal(err)
	}
	fns2, err := Parse(m.String())
	if err != nil {
		t.Fatalf("round-tripped module does not parse: %v\n%s", err, m.String())
	}
	if PrintFunctions(fns1) != PrintFunctions(fns2) {
		t.Errorf("round trip changed the module:\n%s\nvs\n%s", PrintFunctions(fns1), PrintFunctions(fns2))
	}
}

// TestParseModuleLoose: programs the strict parser rejects still get a
// structural model — that is the whole point of the loose layer.
func TestParseModuleLoose(t *testing.T) {
	src := `
func broken(a) {
e:
  x = a ?? 3
  jmp nowhere
q:
  zzz not a statement
}
`
	m, err := ParseModule(src)
	if err != nil {
		t.Fatalf("loose parse rejected reducible junk: %v", err)
	}
	if _, err := Parse(src); err == nil {
		t.Fatal("strict parser unexpectedly accepts the junk (test premise broken)")
	}
	if got := len(m.Funcs[0].Blocks); got != 2 {
		t.Fatalf("got %d blocks, want 2", got)
	}
	// Round trip preserves the junk lines verbatim.
	if !strings.Contains(m.String(), "x = a ?? 3") || !strings.Contains(m.String(), "zzz not a statement") {
		t.Errorf("junk lines lost:\n%s", m.String())
	}
}

func TestParseModuleRejectsNonStructure(t *testing.T) {
	for _, src := range []string{
		"",
		"stray statement",
		"func f() {\ne:\n  ret\n", // unclosed
		"}",
		"func f() {\ne:\n  ret\n}\nfunc f2() {", // second unclosed
	} {
		if _, err := ParseModule(src); err == nil {
			t.Errorf("ParseModule accepted %q", src)
		}
	}
}

func TestSplitFunctions(t *testing.T) {
	chunks, err := SplitFunctions(surgerySrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 2 {
		t.Fatalf("got %d chunks, want 2", len(chunks))
	}
	for _, c := range chunks {
		if _, err := ParseFunction(c); err != nil {
			t.Errorf("chunk does not parse standalone: %v\n%s", err, c)
		}
	}
}

func TestDropBlockRepoints(t *testing.T) {
	m, err := ParseModule(surgerySrc)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Funcs[0]
	// Drop block t (index 1): the branch "br p t e" must re-point to t's
	// own successor j.
	f.DropBlock(1)
	entry := f.Blocks[0]
	if got := entry.Lines[len(entry.Lines)-1]; got != "br p j e" {
		t.Errorf("entry terminator = %q, want %q", got, "br p j e")
	}
	if len(f.Blocks) != 3 {
		t.Errorf("blocks = %d, want 3", len(f.Blocks))
	}
	// The result still parses strictly: the surgery preserved the grammar.
	if _, err := Parse(m.String()); err != nil {
		t.Errorf("post-surgery module does not parse: %v\n%s", err, m.String())
	}
}

func TestDropBlockDegradesTerminators(t *testing.T) {
	src := `
func f(p) {
e:
  br p d d
d:
  ret
}
`
	m, err := ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	// Dropping d (a ret block, no ongoing target): the branch referencing
	// it degrades to ret.
	m.Funcs[0].DropBlock(1)
	e := m.Funcs[0].Blocks[0]
	if got := e.Lines[len(e.Lines)-1]; got != "ret" {
		t.Errorf("degraded terminator = %q, want ret", got)
	}
}

func TestRepointTerm(t *testing.T) {
	cases := []struct{ line, from, to, want string }{
		{"jmp a", "a", "b", "jmp b"},
		{"jmp a", "a", "", "ret"},
		{"jmp a", "x", "b", "jmp a"},
		{"br c a b", "a", "z", "br c z b"},
		{"br c a b", "b", "", "jmp a"},
		{"br c a a", "a", "", "ret"},
		{"x = a + b", "a", "z", "x = a + b"},
		{"ret v", "v", "z", "ret v"},
	}
	for _, tc := range cases {
		if got := RepointTerm(tc.line, tc.from, tc.to); got != tc.want {
			t.Errorf("RepointTerm(%q, %q, %q) = %q, want %q", tc.line, tc.from, tc.to, got, tc.want)
		}
	}
}

func TestSimplifyCandidates(t *testing.T) {
	if got := SimplifyTermCandidates("br c a b"); len(got) != 2 || got[0] != "jmp a" || got[1] != "jmp b" {
		t.Errorf("br candidates = %v", got)
	}
	if got := SimplifyTermCandidates("jmp a"); len(got) != 1 || got[0] != "ret" {
		t.Errorf("jmp candidates = %v", got)
	}
	if got := SimplifyTermCandidates("ret v"); len(got) != 1 || got[0] != "ret" {
		t.Errorf("ret v candidates = %v", got)
	}
	if got := SimplifyTermCandidates("ret"); got != nil {
		t.Errorf("bare ret candidates = %v", got)
	}
	if got := SimplifyOperandCandidates("x = a + b"); len(got) != 2 ||
		got[0] != "x = 0 + b" || got[1] != "x = a + 0" {
		t.Errorf("binop operand candidates = %v", got)
	}
	if got := SimplifyOperandCandidates("x = 1 + 2"); got != nil {
		t.Errorf("constant operands produced candidates: %v", got)
	}
	if got := SimplifyOperandCandidates("print v"); len(got) != 1 || got[0] != "print 0" {
		t.Errorf("print candidates = %v", got)
	}
	if got := SimplifyOperandCandidates("br c a b"); len(got) != 1 || got[0] != "br 0 a b" {
		t.Errorf("br cond candidates = %v", got)
	}
}

// TestModuleCorpus: every checked-in corpus seed that the strict parser
// accepts must round-trip through the loose model without changing its
// meaning.
func TestModuleCorpus(t *testing.T) {
	for _, seed := range corpusSeeds(t) {
		fns, err := Parse(seed.Src)
		if err != nil {
			continue
		}
		m, merr := ParseModule(seed.Src)
		if merr != nil {
			t.Errorf("%s: strict parses but loose rejects: %v", seed.Path, merr)
			continue
		}
		fns2, err := Parse(m.String())
		if err != nil {
			t.Errorf("%s: loose round trip does not parse: %v", seed.Path, err)
			continue
		}
		if PrintFunctions(fns) != PrintFunctions(fns2) {
			t.Errorf("%s: loose round trip changed the module", seed.Path)
		}
	}
}

// TestCut: each chunk is its function as spelled, from the start of its
// header line through its closing "}" line, comments, blank lines and
// line ends kept; text between functions belongs to none.
func TestCut(t *testing.T) {
	src := "# lead\n\n  func f(a) { # f\ne:\n\n  ret a\n}  # end\n\nfunc g() {\r\ne:\r\n  ret\r\n}"
	chunks, err := Cut(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []Chunk{{"f", "  func f(a) { # f\ne:\n\n  ret a\n}  # end\n"}, {"g", "func g() {\r\ne:\r\n  ret\r\n}"}}
	if len(chunks) != len(want) || chunks[0] != want[0] || chunks[1] != want[1] {
		t.Fatalf("Cut = %q, want %q", chunks, want)
	}
}
