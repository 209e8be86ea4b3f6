package textir

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"lazycm/internal/ir"
	"lazycm/internal/lcm"
	"lazycm/internal/pipeline"
	"lazycm/internal/randprog"
	"lazycm/internal/verify"
)

// FuzzParse feeds arbitrary text to the parser: it must never panic, and
// whenever it accepts an input, printing and reparsing must be stable.
func FuzzParse(f *testing.F) {
	f.Add("func f(a, b) {\ne:\n  x = a + b\n  ret x\n}")
	f.Add("func f() {\ne:\n  nop\n  br x e e\n}")
	f.Add("# comment only")
	f.Add("func f() {\ne:\n  ret\n}\nfunc g() {\ne:\n  ret\n}")
	f.Add("func f(")
	f.Add(strings.Repeat("func f() {\ne:\n  ret\n}\n", 3))
	for seed := int64(0); seed < 8; seed++ {
		f.Add(randprog.ForSeed(seed).String())
	}
	// Every checked-in program — corpus and quarantined crashers alike —
	// seeds the fuzzer, so a captured regression keeps mutating forever.
	for _, seed := range corpusSeeds(f) {
		f.Add(seed.Src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fns, err := Parse(src)
		if err != nil {
			return
		}
		printed := PrintFunctions(fns)
		fns2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of printed output failed: %v\ninput: %q\nprinted:\n%s", err, src, printed)
		}
		if got := PrintFunctions(fns2); got != printed {
			t.Fatalf("print not stable:\n%s\nvs\n%s", printed, got)
		}
	})
}

// FuzzPipeline drives the full hardened pipeline with arbitrary parsed
// input: whatever the parser accepts, the pipeline must either optimize,
// reject as invalid, or fall back — no panic may escape, the surviving
// function must always validate, and on the happy path it must behave
// like the input.
func FuzzPipeline(f *testing.F) {
	f.Add("func f(a, b) {\ne:\n  x = a + b\n  y = a + b\n  ret y\n}", 0)
	f.Add("func f(a, b, c) {\nentry:\n  br c t e\nt:\n  x = a + b\n  jmp j\ne:\n  jmp j\nj:\n  y = a + b\n  ret y\n}", 100)
	f.Add("func f() {\ne:\n  jmp e\n}", 0) // no exit: invalid input
	for seed := int64(0); seed < 4; seed++ {
		f.Add(randprog.ForSeed(seed).String(), int(seed))
	}
	for i, seed := range corpusSeeds(f) {
		f.Add(seed.Src, i)
	}
	f.Fuzz(func(t *testing.T, src string, fuel int) {
		fns, err := Parse(src)
		if err != nil {
			return
		}
		if fuel < 0 {
			fuel = -fuel
		}
		passes := []pipeline.Pass{pipeline.LCMPass(lcm.LCM), pipeline.MRPass(), pipeline.OptPass(), pipeline.CleanupPass()}
		for _, fn := range fns {
			res, err := pipeline.Run(fn, passes, pipeline.Options{
				Fuel: fuel % 512, MaxRounds: 2, Verify: true, Runs: 2,
			})
			if err != nil {
				if !errors.Is(err, pipeline.ErrInvalidInput) {
					t.Fatalf("unexpected error kind: %v\n%s", err, fn)
				}
				continue
			}
			if res.F == nil {
				t.Fatalf("pipeline returned nil function\n%s", fn)
			}
			if verr := ir.Validate(res.F); verr != nil {
				t.Fatalf("pipeline shipped an invalid function: %v\n%s", verr, res.F)
			}
			if err := verify.Equivalent(fn, res.F, 1, 2); err != nil {
				t.Fatalf("pipeline shipped a misbehaving function: %v\n%s", err, res.F)
			}
		}
	})
}

// FuzzGeneratedPrograms parses the printed form of generated programs for
// arbitrary seeds: the generator, printer and parser must agree for any
// seed value.
func FuzzGeneratedPrograms(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(12345))
	f.Add(int64(-1))
	f.Fuzz(func(t *testing.T, seed int64) {
		fn := randprog.ForSeed(seed)
		if err := fn.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		re, err := ParseFunction(fn.String())
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, fn)
		}
		if re.String() != fn.String() {
			t.Fatalf("seed %d round trip unstable", seed)
		}
	})
}

// FuzzParseEquiv holds the parsers to the references they replaced (see
// reference_test.go): on any input, Parse must fail with the reference's
// exact error, line number included, or yield functions that print the
// same; ParseModule must fail the same way or split the same module.
func FuzzParseEquiv(f *testing.F) {
	for _, src := range []string{
		"func f(a) {\r\ne:\r\n  x = a + 1\r\n  ret x\r\n}\r\n",
		"func f(a) {\ne:\n\tx\v=\fa\t+\r1\n  ret\tx\n}",
		"func f(a) {\ne:\n  x = a\u0085+ 1\n  ret x\n}",
		"func f(a) {\ne:\n  x\u00a0=\u00a0a + 1\n  ret x\n}",
		"\u00a0func f() {\u0085\ne:\u00a0\n  ret\n}\u0085",
		"func f(a) {\ne:\n  x = a + 1 + 2\n  ret x\n}",
		"func f(a) {\ne:\n  print a a a a a a a\n  ret x y z w v u\n}",
		"func f() {\ne:\n  br a b c d e f g h\n}",
		"func f(c) {\na:\n  br c b d\nb:\n  jmp nowhere\nd:\n  jmp elsewhere\n}",
		"func f() {\ne:\n  ret # done\n}\n# tail\n\n",
		"func f() {\ne:\n  ret",
		"}\nfunc f() {\n",
		"func f() {\n  nop\ne:\n  ret\n}\nfunc g() {\n",
		"func f() {\ne:\n  ret\n  nop\n}",
	} {
		f.Add(src)
	}
	for seed := int64(0); seed < 4; seed++ {
		f.Add(randprog.ForSeed(seed).String())
	}
	for _, seed := range corpusSeeds(f) {
		f.Add(seed.Src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fns, err := Parse(src)
		want, werr := refParse(src)
		if !sameError(err, werr) {
			t.Fatalf("Parse(%q) error %v, reference %v", src, err, werr)
		}
		if err == nil {
			if got, want := PrintFunctions(fns), PrintFunctions(want); got != want {
				t.Fatalf("Parse(%q) printed\n%s\nreference\n%s", src, got, want)
			}
		}
		m, err := ParseModule(src)
		wm, werr := refParseModule(src)
		if !sameError(err, werr) {
			t.Fatalf("ParseModule(%q) error %v, reference %v", src, err, werr)
		}
		if err == nil {
			if got, want := m.String(), wm.String(); got != want {
				t.Fatalf("ParseModule(%q) printed\n%s\nreference\n%s", src, got, want)
			}
			for i := range m.Funcs {
				if m.Funcs[i].Name != wm.Funcs[i].Name {
					t.Fatalf("ParseModule(%q) function %d named %q, reference %q", src, i, m.Funcs[i].Name, wm.Funcs[i].Name)
				}
			}
		}
	})
}

// FuzzChunks holds Cut's chunks to both parsers. On any input, Cut fails
// exactly where the reference loose split does, with its error;
// ParseModule splits the same functions, each one the loose print of its
// chunk; and Parse succeeds exactly when Cut does and ParseFunction
// accepts every chunk, the chunks' functions then printing as Parse's
// do, in order. The server keys its chunk alias on these cuts, so a cut
// that drifted from Parse's would serve one function's answer for
// another's text.
func FuzzChunks(f *testing.F) {
	for _, src := range []string{
		"func f() {\ne:\n  ret\n} # end of f\nfunc g() {\ne:\n  ret\n}\n",
		"func f(a) {\ne:\n  # a note\n  x = a + 1\n\n  ret x\n}\n",
		"func f() {\ne:\n  ret\nfunc g() {\ne:\n  ret\n}\n",
		"func f() {\ne:\n  ret\n",
		"func f() {\ne:\n  ret\n}\ntrailing text\n",
		"func f() {\ne:\n  func g() {\n  ret\n}\n",
		"func f(a) {\r\ne:\r\n  x = a + 1\r\n  ret x\r\n}\r\n\r\nfunc g() {\r\ne:\r\n  ret\r\n}\r\n",
		"",
		"  func f() {\ne:\n  ret\n  }",
		"}\nfunc f() {\ne:\n  ret\n}\n",
	} {
		f.Add(src)
	}
	for seed := int64(0); seed < 4; seed++ {
		f.Add(randprog.ForSeed(seed).String())
	}
	for _, seed := range corpusSeeds(f) {
		f.Add(seed.Src)
	}
	// A statement before any label, malformed headers, and a header
	// whose brace is followed by a non-ASCII space.
	for _, src := range []string{
		"func f(a) {\n  x = a\ne:\n  ret x\n}\n",
		"func {\n}\nfunc g( {\ne:\n}\n",
		"func f() {\u00a0\ne:\n  ret\n}\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		chunks, err := Cut(src)
		if _, werr := refParseModule(src); !sameError(err, werr) {
			t.Fatalf("Cut(%q) error %v, reference %v", src, err, werr)
		}
		m, merr := ParseModule(src)
		if !sameError(merr, err) {
			t.Fatalf("ParseModule(%q) error %v, Cut %v", src, merr, err)
		}
		if err == nil && len(m.Funcs) != len(chunks) {
			t.Fatalf("Cut(%q) cut %d functions, ParseModule %d", src, len(chunks), len(m.Funcs))
		}
		for i, c := range chunks {
			loose, lerr := SplitFunctions(c.Text)
			if lerr != nil || len(loose) != 1 || loose[0] != m.Funcs[i].String() || c.Name != m.Funcs[i].Name {
				t.Fatalf("Cut(%q) chunk %d (%q) prints loosely as %q (%v), ParseModule's function %q as %q",
					src, i, c.Name, loose, lerr, m.Funcs[i].Name, m.Funcs[i].String())
			}
		}

		fns, perr := Parse(src)
		ok := err == nil
		var got []*ir.Function
		for i := 0; ok && i < len(chunks); i++ {
			fn, cerr := ParseFunction(chunks[i].Text)
			ok = cerr == nil
			got = append(got, fn)
		}
		if (perr == nil) != ok {
			t.Fatalf("Parse(%q) error %v, but Cut %v and its chunks parse: %v", src, perr, err, ok)
		}
		if perr != nil {
			return
		}
		if len(got) != len(fns) {
			t.Fatalf("Cut(%q) cut %d functions, Parse %d", src, len(got), len(fns))
		}
		for i := range fns {
			if g, w := got[i].String(), fns[i].String(); g != w {
				t.Fatalf("Cut(%q) function %d printed\n%s\nParse\n%s", src, i, g, w)
			}
		}
	})
}

// sameError reports whether two errors are both nil, or of one type with
// one message.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return fmt.Sprintf("%T %v", a, a) == fmt.Sprintf("%T %v", b, b)
}
