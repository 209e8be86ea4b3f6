package textir

import (
	"fmt"
	"strings"
)

// This file is the loose, purely line-level structure of a textual-IR
// module: where its functions start and end, and the labeled blocks of
// raw lines inside them, read without semantic validation. One scanner
// (structScanner) holds its rules. Cut drives it to split a module into
// the functions the server keys and optimizes one by one; ParseModule
// drives it to build the model the crash-triage reducer edits. A
// quarantined crasher is often interesting precisely because it is not a
// valid function — an undefined jump target, an unreachable block, a
// missing terminator — so the reducer cannot operate on ir.Function; it
// operates on this model, which preserves any line the strict parser
// would reject.
//
// The model guarantees only structural fidelity: for any input that
// ParseModule accepts, Module.String() parses (strictly or loosely) to
// the same line sequence, so a reduction step changes exactly what it
// means to change and nothing else.

// Module is the loose structural form of a textual-IR source: a sequence
// of functions, each a sequence of labeled blocks holding raw statement
// lines.
type Module struct {
	Funcs []*FuncDoc
}

// FuncDoc is one function in the loose model.
type FuncDoc struct {
	// Header is the full header line ("func name(a, b) {").
	Header string
	// Name is the function name extracted from the header, best effort.
	Name string
	// Loose holds statement lines that appear before any block label —
	// invalid under the strict grammar, but preserved for reduction.
	Loose []string
	// Blocks are the function's blocks in order.
	Blocks []*BlockDoc
}

// BlockDoc is one labeled block: its label and raw statement lines
// (the last line is usually, but not necessarily, a terminator).
type BlockDoc struct {
	Label string
	Lines []string
}

// structScanner walks a source under the loose structural grammar: a
// line outside any function that starts "func " and ends "{" opens one,
// a line reading "}" closes it, and every other line belongs to the open
// function. It fails only on text that has no place in that structure
// at all: statements outside any function, a header inside one, stray
// closers, a missing closing brace, or no function at all.
type structScanner struct {
	lineScanner
	body  bool   // report the lines of open functions
	fn    string // the open (or last) function's name, best effort
	open  bool
	funcs int // functions closed so far
}

// lineKind is what a line is to the structure.
type lineKind int

const (
	lineEnd    lineKind = iota // end of input
	lineHeader                 // a header line, opening a function
	lineBody                   // a line of the open function
	lineClose                  // the "}" line closing it
)

// scan advances to the next line and classifies it. A scanner that does
// not report the lines of open functions (body unset) passes over them.
func (s *structScanner) scan() (lineKind, error) {
	for s.next() {
		line := s.text
		// The last byte rules out nearly every line before the prefix does.
		header := line[len(line)-1] == '{' && strings.HasPrefix(line, "func ")
		switch {
		case header && s.open:
			return 0, fmt.Errorf("textir: line %d: function %q not closed before next function", s.num, s.fn)
		case header:
			name := line[len("func "):]
			if i := strings.IndexByte(name, '('); i >= 0 {
				name = name[:i]
			}
			s.fn, s.open = strings.TrimSpace(name), true
			return lineHeader, nil
		case line == "}":
			if !s.open {
				return 0, fmt.Errorf("textir: line %d: unmatched '}'", s.num)
			}
			s.open = false
			s.funcs++
			return lineClose, nil
		case !s.open:
			return 0, fmt.Errorf("textir: line %d: statement %q outside any function", s.num, line)
		case s.body:
			return lineBody, nil
		}
	}
	switch {
	case s.open:
		return lineEnd, fmt.Errorf("textir: unexpected end of input in function %q", s.fn)
	case s.funcs == 0:
		return lineEnd, fmt.Errorf("textir: no functions in input")
	}
	return lineEnd, nil
}

// Chunk is one function of a module as Cut finds it.
type Chunk struct {
	// Name is the function name, best effort, as FuncDoc.Name.
	Name string
	// Text is the function as spelled in the source, from the start of
	// its header line through its closing "}" line.
	Text string
}

// Cut splits src into its functions in one pass, failing exactly where
// ParseModule fails, with its error. Every chunk slices src. Parse
// accepts src exactly when Cut does and ParseFunction accepts every
// chunk, and the chunks' functions are then Parse's, in order: on any
// source Parse accepts, its functions start and end where Cut's do, and
// the strict parser carries no state from one function to the next.
func Cut(src string) ([]Chunk, error) {
	s := structScanner{lineScanner: lineScanner{src: src}}
	var chunks []Chunk
	start := 0
	for {
		kind, err := s.scan()
		switch {
		case err != nil:
			return nil, err
		case kind == lineEnd:
			return chunks, nil
		case kind == lineHeader:
			start = s.start
		case kind == lineClose:
			chunks = append(chunks, Chunk{Name: s.fn, Text: src[start:s.off]})
		}
	}
}

// ParseModule splits src into the loose structural model in one pass.
// Comments and blank lines are dropped. It fails where Cut does.
func ParseModule(src string) (*Module, error) {
	s := structScanner{lineScanner: lineScanner{src: src}, body: true}
	m := &Module{}
	var fn *FuncDoc
	var blk *BlockDoc
	for {
		kind, err := s.scan()
		switch {
		case err != nil:
			return nil, err
		case kind == lineEnd:
			return m, nil
		case kind == lineHeader:
			fn, blk = &FuncDoc{Header: s.text, Name: s.fn}, nil
		case kind == lineClose:
			m.Funcs = append(m.Funcs, fn)
		default:
			if label, ok := strings.CutSuffix(s.text, ":"); ok && isIdent(label) {
				blk = &BlockDoc{Label: label}
				fn.Blocks = append(fn.Blocks, blk)
			} else if blk == nil {
				fn.Loose = append(fn.Loose, s.text)
			} else {
				blk.Lines = append(blk.Lines, s.text)
			}
		}
	}
}

// String renders the module back to parseable text, functions separated
// by blank lines.
func (m *Module) String() string {
	var b strings.Builder
	for i, fn := range m.Funcs {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(fn.String())
	}
	return b.String()
}

// String renders one function.
func (f *FuncDoc) String() string {
	var b strings.Builder
	b.WriteString(f.Header)
	b.WriteByte('\n')
	for _, line := range f.Loose {
		b.WriteString("  ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
	for _, blk := range f.Blocks {
		b.WriteString(blk.Label)
		b.WriteString(":\n")
		for _, line := range blk.Lines {
			b.WriteString("  ")
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Clone deep-copies the module.
func (m *Module) Clone() *Module {
	c := &Module{Funcs: make([]*FuncDoc, len(m.Funcs))}
	for i, fn := range m.Funcs {
		nf := &FuncDoc{
			Header: fn.Header, Name: fn.Name,
			Loose:  append([]string(nil), fn.Loose...),
			Blocks: make([]*BlockDoc, len(fn.Blocks)),
		}
		for j, blk := range fn.Blocks {
			nf.Blocks[j] = &BlockDoc{Label: blk.Label, Lines: append([]string(nil), blk.Lines...)}
		}
		c.Funcs[i] = nf
	}
	return c
}

// SplitFunctions returns each function of src as standalone source text
// in the loose model's print, in order.
func SplitFunctions(src string) ([]string, error) {
	m, err := ParseModule(src)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(m.Funcs))
	for i, fn := range m.Funcs {
		out[i] = fn.String()
	}
	return out, nil
}

// TermTargets parses a raw statement line as a terminator and returns
// its kind ("jmp", "br", "ret") and target labels; ok is false for
// non-terminator lines.
func TermTargets(line string) (kind string, targets []string, ok bool) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", nil, false
	}
	switch fields[0] {
	case "jmp":
		if len(fields) == 2 {
			return "jmp", fields[1:], true
		}
	case "br":
		if len(fields) == 4 {
			return "br", fields[2:], true
		}
	case "ret":
		if len(fields) <= 2 {
			return "ret", nil, true
		}
	}
	return "", nil, false
}

// Term returns the block's terminator line (its last line, when that
// line parses as a terminator); ok is false for blocks that fall off
// the end or are empty.
func (b *BlockDoc) Term() (line string, ok bool) {
	if len(b.Lines) == 0 {
		return "", false
	}
	last := b.Lines[len(b.Lines)-1]
	if _, _, ok := TermTargets(last); !ok {
		return "", false
	}
	return last, true
}

// DropFunc removes function i.
func (m *Module) DropFunc(i int) {
	m.Funcs = append(m.Funcs[:i:i], m.Funcs[i+1:]...)
}

// DropBlock removes block i from the function and re-points every
// terminator that targeted it: a reference to the dropped label is
// replaced by the dropped block's own first ongoing target (the
// fallthrough a real pass would create), and when the dropped block has
// no ongoing target the referencing terminator degrades structurally —
// br loses the dead arm and becomes jmp, jmp becomes ret.
func (f *FuncDoc) DropBlock(i int) {
	dropped := f.Blocks[i]
	succ := ""
	if term, ok := dropped.Term(); ok {
		if _, targets, _ := TermTargets(term); len(targets) > 0 {
			for _, tgt := range targets {
				if tgt != dropped.Label {
					succ = tgt
					break
				}
			}
		}
	}
	f.Blocks = append(f.Blocks[:i:i], f.Blocks[i+1:]...)
	for _, blk := range f.Blocks {
		for j, line := range blk.Lines {
			blk.Lines[j] = RepointTerm(line, dropped.Label, succ)
		}
	}
}

// RepointTerm rewrites a terminator line so that references to the label
// `from` become `to`. When `to` is empty (no replacement target exists)
// the terminator degrades: a branch drops the dead arm and becomes a
// jump, a jump becomes a bare ret. Non-terminator lines and lines that
// do not reference `from` are returned unchanged.
func RepointTerm(line, from, to string) string {
	kind, targets, ok := TermTargets(line)
	if !ok {
		return line
	}
	switch kind {
	case "jmp":
		if targets[0] != from {
			return line
		}
		if to != "" {
			return "jmp " + to
		}
		return "ret"
	case "br":
		then, els := targets[0], targets[1]
		if then != from && els != from {
			return line
		}
		fields := strings.Fields(line)
		cond := fields[1]
		if then == from {
			then = to
		}
		if els == from {
			els = to
		}
		switch {
		case then != "" && els != "":
			return fmt.Sprintf("br %s %s %s", cond, then, els)
		case then != "":
			return "jmp " + then
		case els != "":
			return "jmp " + els
		}
		return "ret"
	}
	return line
}

// SimplifyTermCandidates returns the strictly simpler terminator forms a
// reducer may try in place of line: br → either jmp arm, jmp → ret,
// ret v → ret. The empty slice means the line is already minimal (or is
// not a terminator).
func SimplifyTermCandidates(line string) []string {
	kind, targets, ok := TermTargets(line)
	if !ok {
		return nil
	}
	switch kind {
	case "br":
		out := []string{"jmp " + targets[0]}
		if targets[1] != targets[0] {
			out = append(out, "jmp "+targets[1])
		}
		return out
	case "jmp":
		return []string{"ret"}
	case "ret":
		if len(strings.Fields(line)) == 2 {
			return []string{"ret"}
		}
	}
	return nil
}

// SimplifyOperandCandidates returns variants of a statement line with
// one variable operand replaced by the constant 0 — the grammar's
// simplest operand. Destinations and labels are never touched, so the
// line's shape survives; only its data inputs shrink.
func SimplifyOperandCandidates(line string) []string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	var operandIdx []int
	switch fields[0] {
	case "print":
		if len(fields) == 2 {
			operandIdx = []int{1}
		}
	case "ret":
		if len(fields) == 2 {
			operandIdx = []int{1}
		}
	case "br":
		if len(fields) == 4 {
			operandIdx = []int{1}
		}
	case "jmp", "nop":
	default:
		// Assignment: dst = a [op b].
		if len(fields) >= 3 && fields[1] == "=" {
			operandIdx = append(operandIdx, 2)
			if len(fields) == 5 {
				operandIdx = append(operandIdx, 4)
			}
		}
	}
	var out []string
	for _, idx := range operandIdx {
		if !isIdent(fields[idx]) {
			continue // already a constant (or junk a reduction shouldn't invent)
		}
		variant := append([]string(nil), fields...)
		variant[idx] = "0"
		out = append(out, strings.Join(variant, " "))
	}
	return out
}
