package textir

import (
	"fmt"
	"strconv"
	"strings"

	"lazycm/internal/ir"
)

// The reference parsers: the strict parser and the loose split as they
// were before both moved onto one line scanner, kept to prove the
// scanner changed no accepted program, no printed function and no error.
// The strict one splits the source into lines and each line into
// strings.Fields; the loose one splits the source into lines.

type refParser struct {
	lines []string
	pos   int // index of next line
}

func (p *refParser) errf(format string, args ...any) error {
	return &ParseError{Line: p.pos, Msg: fmt.Sprintf(format, args...)}
}

// next returns the next non-empty, comment-stripped line, trimmed, or ""
// at end of input.
func (p *refParser) next() string {
	for p.pos < len(p.lines) {
		line := p.lines[p.pos]
		p.pos++
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line != "" {
			return line
		}
	}
	return ""
}

// refParse is the reference parser.
func refParse(src string) ([]*ir.Function, error) {
	p := &refParser{lines: strings.Split(src, "\n")}
	var fns []*ir.Function
	for {
		line := p.next()
		if line == "" {
			break
		}
		fn, err := p.function(line)
		if err != nil {
			return nil, err
		}
		fns = append(fns, fn)
	}
	if len(fns) == 0 {
		return nil, fmt.Errorf("textir: no functions in input")
	}
	return fns, nil
}

func (p *refParser) function(header string) (*ir.Function, error) {
	rest, ok := strings.CutPrefix(header, "func ")
	if !ok {
		return nil, p.errf("expected 'func', got %q", header)
	}
	open := strings.IndexByte(rest, '(')
	closeP := strings.IndexByte(rest, ')')
	if open < 0 || closeP < open {
		return nil, p.errf("malformed function header %q", header)
	}
	name := strings.TrimSpace(rest[:open])
	if name == "" || !isIdent(name) {
		return nil, p.errf("bad function name %q", name)
	}
	var params []string
	if s := strings.TrimSpace(rest[open+1 : closeP]); s != "" {
		for _, f := range strings.Split(s, ",") {
			f = strings.TrimSpace(f)
			if !isIdent(f) {
				return nil, p.errf("bad parameter name %q", f)
			}
			params = append(params, f)
		}
	}
	if tail := strings.TrimSpace(rest[closeP+1:]); tail != "{" {
		return nil, p.errf("expected '{' after function header, got %q", tail)
	}

	bd := ir.NewBuilder(name, params...)
	sawBlock := false
	for {
		line := p.next()
		if line == "" {
			return nil, p.errf("unexpected end of input in function %q", name)
		}
		if line == "}" {
			break
		}
		if label, ok := strings.CutSuffix(line, ":"); ok && isIdent(label) {
			bd.Block(label)
			sawBlock = true
			continue
		}
		if !sawBlock {
			return nil, p.errf("statement %q before any block label", line)
		}
		if err := p.statement(bd, line); err != nil {
			return nil, err
		}
	}
	return bd.Finish()
}

func (p *refParser) statement(bd *ir.Builder, line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "jmp":
		if len(fields) != 2 || !isIdent(fields[1]) {
			return p.errf("malformed jmp %q", line)
		}
		bd.Jump(fields[1])
		return nil
	case "br":
		if len(fields) != 4 || !isIdent(fields[2]) || !isIdent(fields[3]) {
			return p.errf("malformed br %q", line)
		}
		cond, err := p.operand(fields[1])
		if err != nil {
			return err
		}
		bd.Branch(cond, fields[2], fields[3])
		return nil
	case "ret":
		switch len(fields) {
		case 1:
			bd.RetVoid()
			return nil
		case 2:
			v, err := p.operand(fields[1])
			if err != nil {
				return err
			}
			bd.Ret(v)
			return nil
		}
		return p.errf("malformed ret %q", line)
	case "print":
		if len(fields) != 2 {
			return p.errf("malformed print %q", line)
		}
		v, err := p.operand(fields[1])
		if err != nil {
			return err
		}
		bd.Print(v)
		return nil
	case "nop":
		if len(fields) != 1 {
			return p.errf("malformed nop %q", line)
		}
		bd.Nop()
		return nil
	}

	// Assignment: dst = a [op b]
	if len(fields) >= 3 && fields[1] == "=" {
		dst := fields[0]
		if !isIdent(dst) {
			return p.errf("bad destination %q", dst)
		}
		switch len(fields) {
		case 3:
			src, err := p.operand(fields[2])
			if err != nil {
				return err
			}
			bd.Copy(dst, src)
			return nil
		case 5:
			a, err := p.operand(fields[2])
			if err != nil {
				return err
			}
			op, ok := ir.OpFromString(fields[3])
			if !ok {
				return p.errf("unknown operator %q", fields[3])
			}
			b, err := p.operand(fields[4])
			if err != nil {
				return err
			}
			bd.BinOp(dst, op, a, b)
			return nil
		}
		return p.errf("malformed assignment %q (operands must be space separated)", line)
	}
	return p.errf("unrecognized statement %q", line)
}

func (p *refParser) operand(s string) (ir.Operand, error) {
	if isIdent(s) {
		return ir.Var(s), nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return ir.Operand{}, p.errf("bad operand %q", s)
	}
	return ir.Const(v), nil
}

// refParseModule is the reference loose split. Comments and
// blank lines are dropped. It fails only on text that has no place in
// the structure at all: statements outside any function, a missing
// closing brace, or stray closers.
func refParseModule(src string) (*Module, error) {
	m := &Module{}
	var fn *FuncDoc
	var blk *BlockDoc
	for num, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "func ") && strings.HasSuffix(line, "{"):
			if fn != nil {
				return nil, fmt.Errorf("textir: line %d: function %q not closed before next function", num+1, fn.Name)
			}
			name := strings.TrimPrefix(line, "func ")
			if i := strings.IndexByte(name, '('); i >= 0 {
				name = name[:i]
			}
			fn = &FuncDoc{Header: line, Name: strings.TrimSpace(name)}
			blk = nil
		case line == "}":
			if fn == nil {
				return nil, fmt.Errorf("textir: line %d: unmatched '}'", num+1)
			}
			m.Funcs = append(m.Funcs, fn)
			fn, blk = nil, nil
		case fn == nil:
			return nil, fmt.Errorf("textir: line %d: statement %q outside any function", num+1, line)
		default:
			if label, ok := strings.CutSuffix(line, ":"); ok && isIdent(label) {
				blk = &BlockDoc{Label: label}
				fn.Blocks = append(fn.Blocks, blk)
				continue
			}
			if blk == nil {
				fn.Loose = append(fn.Loose, line)
				continue
			}
			blk.Lines = append(blk.Lines, line)
		}
	}
	if fn != nil {
		return nil, fmt.Errorf("textir: unexpected end of input in function %q", fn.Name)
	}
	if len(m.Funcs) == 0 {
		return nil, fmt.Errorf("textir: no functions in input")
	}
	return m, nil
}
