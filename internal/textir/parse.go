// Package textir parses and prints the textual form of the IR. The syntax
// is line oriented and round-trips with ir.Function.String:
//
//	func name(p1, p2) {
//	entry:
//	  x = a + b        // binop (one operator, as in the paper's model)
//	  y = x            // copy
//	  y = 42           // copy of a constant
//	  print y
//	  nop
//	  br c then else   // branch on c != 0
//	head:
//	  jmp entry
//	done:
//	  ret y            // or bare "ret"
//	}
//
// '#' starts a comment that runs to end of line. Blank lines are ignored.
// The first block of a function is its entry block.
package textir

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"lazycm/internal/ir"
)

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("textir: line %d: %s", e.Line, e.Msg)
}

// maxFields is the most fields a statement has: "x = a + b".
const maxFields = 5

// lineScanner walks a source line by line under the lexical rules the
// strict parser and the loose split share. '#' starts a comment that runs
// to end of line, surrounding whitespace is trimmed, and lines left empty
// are skipped. Lines are counted from 1 at each '\n', so a source with k
// newlines has k+1 lines.
type lineScanner struct {
	src   string
	start int // byte offset of the current line
	off   int // byte offset of the next line
	eof   bool
	// hash is one past the byte offset of the first '#' at or after
	// start, or len(src)+1 when there is none; 0 before the first search.
	// One search serves every line up to the '#' it finds.
	hash int
	// num is the number of the current line; at end of input, the
	// number of lines.
	num int
	// text is the current line without its comment and surrounding
	// whitespace; it is empty at end of input.
	text   string
	fields [maxFields]string
}

// next advances to the next line that holds more than a comment and
// reports whether there is one.
func (s *lineScanner) next() bool {
	for !s.eof {
		s.start = s.off
		line := s.src[s.off:]
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
			s.off += i + 1
		} else {
			s.off, s.eof = len(s.src), true
		}
		s.num++
		if s.hash <= s.start {
			s.hash = len(s.src) + 1
			if i := strings.IndexByte(s.src[s.start:], '#'); i >= 0 {
				s.hash = s.start + i + 1
			}
		}
		if c := s.hash - 1 - s.start; c < len(line) {
			line = line[:c]
		}
		if s.text = strings.TrimSpace(line); s.text != "" {
			return true
		}
	}
	s.text = ""
	return false
}

// split returns the current line's whitespace-separated fields, as
// strings.Fields would. An ASCII line of at most maxFields fields splits
// into the scanner's own array, valid until the next call; any other line
// is left to strings.Fields, which applies Unicode's whitespace rules.
func (s *lineScanner) split() []string {
	line, n := s.text, 0
	for i := 0; i < len(line); {
		for i < len(line) && asciiSpace(line[i]) {
			i++
		}
		if i == len(line) {
			break
		}
		start := i
		for i < len(line) && !asciiSpace(line[i]) {
			if line[i] >= utf8.RuneSelf {
				return strings.Fields(line)
			}
			i++
		}
		if n == maxFields {
			return strings.Fields(line)
		}
		s.fields[n] = line[start:i]
		n++
	}
	return s.fields[:n]
}

// asciiSpace reports whether c is one of the ASCII bytes strings.Fields
// splits at: ' ', or '\t' through '\r'.
func asciiSpace(c byte) bool { return c == ' ' || c-'\t' <= '\r'-'\t' }

type parser struct {
	lineScanner
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.num, Msg: fmt.Sprintf(format, args...)}
}

// ParseFunction parses a single function from src.
func ParseFunction(src string) (*ir.Function, error) {
	fns, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(fns) != 1 {
		return nil, fmt.Errorf("textir: expected exactly 1 function, found %d", len(fns))
	}
	return fns[0], nil
}

// Parse parses all functions in src.
func Parse(src string) ([]*ir.Function, error) {
	p := &parser{lineScanner{src: src}}
	var fns []*ir.Function
	for p.next() {
		fn, err := p.function(p.text)
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

func (p *parser) function(header string) (*ir.Function, error) {
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
		if !p.next() {
			return nil, p.errf("unexpected end of input in function %q", name)
		}
		line := p.text
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

func (p *parser) statement(bd *ir.Builder, line string) error {
	fields := p.split()
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

func (p *parser) operand(s string) (ir.Operand, error) {
	if isIdent(s) {
		return ir.Var(s), nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return ir.Operand{}, p.errf("bad operand %q", s)
	}
	return ir.Const(v), nil
}

// isIdent reports whether s is a valid identifier: a letter or '_' followed
// by letters, digits, '_' or '.', and not a reserved word. '.' is allowed so
// that synthetic split-block names round-trip.
func isIdent(s string) bool {
	if s == "" {
		return false
	}
	switch s {
	case "func", "jmp", "br", "ret", "print", "nop":
		return false
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case i > 0 && (c >= '0' && c <= '9' || c == '.'):
		default:
			return false // a byte of a multi-byte rune lands here too
		}
	}
	return true
}

// PrintFunctions renders fns in parseable form separated by blank lines.
func PrintFunctions(fns []*ir.Function) string {
	var b strings.Builder
	for i, f := range fns {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(f.String())
	}
	return b.String()
}
