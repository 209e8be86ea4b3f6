package ir

import (
	"fmt"
	"strconv"
)

// InstrKind discriminates the elementary statement forms.
type InstrKind int

const (
	// BinOp is v = a ⊕ b, the only statement form that computes a candidate
	// expression.
	BinOp InstrKind = iota
	// Copy is v = a for a variable or constant a.
	Copy
	// Print emits the value of its operand; it is the observable effect the
	// interpreter compares across transformations.
	Print
	// Nop does nothing. Synthetic blocks created by critical-edge splitting
	// and code-motion insertions start out as Nops in some intermediate
	// states; Nops are also legal input.
	Nop
)

// String names the instruction kind.
func (k InstrKind) String() string {
	switch k {
	case BinOp:
		return "binop"
	case Copy:
		return "copy"
	case Print:
		return "print"
	case Nop:
		return "nop"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Instr is one elementary statement.
type Instr struct {
	Kind InstrKind
	// Dst is the assigned variable for BinOp and Copy.
	Dst string
	// Op is the operator for BinOp.
	Op Op
	// A is the first operand for BinOp, the source for Copy, and the
	// printed value for Print.
	A Operand
	// B is the second operand for BinOp.
	B Operand
}

// NewBinOp returns the statement dst = a op b.
func NewBinOp(dst string, op Op, a, b Operand) Instr {
	return Instr{Kind: BinOp, Dst: dst, Op: op, A: a, B: b}
}

// NewCopy returns the statement dst = src.
func NewCopy(dst string, src Operand) Instr {
	return Instr{Kind: Copy, Dst: dst, A: src}
}

// NewPrint returns the statement print v.
func NewPrint(v Operand) Instr { return Instr{Kind: Print, A: v} }

// NewNop returns a no-op statement.
func NewNop() Instr { return Instr{Kind: Nop} }

// Expr returns the candidate expression the instruction computes and true,
// or a zero Expr and false if the instruction computes none. Only BinOp
// statements compute candidate expressions.
func (in Instr) Expr() (Expr, bool) {
	if in.Kind != BinOp {
		return Expr{}, false
	}
	return Expr{Op: in.Op, A: in.A, B: in.B}, true
}

// Defs returns the variable the instruction assigns, or "" if none.
func (in Instr) Defs() string {
	if in.Kind == BinOp || in.Kind == Copy {
		return in.Dst
	}
	return ""
}

// UsedVars appends the variables the instruction reads to dst and returns it.
func (in Instr) UsedVars(dst []string) []string {
	switch in.Kind {
	case BinOp:
		if in.A.IsVar() {
			dst = append(dst, in.A.Name)
		}
		if in.B.IsVar() {
			dst = append(dst, in.B.Name)
		}
	case Copy, Print:
		if in.A.IsVar() {
			dst = append(dst, in.A.Name)
		}
	}
	return dst
}

// AppendText appends the statement's source form to dst and returns the
// extended buffer. A statement of no defined kind prints as
// "<invalid instr kind N>".
func (in Instr) AppendText(dst []byte) []byte { return appendInstr(dst, &in) }

// appendInstr is Instr.AppendText on a pointer, which saves printing a
// block's statements from copying each one.
func appendInstr(dst []byte, in *Instr) []byte {
	switch in.Kind {
	case BinOp:
		dst = append(append(dst, in.Dst...), " = "...)
		return appendBinary(dst, in.A, in.Op, in.B)
	case Copy:
		dst = append(append(dst, in.Dst...), " = "...)
		return in.A.AppendText(dst)
	case Print:
		return in.A.AppendText(append(dst, "print "...))
	case Nop:
		return append(dst, "nop"...)
	}
	return appendInvalid(dst, "<invalid instr kind ", int(in.Kind))
}

// String returns the statement's source form.
func (in Instr) String() string {
	var buf [64]byte
	return string(in.AppendText(buf[:0]))
}

// TermKind discriminates block terminators.
type TermKind int

const (
	// Jump transfers to a single successor.
	Jump TermKind = iota
	// Branch transfers to Then if Cond is nonzero, else to Else.
	Branch
	// Ret ends the function, optionally yielding a value.
	Ret
)

// Terminator ends a basic block.
type Terminator struct {
	Kind TermKind
	// Cond is the branch condition (Branch only).
	Cond Operand
	// Then and Else are the successors: Jump uses Then only.
	Then, Else *Block
	// HasVal reports whether Ret carries a value.
	HasVal bool
	// Val is the returned value when HasVal (Ret only).
	Val Operand
}

// UsedVars appends the variables the terminator reads to dst and returns it.
func (t Terminator) UsedVars(dst []string) []string {
	if t.Kind == Branch && t.Cond.IsVar() {
		dst = append(dst, t.Cond.Name)
	}
	if t.Kind == Ret && t.HasVal && t.Val.IsVar() {
		dst = append(dst, t.Val.Name)
	}
	return dst
}

// AppendText appends the terminator's source form to dst and returns the
// extended buffer. A missing target prints as "<nil>", a terminator of no
// defined kind as "<invalid terminator kind N>".
func (t Terminator) AppendText(dst []byte) []byte { return appendTerm(dst, &t) }

// appendTerm is Terminator.AppendText on a pointer, for the same reason
// as appendInstr.
func appendTerm(dst []byte, t *Terminator) []byte {
	switch t.Kind {
	case Jump:
		return appendBlockName(append(dst, "jmp "...), t.Then)
	case Branch:
		dst = append(t.Cond.AppendText(append(dst, "br "...)), ' ')
		dst = append(appendBlockName(dst, t.Then), ' ')
		return appendBlockName(dst, t.Else)
	case Ret:
		if t.HasVal {
			return t.Val.AppendText(append(dst, "ret "...))
		}
		return append(dst, "ret"...)
	}
	return appendInvalid(dst, "<invalid terminator kind ", int(t.Kind))
}

// String returns the terminator's source form.
func (t Terminator) String() string {
	var buf [64]byte
	return string(t.AppendText(buf[:0]))
}

func appendBlockName(dst []byte, b *Block) []byte {
	if b == nil {
		return append(dst, "<nil>"...)
	}
	return append(dst, b.Name...)
}

// appendInvalid appends the form that stands for an undefined kind:
// prefix, the kind's number, and a closing '>'.
func appendInvalid(dst []byte, prefix string, kind int) []byte {
	return append(strconv.AppendInt(append(dst, prefix...), int64(kind), 10), '>')
}
