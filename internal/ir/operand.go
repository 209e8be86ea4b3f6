package ir

import "strconv"

// Operand is a variable reference or an integer literal.
type Operand struct {
	// Name is the variable name; empty for a constant operand.
	Name string
	// Value is the literal value when Name is empty.
	Value int64
}

// Var returns a variable operand.
func Var(name string) Operand {
	if name == "" {
		panic("ir: empty variable name")
	}
	return Operand{Name: name}
}

// Const returns a constant operand.
func Const(v int64) Operand { return Operand{Value: v} }

// IsVar reports whether the operand is a variable reference.
func (o Operand) IsVar() bool { return o.Name != "" }

// IsConst reports whether the operand is an integer literal.
func (o Operand) IsConst() bool { return o.Name == "" }

// Uses reports whether the operand reads variable v.
func (o Operand) Uses(v string) bool { return o.Name == v }

// AppendText appends the operand's source form to dst and returns the
// extended buffer.
func (o Operand) AppendText(dst []byte) []byte {
	if o.IsVar() {
		return append(dst, o.Name...)
	}
	return strconv.AppendInt(dst, o.Value, 10)
}

// String returns the operand's source form.
func (o Operand) String() string {
	var buf [24]byte
	return string(o.AppendText(buf[:0]))
}

// Expr is a candidate expression: a single binary operator applied to two
// operands. Expressions are identified syntactically (no commutativity or
// algebraic normalization), following the paper's lexical model. Expr is a
// comparable value type and is used as a map key.
type Expr struct {
	Op   Op
	A, B Operand
}

// AppendText appends the expression's source form, e.g. "a + b", to dst
// and returns the extended buffer.
func (e Expr) AppendText(dst []byte) []byte { return appendBinary(dst, e.A, e.Op, e.B) }

// appendBinary appends "a op b".
func appendBinary(dst []byte, a Operand, op Op, b Operand) []byte {
	dst = append(a.AppendText(dst), ' ')
	dst = append(op.AppendText(dst), ' ')
	return b.AppendText(dst)
}

// String returns the expression's source form, e.g. "a + b".
func (e Expr) String() string {
	var buf [64]byte
	return string(e.AppendText(buf[:0]))
}

// UsesVar reports whether the expression reads variable v.
func (e Expr) UsesVar(v string) bool { return e.A.Uses(v) || e.B.Uses(v) }

// Vars appends the variables the expression reads to dst and returns it.
func (e Expr) Vars(dst []string) []string {
	if e.A.IsVar() {
		dst = append(dst, e.A.Name)
	}
	if e.B.IsVar() {
		dst = append(dst, e.B.Name)
	}
	return dst
}
