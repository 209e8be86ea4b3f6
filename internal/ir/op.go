// Package ir defines the three-address intermediate representation the
// reproduction works on: functions of basic blocks holding elementary
// statements of the form v = a ⊕ b, exactly the single-operator expression
// model of the Lazy Code Motion paper (Knoop, Rüthing & Steffen, PLDI 1992).
//
// The representation is deliberately not SSA: PRE in the paper's setting
// operates on lexical expressions over mutable variables, with transparency
// and local computation predicates derived per statement.
package ir

import (
	"fmt"
	"strconv"
)

// Op is a binary operator of a candidate expression.
type Op int

// The operator universe. All operators are binary; this matches the paper's
// single-operator expression model.
const (
	Add Op = iota
	Sub
	Mul
	Div
	Mod
	Eq
	Ne
	Lt
	Le
	Gt
	Ge
	numOps
)

var opNames = [...]string{
	Add: "+", Sub: "-", Mul: "*", Div: "/", Mod: "%",
	Eq: "==", Ne: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">=",
}

// AppendText appends the operator's source form, e.g. "+", to dst and
// returns the extended buffer. An undefined operator prints as "op(N)".
func (o Op) AppendText(dst []byte) []byte {
	if !o.Valid() {
		return append(strconv.AppendInt(append(dst, "op("...), int64(o), 10), ')')
	}
	return append(dst, opNames[o]...)
}

// String returns the operator's source form, e.g. "+".
func (o Op) String() string {
	var buf [24]byte
	return string(o.AppendText(buf[:0]))
}

// Valid reports whether o is a defined operator.
func (o Op) Valid() bool { return o >= 0 && o < numOps }

// OpFromString returns the operator with the given source form.
func OpFromString(s string) (Op, bool) {
	for i, n := range opNames {
		if n == s {
			return Op(i), true
		}
	}
	return 0, false
}

// Ops returns all defined operators in a fixed order.
func Ops() []Op {
	out := make([]Op, numOps)
	for i := range out {
		out[i] = Op(i)
	}
	return out
}

// Eval applies the operator to two integer values. Division and modulus by
// zero evaluate to 0 rather than faulting: the interpreter must be total so
// that random programs always terminate with a defined result, and the
// transformation must preserve that defined result.
func (o Op) Eval(a, b int64) int64 {
	switch o {
	case Add:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return a * b
	case Div:
		if b == 0 {
			return 0
		}
		return a / b
	case Mod:
		if b == 0 {
			return 0
		}
		return a % b
	case Eq:
		return b2i(a == b)
	case Ne:
		return b2i(a != b)
	case Lt:
		return b2i(a < b)
	case Le:
		return b2i(a <= b)
	case Gt:
		return b2i(a > b)
	case Ge:
		return b2i(a >= b)
	}
	panic(fmt.Sprintf("ir: invalid operator %d", int(o)))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
