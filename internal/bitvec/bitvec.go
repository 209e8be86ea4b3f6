// Package bitvec provides dense, fixed-length bit vectors and the word-level
// operations the data-flow analyses in this module are built on.
//
// A Vector represents a subset of {0, …, Len()-1}. All binary operations
// require both operands to have the same length; mixing lengths is a
// programming error and panics. Operations that write a result take the
// receiver as the destination so that solvers can update state in place
// without allocating, and they report whether the destination changed,
// which is what iterative fixpoint solvers need to drive their worklists.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const (
	wordBits = 64
	wordMask = wordBits - 1
	wordLog  = 6
)

// Vector is a fixed-length bit vector. The zero value is an empty vector of
// length 0; use New to create vectors of a given length.
type Vector struct {
	n     int
	words []uint64
}

// New returns a zeroed vector of length n. New panics if n is negative.
func New(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return &Vector{n: n, words: make([]uint64, (n+wordMask)>>wordLog)}
}

// FromIndices returns a vector of length n with exactly the given bits set.
func FromIndices(n int, indices ...int) *Vector {
	v := New(n)
	for _, i := range indices {
		v.Set(i)
	}
	return v
}

// Len returns the length of the vector in bits.
func (v *Vector) Len() int { return v.n }

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

func (v *Vector) checkSame(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i>>wordLog]&(1<<(uint(i)&wordMask)) != 0
}

// Set sets bit i.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i>>wordLog] |= 1 << (uint(i) & wordMask)
}

// Clear clears bit i.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i>>wordLog] &^= 1 << (uint(i) & wordMask)
}

// SetBool sets bit i to b.
func (v *Vector) SetBool(i int, b bool) {
	if b {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

// SetAll sets every bit.
func (v *Vector) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
}

// ClearAll clears every bit.
func (v *Vector) ClearAll() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// trim zeroes the bits beyond Len in the last word, preserving the
// invariant that unused high bits are always zero.
func (v *Vector) trim() {
	if extra := v.n & wordMask; extra != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << uint(extra)) - 1
	}
}

// Copy returns an independent copy of v.
func (v *Vector) Copy() *Vector {
	w := &Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// CopyFrom overwrites v with o and reports whether v changed.
func (v *Vector) CopyFrom(o *Vector) bool {
	v.checkSame(o)
	changed := false
	for i, w := range o.words {
		if v.words[i] != w {
			changed = true
			v.words[i] = w
		}
	}
	return changed
}

// Equal reports whether v and o contain exactly the same bits.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// IsEmpty reports whether no bit is set.
func (v *Vector) IsEmpty() bool {
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// And sets v = v ∧ o and reports whether v changed.
func (v *Vector) And(o *Vector) bool {
	v.checkSame(o)
	changed := false
	for i, w := range o.words {
		nw := v.words[i] & w
		if nw != v.words[i] {
			changed = true
			v.words[i] = nw
		}
	}
	return changed
}

// Or sets v = v ∨ o and reports whether v changed.
func (v *Vector) Or(o *Vector) bool {
	v.checkSame(o)
	changed := false
	for i, w := range o.words {
		nw := v.words[i] | w
		if nw != v.words[i] {
			changed = true
			v.words[i] = nw
		}
	}
	return changed
}

// AndNot sets v = v ∧ ¬o and reports whether v changed.
func (v *Vector) AndNot(o *Vector) bool {
	v.checkSame(o)
	changed := false
	for i, w := range o.words {
		nw := v.words[i] &^ w
		if nw != v.words[i] {
			changed = true
			v.words[i] = nw
		}
	}
	return changed
}

// Not sets v = ¬v (complement within the vector's length).
func (v *Vector) Not() {
	for i := range v.words {
		v.words[i] = ^v.words[i]
	}
	v.trim()
}

// Intersects reports whether v ∧ o is nonempty.
func (v *Vector) Intersects(o *Vector) bool {
	v.checkSame(o)
	for i, w := range o.words {
		if v.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every bit of v is also set in o.
func (v *Vector) SubsetOf(o *Vector) bool {
	v.checkSame(o)
	for i, w := range o.words {
		if v.words[i]&^w != 0 {
			return false
		}
	}
	return true
}

// ForEach calls f for every set bit, in increasing order.
func (v *Vector) ForEach(f func(i int)) {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi<<wordLog + b)
			w &= w - 1
		}
	}
}

// Indices returns the set bits in increasing order.
func (v *Vector) Indices() []int {
	out := make([]int, 0, v.Count())
	v.ForEach(func(i int) { out = append(out, i) })
	return out
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// there is none.
func (v *Vector) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return -1
	}
	wi := i >> wordLog
	w := v.words[wi] >> (uint(i) & wordMask)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi<<wordLog + bits.TrailingZeros64(v.words[wi])
		}
	}
	return -1
}

// String renders the vector as a set, e.g. "{0, 3, 17}".
func (v *Vector) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	v.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}

// BitString renders the vector as a 0/1 string, bit 0 first, e.g. "1010".
func (v *Vector) BitString() string {
	var b strings.Builder
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
