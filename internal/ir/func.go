package ir

import (
	"fmt"
	"sort"
	"strconv"
)

// Function is a procedure: an ordered list of basic blocks. Blocks[0] is
// the entry block. Params are the variables defined on entry; all other
// variables are local and start undefined (reading one before writing it is
// a validation error caught by Validate's definite-assignment check only in
// tests that ask for it; the interpreter treats undefined reads as zero for
// totality).
type Function struct {
	Name   string
	Params []string
	Blocks []*Block
}

// Entry returns the entry block.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		panic("ir: function has no blocks")
	}
	return f.Blocks[0]
}

// NumBlocks returns the number of blocks.
func (f *Function) NumBlocks() int { return len(f.Blocks) }

// Recompute renumbers blocks with dense IDs in Blocks order and rebuilds
// predecessor lists. Call it after any structural mutation.
//
// Each list holds one entry per edge, in Blocks and successor order. A
// list keeps its backing array when that is large enough; the lists that
// need more room share one new array. A target outside the function (a
// state Validate reports) gets its entry appended to its own list.
func (f *Function) Recompute() {
	need := make([]int32, len(f.Blocks))
	for i, b := range f.Blocks {
		b.ID = i
		b.preds = b.preds[:0]
	}
	for _, b := range f.Blocks {
		for i, n := 0, b.NumSuccs(); i < n; i++ {
			if s := b.Succ(i); f.owns(s) {
				need[s.ID]++
			}
		}
	}
	short := 0
	for i, b := range f.Blocks {
		if n := int(need[i]); n > cap(b.preds) {
			short += n
		}
	}
	if short > 0 {
		spare := make([]*Block, short)
		for i, b := range f.Blocks {
			if n := int(need[i]); n > cap(b.preds) {
				b.preds, spare = spare[:0:n], spare[n:]
			}
		}
	}
	for _, b := range f.Blocks {
		for i, n := 0, b.NumSuccs(); i < n; i++ {
			s := b.Succ(i)
			s.preds = append(s.preds, b)
		}
	}
}

// owns reports whether b is one of f's blocks, once Recompute has
// numbered them.
func (f *Function) owns(b *Block) bool {
	return b != nil && b.ID >= 0 && b.ID < len(f.Blocks) && f.Blocks[b.ID] == b
}

// BlockByName returns the block with the given name, or nil.
func (f *Function) BlockByName(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// AddBlock appends a block with the given name and returns it. The caller
// must Recompute after wiring its edges.
func (f *Function) AddBlock(name string) *Block {
	b := &Block{Name: name, ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// FreshBlockName returns a block name with the given prefix that is not yet
// used in the function.
func (f *Function) FreshBlockName(prefix string) string {
	return f.BlockNamer().Fresh(prefix)
}

// BlockNamer hands out block names that are not yet taken: the names of
// the function it was made from, and every name it has returned. Naming
// several new blocks through one namer builds the set of taken names once.
type BlockNamer map[string]bool

// BlockNamer returns a namer over the function's current block names.
func (f *Function) BlockNamer() BlockNamer {
	n := make(BlockNamer, len(f.Blocks))
	for _, b := range f.Blocks {
		n[b.Name] = true
	}
	return n
}

// Fresh returns prefix if it is not taken, else prefix followed by the
// smallest positive integer that makes it so, and marks the name taken.
func (n BlockNamer) Fresh(prefix string) string {
	name := prefix
	if n[name] {
		buf := []byte(prefix)
		for i := int64(1); ; i++ {
			buf = strconv.AppendInt(buf[:len(prefix)], i, 10)
			if !n[string(buf)] {
				break
			}
		}
		name = string(buf)
	}
	n[name] = true
	return name
}

// FreshVarName returns a variable name with the given prefix that is not
// read or written anywhere in the function.
func (f *Function) FreshVarName(prefix string) string {
	used := make(map[string]bool)
	for _, p := range f.Params {
		used[p] = true
	}
	var scratch []string
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if d := in.Defs(); d != "" {
				used[d] = true
			}
			scratch = in.UsedVars(scratch[:0])
			for _, v := range scratch {
				used[v] = true
			}
		}
		scratch = b.Term.UsedVars(scratch[:0])
		for _, v := range scratch {
			used[v] = true
		}
	}
	if !used[prefix] {
		return prefix
	}
	for i := 1; ; i++ {
		n := fmt.Sprintf("%s%d", prefix, i)
		if !used[n] {
			return n
		}
	}
}

// Vars returns every variable the function mentions (params, defs, uses) in
// sorted order.
func (f *Function) Vars() []string {
	set := make(map[string]bool)
	for _, p := range f.Params {
		set[p] = true
	}
	var scratch []string
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if d := in.Defs(); d != "" {
				set[d] = true
			}
			scratch = in.UsedVars(scratch[:0])
			for _, v := range scratch {
				set[v] = true
			}
		}
		scratch = b.Term.UsedVars(scratch[:0])
		for _, v := range scratch {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// NumInstrs returns the total statement count across all blocks,
// terminators excluded.
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Clone returns a deep copy of the function. The copy shares no mutable
// state with the original and has fresh predecessor lists.
func (f *Function) Clone() *Function {
	g := &Function{Name: f.Name, Params: append([]string(nil), f.Params...)}
	m := make(map[*Block]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		nb := &Block{Name: b.Name, ID: b.ID, Instrs: append([]Instr(nil), b.Instrs...)}
		g.Blocks = append(g.Blocks, nb)
		m[b] = nb
	}
	for _, b := range f.Blocks {
		nb := m[b]
		nb.Term = b.Term
		if b.Term.Then != nil {
			nb.Term.Then = m[b.Term.Then]
		}
		if b.Term.Else != nil {
			nb.Term.Else = m[b.Term.Else]
		}
	}
	g.Recompute()
	return g
}

// AppendText appends the function in the textual IR syntax accepted by
// the textir parser to dst and returns the extended buffer, so printing
// and parsing round-trip. The function cache keys on these bytes: a
// change to any of them is a change of every key.
func (f *Function) AppendText(dst []byte) []byte {
	dst = append(append(dst, "func "...), f.Name...)
	dst = append(dst, '(')
	for i, p := range f.Params {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, p...)
	}
	dst = append(dst, ") {\n"...)
	for _, b := range f.Blocks {
		dst = append(append(dst, b.Name...), ":\n"...)
		for i := range b.Instrs {
			dst = append(appendInstr(append(dst, "  "...), &b.Instrs[i]), '\n')
		}
		dst = append(appendTerm(append(dst, "  "...), &b.Term), '\n')
	}
	return append(dst, "}\n"...)
}

// String renders the function as AppendText does.
func (f *Function) String() string {
	// Size the buffer for 16 bytes a statement, half again a typical
	// one, so that the print rarely has to grow it.
	n := 16 + len(f.Name) + 8*len(f.Params)
	for _, b := range f.Blocks {
		n += len(b.Name) + 2 + 16*(len(b.Instrs)+1)
	}
	return string(f.AppendText(make([]byte, 0, n)))
}
