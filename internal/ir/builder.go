package ir

import "fmt"

// Builder constructs functions programmatically. Blocks are referred to by
// name; terminator targets are resolved when Finish is called, so blocks may
// be targeted before they are declared. The first block declared is the
// entry block.
type Builder struct {
	fn   *Function
	cur  *Block
	errs []error
	// blocks indexes the declared blocks by name.
	blocks map[string]*Block
	// terms holds each block's terminator state, indexed by block ID.
	terms []termState
	// filling is the block that was started last. Blocks share chunks
	// of statements: the rest of a chunk is filling's spare capacity, so
	// adding to it appends in place.
	filling *Block
	// chunkLen is the length of the last chunk allocated.
	chunkLen int
}

// maxChunk bounds a statement chunk's length; chunks double up to it, so a
// function wastes at most one chunk's tail.
const maxChunk = 256

// termState is one block's terminator state: whether it has one, and the
// target names it still has to resolve.
type termState struct {
	set       bool
	then, els string
}

// NewBuilder starts a function with the given name and parameters.
func NewBuilder(name string, params ...string) *Builder {
	return &Builder{
		fn:     &Function{Name: name, Params: params},
		blocks: make(map[string]*Block),
	}
}

func (bd *Builder) errorf(format string, args ...any) {
	bd.errs = append(bd.errs, fmt.Errorf("builder %s: "+format, append([]any{bd.fn.Name}, args...)...))
}

// Block starts (or resumes) the block with the given name and makes it
// current. Declaring the same name twice is an error unless the block has
// no terminator yet.
func (bd *Builder) Block(name string) *Builder {
	b := bd.blocks[name]
	switch {
	case b == nil:
		b = bd.fn.AddBlock(name)
		bd.blocks[name] = b
		bd.terms = append(bd.terms, termState{})
	case bd.terms[b.ID].set:
		bd.errorf("block %q declared twice", name)
	}
	bd.cur = b
	return bd
}

func (bd *Builder) need() *Block {
	if bd.cur == nil {
		bd.errorf("statement before any block")
		bd.Block("entry")
	}
	if bd.terms[bd.cur.ID].set {
		bd.errorf("statement after terminator in block %q", bd.cur.Name)
	}
	return bd.cur
}

// add appends in to the current block. A block's first statement starts
// it in the spare capacity of the block filled before it, which is capped
// at its own statements, or in a new chunk. From there a block grows as
// any slice does.
func (bd *Builder) add(in Instr) *Builder {
	b := bd.need()
	if len(b.Instrs) == 0 {
		var rest []Instr
		if f := bd.filling; f != nil {
			rest = f.Instrs[len(f.Instrs):]
			f.Instrs = f.Instrs[:len(f.Instrs):len(f.Instrs)]
		}
		if cap(rest) == 0 {
			bd.chunkLen = min(max(2*bd.chunkLen, 16), maxChunk)
			rest = make([]Instr, 0, bd.chunkLen)
		}
		b.Instrs, bd.filling = rest, b
	}
	b.Instrs = append(b.Instrs, in)
	return bd
}

// BinOp appends dst = a op b to the current block.
func (bd *Builder) BinOp(dst string, op Op, a, b Operand) *Builder {
	return bd.add(NewBinOp(dst, op, a, b))
}

// Copy appends dst = src to the current block.
func (bd *Builder) Copy(dst string, src Operand) *Builder {
	return bd.add(NewCopy(dst, src))
}

// Print appends print v to the current block.
func (bd *Builder) Print(v Operand) *Builder { return bd.add(NewPrint(v)) }

// Nop appends a no-op to the current block.
func (bd *Builder) Nop() *Builder { return bd.add(NewNop()) }

func (bd *Builder) setTerm(t Terminator, then, els string) {
	b := bd.need()
	st := &bd.terms[b.ID]
	if bd.errs != nil && st.set {
		return
	}
	b.Term = t
	st.set, st.then, st.els = true, then, els
	bd.cur = nil
}

// Jump ends the current block with jmp target.
func (bd *Builder) Jump(target string) *Builder {
	bd.setTerm(Terminator{Kind: Jump}, target, "")
	return bd
}

// Branch ends the current block with br cond then else.
func (bd *Builder) Branch(cond Operand, then, els string) *Builder {
	bd.setTerm(Terminator{Kind: Branch, Cond: cond}, then, els)
	return bd
}

// Ret ends the current block with ret v.
func (bd *Builder) Ret(v Operand) *Builder {
	bd.setTerm(Terminator{Kind: Ret, HasVal: true, Val: v}, "", "")
	return bd
}

// RetVoid ends the current block with a bare ret.
func (bd *Builder) RetVoid() *Builder {
	bd.setTerm(Terminator{Kind: Ret}, "", "")
	return bd
}

// Finish resolves targets, recomputes CFG metadata, validates, and returns
// the function. It returns an error if construction or validation failed.
// Targets resolve in block order, so of several undefined targets the
// first in block order is the one reported.
func (bd *Builder) Finish() (*Function, error) {
	for _, b := range bd.fn.Blocks {
		st := bd.terms[b.ID]
		if !st.set {
			continue
		}
		switch b.Term.Kind {
		case Jump:
			t := bd.blocks[st.then]
			if t == nil {
				bd.errorf("block %q jumps to undefined block %q", b.Name, st.then)
				continue
			}
			b.Term.Then = t
		case Branch:
			t, e := bd.blocks[st.then], bd.blocks[st.els]
			if t == nil || e == nil {
				bd.errorf("block %q branches to undefined block", b.Name)
				continue
			}
			b.Term.Then, b.Term.Else = t, e
		}
	}
	for _, b := range bd.fn.Blocks {
		if !bd.terms[b.ID].set {
			bd.errorf("block %q has no terminator", b.Name)
		}
	}
	if len(bd.errs) > 0 {
		return nil, bd.errs[0]
	}
	bd.fn.Recompute()
	if err := bd.fn.Validate(); err != nil {
		return nil, err
	}
	return bd.fn, nil
}

// MustFinish is Finish that panics on error; for tests and examples.
func (bd *Builder) MustFinish() *Function {
	f, err := bd.Finish()
	if err != nil {
		panic(err)
	}
	return f
}
