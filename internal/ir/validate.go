package ir

import "fmt"

// Validate checks structural well-formedness:
//
//   - the function has at least one block and unique block names;
//   - every terminator target is a block of this function;
//   - block IDs are dense and match Blocks order (Recompute has run);
//   - every block is reachable from entry, and from every reachable block
//     some Ret is reachable (the paper's model requires every node to lie on
//     a path from entry to exit);
//   - variable and block names are non-empty, instruction fields are
//     consistent with their kinds.
func (f *Function) Validate() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("ir: function %s has no blocks", f.Name)
	}
	names := make(map[string]bool, len(f.Blocks))
	for i, b := range f.Blocks {
		if b == nil {
			return fmt.Errorf("ir: function %s has nil block at %d", f.Name, i)
		}
		if b.Name == "" {
			return fmt.Errorf("ir: function %s has unnamed block at %d", f.Name, i)
		}
		if names[b.Name] {
			return fmt.Errorf("ir: function %s has duplicate block %q", f.Name, b.Name)
		}
		names[b.Name] = true
		if b.ID != i {
			return fmt.Errorf("ir: function %s block %q has stale ID %d (want %d); call Recompute", f.Name, b.Name, b.ID, i)
		}
	}
	for _, p := range f.Params {
		if p == "" {
			return fmt.Errorf("ir: function %s has empty parameter name", f.Name)
		}
	}
	for _, b := range f.Blocks {
		for j := range b.Instrs {
			if err := validateInstr(&b.Instrs[j]); err != nil {
				return fmt.Errorf("ir: %s.%s[%d]: %w", f.Name, b.Name, j, err)
			}
		}
		// The IDs are dense now, so f.owns is membership in Blocks.
		switch b.Term.Kind {
		case Jump:
			if !f.owns(b.Term.Then) {
				return fmt.Errorf("ir: %s.%s jumps outside function", f.Name, b.Name)
			}
		case Branch:
			if !f.owns(b.Term.Then) || !f.owns(b.Term.Else) {
				return fmt.Errorf("ir: %s.%s branches outside function", f.Name, b.Name)
			}
		case Ret:
		default:
			return fmt.Errorf("ir: %s.%s has invalid terminator kind %d", f.Name, b.Name, int(b.Term.Kind))
		}
	}

	// Reachability from entry.
	reach := make([]bool, len(f.Blocks))
	var stack []*Block
	push := func(b *Block) {
		if !reach[b.ID] {
			reach[b.ID] = true
			stack = append(stack, b)
		}
	}
	push(f.Entry())
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i, n := 0, b.NumSuccs(); i < n; i++ {
			push(b.Succ(i))
		}
	}
	for _, b := range f.Blocks {
		if !reach[b.ID] {
			return fmt.Errorf("ir: %s.%s is unreachable from entry", f.Name, b.Name)
		}
	}

	// Co-reachability: a Ret must be reachable from every block. Compute
	// the set of blocks that reach a Ret by reverse flooding.
	coreach := make([]bool, len(f.Blocks))
	stack = stack[:0]
	for _, b := range f.Blocks {
		if b.Term.Kind == Ret {
			coreach[b.ID] = true
			stack = append(stack, b)
		}
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range b.Preds() {
			if !coreach[p.ID] {
				coreach[p.ID] = true
				stack = append(stack, p)
			}
		}
	}
	for _, b := range f.Blocks {
		if !coreach[b.ID] {
			return fmt.Errorf("ir: %s.%s cannot reach any return", f.Name, b.Name)
		}
	}
	return nil
}

// Validate is the invariant checker the hardened pipeline runs between
// passes. It performs every check of (*Function).Validate and additionally
// cross-checks the cached predecessor lists against the actual terminator
// edges — the stale state left behind when a pass mutates the CFG and
// forgets to call Recompute. Keeping the stricter check out of the method
// lets builders validate half-wired functions; the pipeline always demands
// full consistency.
func Validate(f *Function) error {
	if f == nil {
		return fmt.Errorf("ir: nil function")
	}
	if err := f.Validate(); err != nil {
		return err
	}
	// Recount edges: every successor edge must appear exactly once in the
	// target's predecessor list, and no predecessor list may hold an edge
	// that no terminator justifies.
	want := make(map[[2]int]int) // (pred ID, succ ID) -> multiplicity
	for _, b := range f.Blocks {
		for i, n := 0, b.NumSuccs(); i < n; i++ {
			want[[2]int{b.ID, b.Succ(i).ID}]++
		}
	}
	got := make(map[[2]int]int, len(want))
	for _, b := range f.Blocks {
		for _, p := range b.Preds() {
			if p == nil {
				return fmt.Errorf("ir: %s.%s has nil predecessor entry", f.Name, b.Name)
			}
			got[[2]int{p.ID, b.ID}]++
		}
	}
	for e, n := range want {
		if got[e] != n {
			return fmt.Errorf("ir: %s: edge %s->%s appears %d times in terminators but %d times in predecessor lists; call Recompute",
				f.Name, f.Blocks[e[0]].Name, f.Blocks[e[1]].Name, n, got[e])
		}
	}
	for e, n := range got {
		if want[e] != n {
			return fmt.Errorf("ir: %s: predecessor list of %s claims %d edges from %s but terminators provide %d; call Recompute",
				f.Name, f.Blocks[e[1]].Name, n, f.Blocks[e[0]].Name, want[e])
		}
	}
	return nil
}

func validateInstr(in *Instr) error {
	switch in.Kind {
	case BinOp:
		if in.Dst == "" {
			return fmt.Errorf("binop with empty destination")
		}
		if !in.Op.Valid() {
			return fmt.Errorf("binop with invalid operator %d", int(in.Op))
		}
	case Copy:
		if in.Dst == "" {
			return fmt.Errorf("copy with empty destination")
		}
	case Print, Nop:
	default:
		return fmt.Errorf("invalid instruction kind %d", int(in.Kind))
	}
	return nil
}
