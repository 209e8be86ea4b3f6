// Package graph provides control-flow-graph algorithms over ir.Function:
// traversal orders, dominators, natural loops, critical-edge splitting, and
// DOT export. These are the substrate the data-flow engine and the
// experiment harness are built on.
package graph

import "lazycm/internal/ir"

// Postorder returns the blocks of f in a depth-first postorder starting at
// entry. Successors are visited in terminator order, so the result is
// deterministic. Unreachable blocks (which Validate rejects anyway) are
// omitted.
func Postorder(f *ir.Function) []*ir.Block {
	seen := make([]bool, f.NumBlocks())
	out := make([]*ir.Block, 0, f.NumBlocks())

	// Iterative DFS with an explicit frame stack so deep CFGs cannot
	// overflow the goroutine stack.
	type frame struct {
		b *ir.Block
		i int
	}
	stack := []frame{{b: f.Entry()}}
	seen[f.Entry().ID] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.i < fr.b.NumSuccs() {
			s := fr.b.Succ(fr.i)
			fr.i++
			if !seen[s.ID] {
				seen[s.ID] = true
				stack = append(stack, frame{b: s})
			}
			continue
		}
		out = append(out, fr.b)
		stack = stack[:len(stack)-1]
	}
	return out
}

// ReversePostorder returns the blocks of f in reverse postorder, the
// canonical iteration order for forward data-flow problems.
func ReversePostorder(f *ir.Function) []*ir.Block {
	po := Postorder(f)
	for i, j := 0, len(po)-1; i < j; i, j = i+1, j-1 {
		po[i], po[j] = po[j], po[i]
	}
	return po
}

// RPONumbers returns rpo[blockID] = position of the block in reverse
// postorder.
func RPONumbers(f *ir.Function) []int {
	rpo := ReversePostorder(f)
	num := make([]int, f.NumBlocks())
	for i, b := range rpo {
		num[b.ID] = i
	}
	return num
}

// ExitBlocks returns the blocks whose terminator is a return, in function
// order.
func ExitBlocks(f *ir.Function) []*ir.Block {
	var out []*ir.Block
	for _, b := range f.Blocks {
		if b.Term.Kind == ir.Ret {
			out = append(out, b)
		}
	}
	return out
}

// Edge identifies a CFG edge as (source block, successor slot).
type Edge struct {
	From *ir.Block
	// Index is the successor slot in From's terminator (0 for Jump/Then,
	// 1 for Else).
	Index int
}

// To returns the edge's destination block.
func (e Edge) To() *ir.Block { return e.From.Succ(e.Index) }

// Edges returns all CFG edges of f in deterministic (block, slot) order.
func Edges(f *ir.Function) []Edge {
	var out []Edge
	for _, b := range f.Blocks {
		for i, n := 0, b.NumSuccs(); i < n; i++ {
			out = append(out, Edge{From: b, Index: i})
		}
	}
	return out
}

// IsCritical reports whether the edge leaves a block with several
// successors and enters a block with several predecessors. Code cannot be
// placed on such an edge without a synthetic block.
func IsCritical(e Edge) bool {
	return e.From.NumSuccs() > 1 && len(e.To().Preds()) > 1
}

// CriticalEdges returns the critical edges of f.
func CriticalEdges(f *ir.Function) []Edge {
	var out []Edge
	for _, e := range Edges(f) {
		if IsCritical(e) {
			out = append(out, e)
		}
	}
	return out
}

// SplitCriticalEdges inserts an empty block on every critical edge of f,
// recomputes CFG metadata, and returns the number of edges split. Split
// blocks are named "<from>.<to>.split" (made fresh if taken). This realizes
// the paper's assumption that synthetic nodes exist on all critical edges,
// so that insertions on an edge never execute on other paths.
func SplitCriticalEdges(f *ir.Function) int {
	crit := CriticalEdges(f)
	var names ir.BlockNamer
	if len(crit) > 0 {
		names = f.BlockNamer()
	}
	for _, e := range crit {
		to := e.To()
		nb := f.AddBlock(names.Fresh(e.From.Name + "." + to.Name + ".split"))
		nb.Term = ir.Terminator{Kind: ir.Jump, Then: to}
		e.From.SetSucc(e.Index, nb)
	}
	f.Recompute()
	return len(crit)
}
