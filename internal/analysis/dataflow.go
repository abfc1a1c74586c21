package analysis

import (
	"go/ast"
)

// A forward dataflow solver over the CFG. Facts are string-keyed set
// elements (the lock classes held); the lattice is the powerset with union
// join — a may analysis: a fact holds at a point if it holds on SOME path
// to it, which is lockscope's "possibly held".
//
// Transfer functions run at node granularity inside a block; analyzers get
// the same transfer replayed by Simulate with a visit callback fired before
// each node, so checks observe the exact program-point state the solver
// converged on.

// Facts is a set of dataflow facts.
type Facts map[string]bool

// Clone copies the fact set.
func (f Facts) Clone() Facts {
	out := make(Facts, len(f))
	for k := range f {
		out[k] = true
	}
	return out
}

func (f Facts) equal(g Facts) bool {
	if len(f) != len(g) {
		return false
	}
	for k := range f {
		if !g[k] {
			return false
		}
	}
	return true
}

// FlowSpec configures one dataflow problem. Every fact set starts empty at
// the function entry.
type FlowSpec struct {
	// Transfer updates facts in place for one block node. It must be
	// deterministic and monotone in the facts it consumes.
	Transfer func(f Facts, n ast.Node)
}

// FlowResult carries the converged block-entry fact sets.
type FlowResult struct {
	cfg  *CFG
	spec *FlowSpec
	// In maps each block to its entry facts (before its Nodes).
	In map[*Block]Facts
}

// SolveForward runs the worklist iteration to a fixpoint and returns the
// block-entry facts.
func SolveForward(cfg *CFG, spec *FlowSpec) *FlowResult {
	res := &FlowResult{cfg: cfg, spec: spec, In: make(map[*Block]Facts)}
	out := make(map[*Block]Facts)

	// Worklist seeded with every block in index order (entry first). Blocks
	// with no computed predecessors contribute nothing to a join yet: ∅, the
	// identity of union.
	work := make([]*Block, 0, len(cfg.Blocks))
	inWork := make(map[*Block]bool)
	push := func(b *Block) {
		if !inWork[b] {
			inWork[b] = true
			work = append(work, b)
		}
	}
	for _, b := range cfg.Blocks {
		push(b)
	}

	// Step cap: the framework is monotone for the analyzers shipped here,
	// but a buggy transfer must degrade to partial facts, not hang the lint.
	maxSteps := (len(cfg.Blocks) + 1) * 256
	for steps := 0; len(work) > 0 && steps < maxSteps; steps++ {
		b := work[0]
		work = work[1:]
		inWork[b] = false

		// Join predecessors (a predecessor not yet computed adds nothing).
		in := Facts{}
		for _, p := range b.Preds {
			for k := range out[p] {
				in[k] = true
			}
		}
		res.In[b] = in

		// Transfer through the nodes.
		o := in.Clone()
		if spec.Transfer != nil {
			for _, n := range b.Nodes {
				spec.Transfer(o, n)
			}
		}
		if prev, ok := out[b]; !ok || !prev.equal(o) {
			out[b] = o
			for _, s := range b.Succs {
				push(s)
			}
		}
	}
	return res
}

// Simulate replays the transfer over every block, invoking visit with the
// program-point facts in force immediately before each node. Blocks are
// visited in index (source) order, so diagnostics come out deterministic.
func (r *FlowResult) Simulate(visit func(f Facts, b *Block, n ast.Node)) {
	for _, b := range r.cfg.Blocks {
		in, ok := r.In[b]
		if !ok {
			in = Facts{}
		}
		f := in.Clone()
		for _, n := range b.Nodes {
			visit(f, b, n)
			if r.spec.Transfer != nil {
				r.spec.Transfer(f, n)
			}
		}
	}
}

// inspectPoint walks the sub-AST of one block node in source order, skipping
// the bodies of nested function literals (separate analysis roots). The
// callback still sees the FuncLit node itself — creating the closure is an
// event at this program point even though its body runs elsewhere.
func inspectPoint(n ast.Node, fn func(ast.Node) bool) {
	if r, ok := n.(*ast.RangeStmt); ok {
		// A RangeStmt in a block is the loop-head definition point only: its
		// range expression was placed in the predecessor block and its body
		// statements live in their own blocks — descending here would visit
		// them twice. Only the key/value targets belong to this point.
		if r.Key != nil {
			inspectPoint(r.Key, fn)
		}
		if r.Value != nil {
			inspectPoint(r.Value, fn)
		}
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if x == nil {
			return false
		}
		cont := fn(x)
		if _, ok := x.(*ast.FuncLit); ok && x != n {
			return false
		}
		return cont
	})
}
