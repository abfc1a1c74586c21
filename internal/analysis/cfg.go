package analysis

import (
	"go/ast"
	"go/token"
)

// This file builds intraprocedural control-flow graphs from function bodies.
// The CFG is the substrate for the flow-sensitive lockscope analyzer: where
// the other analyzers see a function as a bag of AST nodes, a CFG-based
// analyzer sees *where in the function* a fact holds — a lock held on one
// branch but not the other.
//
// Design:
//
//   - Blocks hold leaf statements and control-header expressions (an if's
//     init and cond, a for's cond, a switch tag) in source order. Nested
//     control statements never appear inside a block's node list — they are
//     decomposed into blocks and edges.
//   - defer is a plain node: a deferred unlock runs at function exit, so a
//     flow analysis correctly sees the lock held from the acquisition to
//     the end of every path (the defer-unlock-in-loop case falls out: the
//     back edge carries the held lock into the next iteration).
//   - select comm clauses are marked (Block.SelectComm): a receive inside a
//     select is a scheduling choice, not an unbounded wait, and lockscope
//     must not flag it as a blocking channel op.
//   - panic(...) and runtime-terminating calls end a block with an edge to
//     Exit, like return.
//
// goto is supported for labels defined anywhere in the body (forward gotos
// are patched after the build). Unreachable code lands in predecessor-less
// blocks, which the solver seeds with ∅ like any other entry-disconnected
// block.

// Block is one basic block.
type Block struct {
	Index int
	// Nodes are the block's leaf statements and control-header expressions
	// in source order.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
	// SelectComm marks a block holding a select communication clause.
	SelectComm bool
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

type loopFrame struct {
	label        string
	breakTo      *Block
	continueTo   *Block
	switchTarget bool // break applies, continue does not
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block // nil while the current point is unreachable
	loops  []loopFrame
	labels map[string]*Block
	gotos  []struct {
		from  *Block
		label string
	}
}

// BuildCFG constructs the control-flow graph for body. It never fails: any
// construct it cannot model precisely degrades to conservative straight-line
// placement.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: make(map[string]*Block)}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.cfg.Exit)
	}
	// Patch forward gotos now that every label's block exists.
	for _, g := range b.gotos {
		b.edge(g.from, b.labels[g.label])
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// add appends a leaf node to the current block (no-op when unreachable).
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil || n == nil {
		return
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// startDangling opens a fresh predecessor-less block for code following a
// terminator (return/branch), so later statements still have a home.
func (b *cfgBuilder) startDangling() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		if b.cur == nil {
			b.startDangling()
		}
		b.stmt(s, "")
	}
}

// stmt lowers one statement. label is the pending label when the statement
// is the body of a LabeledStmt (so labeled break/continue resolve).
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(x.List)

	case *ast.LabeledStmt:
		// The label targets a fresh block so gotos and labeled branches have
		// a join point.
		target := b.newBlock()
		b.edge(b.cur, target)
		b.cur = target
		b.labels[x.Label.Name] = target
		b.stmt(x.Stmt, x.Label.Name)

	case *ast.IfStmt:
		if x.Init != nil {
			b.stmt(x.Init, "")
		}
		b.add(x.Cond)
		condBlk := b.cur
		thenBlk := b.newBlock()
		b.edge(condBlk, thenBlk)
		var elseBlk *Block
		if x.Else != nil {
			elseBlk = b.newBlock()
			b.edge(condBlk, elseBlk)
		}
		join := b.newBlock()
		if x.Else == nil {
			b.edge(condBlk, join)
		}
		b.cur = thenBlk
		b.stmt(x.Body, "")
		b.edge(b.cur, join)
		if elseBlk != nil {
			b.cur = elseBlk
			b.stmt(x.Else, "")
			b.edge(b.cur, join)
		}
		if len(join.Preds) == 0 {
			b.cur = nil
			return
		}
		b.cur = join

	case *ast.ForStmt:
		if x.Init != nil {
			b.stmt(x.Init, "")
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		if x.Cond != nil {
			head.Nodes = append(head.Nodes, x.Cond)
		}
		bodyBlk := b.newBlock()
		exitBlk := b.newBlock()
		if x.Cond != nil {
			b.edge(head, exitBlk)
		}
		b.edge(head, bodyBlk)
		post := head
		if x.Post != nil {
			post = b.newBlock()
			b.cur = post
			b.stmt(x.Post, "")
			b.edge(b.cur, head)
		}
		b.loops = append(b.loops, loopFrame{label: label, breakTo: exitBlk, continueTo: post})
		b.cur = bodyBlk
		b.stmt(x.Body, "")
		b.edge(b.cur, post)
		b.loops = b.loops[:len(b.loops)-1]
		if x.Cond == nil && len(exitBlk.Preds) == 0 {
			b.cur = nil // `for {}` with no break never falls through
			return
		}
		b.cur = exitBlk

	case *ast.RangeStmt:
		// The range expression is evaluated once, in the current block; the
		// header re-tests per iteration.
		b.add(x.X)
		head := b.newBlock()
		b.edge(b.cur, head)
		head.Nodes = append(head.Nodes, x) // key/value (re)definition point
		bodyBlk := b.newBlock()
		exitBlk := b.newBlock()
		b.edge(head, bodyBlk)
		b.edge(head, exitBlk)
		b.loops = append(b.loops, loopFrame{label: label, breakTo: exitBlk, continueTo: head})
		b.cur = bodyBlk
		b.stmt(x.Body, "")
		b.edge(b.cur, head)
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = exitBlk

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		b.switchStmt(x, label)

	case *ast.SelectStmt:
		join := b.newBlock()
		from := b.cur
		b.loops = append(b.loops, loopFrame{label: label, breakTo: join, switchTarget: true})
		for _, c := range x.Body.List {
			cc := c.(*ast.CommClause)
			clause := b.newBlock()
			clause.SelectComm = true
			b.edge(from, clause)
			b.cur = clause
			if cc.Comm != nil {
				b.stmt(cc.Comm, "")
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, join)
		}
		b.loops = b.loops[:len(b.loops)-1]
		if len(x.Body.List) == 0 {
			b.edge(from, join)
		}
		if len(join.Preds) == 0 {
			b.cur = nil
			return
		}
		b.cur = join

	case *ast.ReturnStmt:
		b.add(x)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		switch x.Tok {
		case token.BREAK:
			if t := b.findLoop(x.Label, true); t != nil {
				b.edge(b.cur, t.breakTo)
			}
			b.cur = nil
		case token.CONTINUE:
			if t := b.findLoop(x.Label, false); t != nil {
				b.edge(b.cur, t.continueTo)
			}
			b.cur = nil
		case token.GOTO:
			if b.cur != nil && x.Label != nil {
				b.gotos = append(b.gotos, struct {
					from  *Block
					label string
				}{b.cur, x.Label.Name})
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled structurally in switchStmt; nothing to do here.
		}

	case *ast.ExprStmt:
		b.add(x)
		if isPanicCall(x.X) {
			b.edge(b.cur, b.cfg.Exit)
			b.cur = nil
		}

	default:
		// Assignments, declarations, sends, defers, go statements, empty
		// statements: leaf nodes.
		b.add(s)
	}
}

// switchStmt lowers expression and type switches, including fallthrough.
func (b *cfgBuilder) switchStmt(s ast.Stmt, label string) {
	var init ast.Stmt
	var header ast.Node
	var clauses []ast.Stmt
	switch x := s.(type) {
	case *ast.SwitchStmt:
		init, header = x.Init, x.Tag
		clauses = x.Body.List
	case *ast.TypeSwitchStmt:
		init, header = x.Init, x.Assign
		clauses = x.Body.List
	}
	if init != nil {
		b.stmt(init, "")
	}
	if header != nil {
		b.add(header)
	}
	from := b.cur
	join := b.newBlock()
	b.loops = append(b.loops, loopFrame{label: label, breakTo: join, switchTarget: true})

	// First pass: create a body block per clause so fallthrough can link to
	// the next clause's body.
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		bodies[i] = b.newBlock()
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(from, bodies[i])
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.cur = bodies[i]
		for _, e := range cc.List {
			b.add(e)
		}
		fellThrough := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				if i+1 < len(bodies) {
					b.edge(b.cur, bodies[i+1])
				}
				fellThrough = true
				b.cur = nil
				break
			}
			if b.cur == nil {
				b.startDangling()
			}
			b.stmt(st, "")
		}
		if !fellThrough {
			b.edge(b.cur, join)
		}
	}
	if !hasDefault {
		b.edge(from, join)
	}
	b.loops = b.loops[:len(b.loops)-1]
	if len(join.Preds) == 0 {
		b.cur = nil
		return
	}
	b.cur = join
}

// findLoop resolves the break/continue target frame. isBreak selects whether
// switch/select frames count.
func (b *cfgBuilder) findLoop(label *ast.Ident, isBreak bool) *loopFrame {
	for i := len(b.loops) - 1; i >= 0; i-- {
		f := &b.loops[i]
		if !isBreak && f.switchTarget {
			continue
		}
		if label == nil || f.label == label.Name {
			return f
		}
	}
	return nil
}

func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
