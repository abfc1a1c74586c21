package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// parseBody parses src as the body of func f and returns its CFG and the
// file set for rendering nodes.
func parseBody(t *testing.T, src string) (*CFG, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", "package p\nfunc f() {\n"+src+"\n}\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	return BuildCFG(file.Decls[0].(*ast.FuncDecl).Body), fset
}

// blockOf returns the block holding the node that renders as text.
func blockOf(t *testing.T, cfg *CFG, fset *token.FileSet, text string) *Block {
	t.Helper()
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if e, ok := n.(ast.Expr); ok && exprString(fset, e) == text {
				return b
			}
			if s, ok := n.(*ast.ExprStmt); ok && exprString(fset, s.X) == text {
				return b
			}
		}
	}
	t.Fatalf("no block holds %q", text)
	return nil
}

// reaches reports whether to is reachable from from along successor edges.
func reaches(from, to *Block) bool {
	seen := map[*Block]bool{}
	stack := []*Block{from}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == to {
			return true
		}
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, b.Succs...)
	}
	return false
}

func linked(from, to *Block) bool {
	for _, s := range from.Succs {
		if s == to {
			return true
		}
	}
	return false
}

func TestBuildCFGLoops(t *testing.T) {
	cfg, fset := parseBody(t, `
	before()
	for i := 0; i < n; i++ {
		inFor()
	}
	for _, x := range xs {
		inRange(x)
	}
	after()`)
	inFor := blockOf(t, cfg, fset, "inFor()")
	inRange := blockOf(t, cfg, fset, "inRange(x)")
	after := blockOf(t, cfg, fset, "after()")
	if !reaches(inFor, inFor) {
		t.Error("for body has no back edge to itself")
	}
	if !reaches(inRange, inRange) {
		t.Error("range body has no back edge to itself")
	}
	if !reaches(inFor, inRange) || !reaches(inRange, after) || !reaches(after, cfg.Exit) {
		t.Error("loops do not fall through in source order to the exit")
	}
	if !reaches(cfg.Entry, after) {
		t.Error("code after the loops is unreachable")
	}
}

func TestBuildCFGSwitchAndSelect(t *testing.T) {
	cfg, fset := parseBody(t, `
	switch v {
	case 1:
		one()
		fallthrough
	case 2:
		two()
	}
	select {
	case <-a:
		gotA()
	case b <- 1:
		sentB()
	}
	done()`)
	one, two := blockOf(t, cfg, fset, "one()"), blockOf(t, cfg, fset, "two()")
	if !linked(one, two) {
		t.Error("fallthrough does not link case 1's body to case 2's")
	}
	done := blockOf(t, cfg, fset, "done()")
	sw := blockOf(t, cfg, fset, "v")
	gotA, sentB := blockOf(t, cfg, fset, "gotA()"), blockOf(t, cfg, fset, "sentB()")
	// No default clause: the switch can skip every case and reach the select.
	if !reaches(sw, gotA) || !reaches(sw, sentB) {
		t.Error("select clauses unreachable from the switch")
	}
	if !gotA.SelectComm || !sentB.SelectComm {
		t.Error("select clause blocks not marked SelectComm")
	}
	if one.SelectComm || done.SelectComm {
		t.Error("non-select blocks marked SelectComm")
	}
	if !reaches(gotA, done) || !reaches(sentB, done) {
		t.Error("select clauses do not join before done()")
	}
}

func TestBuildCFGBranches(t *testing.T) {
	cfg, fset := parseBody(t, `
outer:
	for {
		for {
			if c {
				break outer
			}
			if d {
				continue outer
			}
			inner()
		}
	}
	goto end
	skipped()
end:
	last()
	return
	dead()`)
	inner, last := blockOf(t, cfg, fset, "inner()"), blockOf(t, cfg, fset, "last()")
	if !reaches(inner, last) {
		t.Error("labelled break does not leave both loops")
	}
	skipped := blockOf(t, cfg, fset, "skipped()")
	if len(skipped.Preds) != 0 {
		t.Errorf("code after goto has %d predecessors, want 0", len(skipped.Preds))
	}
	if !reaches(cfg.Entry, last) {
		t.Error("goto target unreachable from entry")
	}
	if reaches(cfg.Entry, skipped) {
		t.Error("code jumped over by goto is reachable")
	}
	dead := blockOf(t, cfg, fset, "dead()")
	if len(dead.Preds) != 0 || reaches(cfg.Entry, dead) {
		t.Error("code after return is reachable")
	}
	if !linked(last, cfg.Exit) {
		t.Error("return does not edge to exit")
	}
	// continue outer re-enters the outer loop, which re-enters the inner.
	if !reaches(blockOf(t, cfg, fset, "d"), inner) {
		t.Error("labelled continue does not return to the loops")
	}
}

// lockFacts is lockscope's transfer, reduced to syntax: mu.Lock() adds
// "held", mu.Unlock() removes it, a deferred call is not a release.
func lockFacts(fset *token.FileSet) *FlowSpec {
	return &FlowSpec{Transfer: func(f Facts, n ast.Node) {
		if _, ok := n.(*ast.DeferStmt); ok {
			return
		}
		inspectPoint(n, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				switch exprString(fset, call.Fun) {
				case "mu.Lock":
					f["held"] = true
				case "mu.Unlock":
					delete(f, "held")
				}
			}
			return true
		})
	}}
}

// factsAt replays the solved facts and returns those in force just before
// the node rendering as text.
func factsAt(t *testing.T, res *FlowResult, fset *token.FileSet, text string) []string {
	t.Helper()
	var got []string
	found := false
	res.Simulate(func(f Facts, _ *Block, n ast.Node) {
		s, ok := n.(*ast.ExprStmt)
		if !ok || exprString(fset, s.X) != text {
			return
		}
		found = true
		for k := range f {
			got = append(got, k)
		}
		sort.Strings(got)
	})
	if !found {
		t.Fatalf("no node %q", text)
	}
	return got
}

func TestDeferUnlockInLoopCarriesLock(t *testing.T) {
	cfg, fset := parseBody(t, `
	for _, x := range xs {
		top(x)
		mu.Lock()
		defer mu.Unlock()
		work(x)
	}
	after()`)
	res := SolveForward(cfg, lockFacts(fset))
	for _, at := range []string{"top(x)", "work(x)", "after()"} {
		if got := factsAt(t, res, fset, at); strings.Join(got, ",") != "held" {
			t.Errorf("facts before %s = %v, want [held]: the deferred unlock runs at exit, so the lock crosses the back edge", at, got)
		}
	}

	// An explicit unlock in the body releases before the back edge.
	cfg, fset = parseBody(t, `
	for _, x := range xs {
		top(x)
		mu.Lock()
		work(x)
		mu.Unlock()
	}
	after()`)
	res = SolveForward(cfg, lockFacts(fset))
	if got := factsAt(t, res, fset, "top(x)"); len(got) != 0 {
		t.Errorf("facts at loop top = %v, want none", got)
	}
	if got := factsAt(t, res, fset, "work(x)"); strings.Join(got, ",") != "held" {
		t.Errorf("facts before work(x) = %v, want [held]", got)
	}
}

// TestSolveForwardMayFixpoint checks the union join on a loop: a fact
// generated late in the body, on one branch only, must reach the loop head
// through the back edge and everything after the loop.
func TestSolveForwardMayFixpoint(t *testing.T) {
	cfg, fset := parseBody(t, `
	a()
	for cond() {
		head()
		if c {
			b()
		}
		mid()
		if d {
			e()
		}
	}
	z()`)
	spec := &FlowSpec{
		Transfer: func(f Facts, n ast.Node) {
			if s, ok := n.(*ast.ExprStmt); ok {
				f[exprString(fset, s.X)] = true
			}
		},
	}
	res := SolveForward(cfg, spec)
	for at, want := range map[string]string{
		"head()": "a(),b(),e(),head(),mid()",
		"mid()":  "a(),b(),e(),head(),mid()",
		"z()":    "a(),b(),e(),head(),mid()",
	} {
		if got := strings.Join(factsAt(t, res, fset, at), ","); got != want {
			t.Errorf("facts before %s = %s, want %s", at, got, want)
		}
	}
}
