// Package analysis is the static-analysis counterpart of the engine's
// runtime gates: a small suite of whole-program analyzers that enforce, at
// lint time, the contracts every pluggable component must obey — the
// allocation-free commit hot path (bench/alloc_test.go checks it at
// runtime; the hotpath analyzer proves it over the call graph), the
// bounded-wait contract from the overload work (every blocking site
// deadline-aware or explicitly audited), typed abort classes, a
// cycle-free lock-acquisition order, bounded critical sections, and fresh
// suppressions. An analyzer stays in the suite only while it catches a bug
// class no test or build gate catches (EXPERIMENTS.md, "Static analysis
// methodology", keeps the mutation table that shows which).
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer / Pass / Diagnostic) but is built on the standard
// library alone: packages are enumerated with `go list -export -deps`,
// parsed with go/parser, and type-checked with go/types against the gc
// export data the toolchain already produced. That keeps the module free
// of third-party dependencies while remaining a drop-in conceptual match
// for go/analysis should the x/tools dependency ever be vendored; only
// the `go vet -vettool` unitchecker protocol is out of scope (it requires
// x/tools). Unlike go/analysis, a Pass here sees the whole program, not
// one package: the hot-path and lock-order contracts are transitive
// properties of the in-module call graph and cannot be checked
// package-by-package without a facts store.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check over a loaded Program.
type Analyzer struct {
	// Name is the canonical analyzer name (e.g. "hotpath").
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// SuppressVerb is the //next700: directive verb that silences this
	// analyzer's findings ("" for analyzers with no escape hatch). The
	// framework applies it centrally in Reportf — line-level directives
	// suppress findings on their line, declaration-level directives
	// suppress findings anywhere in the annotated function — and records
	// every exercised directive for the staleannotation pass.
	SuppressVerb string
	// Run executes the check, reporting findings through the Pass.
	Run func(*Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries a loaded program plus the reporting sink for one analyzer
// execution.
type Pass struct {
	Prog *Program

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos. If the analyzer declares a SuppressVerb
// and pos sits on an annotated line or inside an annotated declaration, the
// finding is recorded as suppressed instead, and the directive is marked
// used (the staleannotation pass reports directives that never fire).
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	d := Diagnostic{
		Pos:      pos,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	}
	if v := p.analyzer.SuppressVerb; v != "" {
		ann := p.Prog.Annotations()
		suppressed := ann.SuppressLine(p.Prog.Fset, pos, v)
		if decl := p.Prog.declAt(pos); decl != nil && ann.SuppressDecl(decl, v) {
			suppressed = true
		}
		if suppressed {
			p.Prog.Suppressed = append(p.Prog.Suppressed, d)
			return
		}
	}
	*p.diags = append(*p.diags, d)
}

// Package is one type-checked package of the analyzed module.
type Package struct {
	// Path is the import path (e.g. "next700/internal/cc").
	Path string
	// Dir is the on-disk package directory.
	Dir string
	// Files are the parsed compiled Go files (tests excluded).
	Files []*ast.File
	// Types and Info are the go/types results for Files.
	Types *types.Package
	Info  *types.Info
}

// Program is a loaded, type-checked module (or a filtered subset of its
// packages) plus the shared artifacts analyzers draw on: the annotation
// index and the lazily built call graph.
type Program struct {
	Fset *token.FileSet
	// ModulePath is the module path of the analyzed tree (annotation scopes
	// and abort-class identities are expressed relative to it).
	ModulePath string
	Packages   []*Package
	// Suppressed accumulates findings silenced by //next700: directives
	// across Run calls, for machine-readable (-json) reporting.
	Suppressed []Diagnostic

	ann   *Annotations
	graph *CallGraph
	decls []declSpan
	ran   map[string]bool
}

// declSpan locates one function declaration for pos→decl resolution.
type declSpan struct {
	lo, hi token.Pos
	decl   *ast.FuncDecl
}

// declAt returns the function declaration whose source span contains pos
// (function literals resolve to their enclosing declaration), or nil.
func (p *Program) declAt(pos token.Pos) *ast.FuncDecl {
	if p.decls == nil {
		for _, pkg := range p.Packages {
			for _, file := range pkg.Files {
				for _, d := range file.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						p.decls = append(p.decls, declSpan{fd.Pos(), fd.End(), fd})
					}
				}
			}
		}
		sort.Slice(p.decls, func(i, j int) bool { return p.decls[i].lo < p.decls[j].lo })
	}
	i := sort.Search(len(p.decls), func(i int) bool { return p.decls[i].hi >= pos })
	if i < len(p.decls) && p.decls[i].lo <= pos && pos < p.decls[i].hi {
		return p.decls[i].decl
	}
	return nil
}

// Ran reports whether the named analyzer already executed in a Run call on
// this program. The staleannotation pass audits only directives whose owning
// analyzer ran — a suppression cannot be called stale when nothing looked.
func (p *Program) Ran(name string) bool { return p.ran[name] }

// Package returns the loaded package with the given import path, or nil.
func (p *Program) Package(path string) *Package {
	for _, pkg := range p.Packages {
		if pkg.Path == path {
			return pkg
		}
	}
	return nil
}

// Run executes the analyzers in order over the program and returns all
// diagnostics sorted by position. Annotation-grammar problems are surfaced
// under the analyzer that owns the offending verb, but only when that
// analyzer is part of this run (so a corpus for one analyzer is not
// polluted by another's annotation diagnostics).
func (p *Program) Run(analyzers ...*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	if p.ran == nil {
		p.ran = make(map[string]bool)
	}
	for _, a := range analyzers {
		pass := &Pass{Prog: p, analyzer: a, diags: &diags}
		for _, prob := range p.Annotations().Problems {
			if prob.Analyzer == a.Name {
				diags = append(diags, prob)
			}
		}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
		p.ran[a.Name] = true
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// All returns the full analyzer suite in presentation order. The
// staleannotation pass is deliberately last: it audits the suppression
// directives the preceding analyzers consulted, so it must run after them.
func All() []*Analyzer {
	return []*Analyzer{
		HotPathAnalyzer,
		BoundedWaitAnalyzer,
		AbortClassAnalyzer,
		LockOrderAnalyzer,
		LockScopeAnalyzer,
		StaleAnnotationAnalyzer,
	}
}

// ByName resolves an analyzer from the suite, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
