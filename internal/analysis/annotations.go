package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"
)

// The annotation grammar. Every directive is a line comment of the form
//
//	//next700:verb            (marker verbs)
//	//next700:verb(args)      (verbs carrying a reason or parameter)
//
// attached either to a function declaration (in its doc comment — applies to
// the whole function) or to a statement (same line or the line immediately
// above — applies to that line only). Verbs:
//
//	hotpath             — this function must not allocate, transitively.
//	allowalloc(reason)  — audited allocation; suppresses hotpath findings
//	                      for the annotated function or line.
//	allowwait(reason)   — audited unbounded wait; suppresses boundedwait.
//	allowabort(reason)  — audited unclassified error; suppresses abortclass.
//	lockorder(ordered)  — acquisitions in this function are internally
//	                      ordered (e.g. by sorted partition index); the
//	                      lockorder analyzer skips its self-edges.
//	locked(class: why)  — audited operation under the named lock class;
//	                      suppresses lockscope for the function or line.
//
// Any other verb is a grammar problem ("unknown next700 directive verb").
// Reasons are mandatory for every suppression verb: an escape hatch without
// an audit trail is how contracts rot. The staleannotation pass closes the
// other half of that loop: a suppression that no longer suppresses anything
// is reported and must be deleted.
const annotationPrefix = "//next700:"

// Directive verbs and the analyzer that owns each (annotation-grammar
// problems are reported under the owner).
var verbOwner = map[string]string{
	"hotpath":    "hotpath",
	"allowalloc": "hotpath",
	"allowwait":  "boundedwait",
	"allowabort": "abortclass",
	"lockorder":  "lockorder",
	"locked":     "lockscope",
}

// suppressionVerbs are the verbs whose only effect is to silence findings;
// each requires a reason argument. The staleannotation pass audits exactly
// these: each must have silenced (or scoped out) at least one would-be
// finding of its owning analyzer during the run, or it is rot.
var suppressionVerbs = map[string]bool{
	"allowalloc": true,
	"allowwait":  true,
	"allowabort": true,
	"lockorder":  true,
	"locked":     true,
}

var directiveRE = regexp.MustCompile(`^//next700:([a-z]+)(?:\((.*)\))?\s*$`)

// Directive is one parsed //next700: annotation. Directives are interned per
// physical comment: the declaration index, the line index, and the flat list
// all share one *Directive, so usage marks observed through any of them are
// visible to the staleannotation pass.
type Directive struct {
	Verb string
	// Arg is the parenthesized argument (the reason text).
	Arg string
	Pos token.Pos
}

// Annotations indexes every //next700: directive in the program two ways:
// by annotated function and by source line (for statement-level escapes).
// It also tracks which suppression directives were actually exercised, for
// the staleannotation pass.
type Annotations struct {
	// Funcs maps a function's types.Func (Origin) to its doc directives.
	Funcs map[*types.Func][]*Directive
	// FuncDecls maps the declaring ast.FuncDecl to the same directives
	// (used when resolving bodies back to annotations without re-deriving
	// the object).
	FuncDecls map[*ast.FuncDecl][]*Directive
	// Lines maps "file:line" to directives that apply to that source line.
	// A directive on its own line applies to the following line as well.
	Lines map[string][]*Directive
	// All is every parsed directive in the program, one entry per physical
	// comment, in file order.
	All []*Directive
	// Problems are grammar violations (unknown verb, missing reason),
	// attributed to the owning analyzer.
	Problems []Diagnostic

	used map[*Directive]bool
}

// Annotations parses (once) and returns the program's annotation index.
func (p *Program) Annotations() *Annotations {
	if p.ann != nil {
		return p.ann
	}
	ann := &Annotations{
		Funcs:     make(map[*types.Func][]*Directive),
		FuncDecls: make(map[*ast.FuncDecl][]*Directive),
		Lines:     make(map[string][]*Directive),
		used:      make(map[*Directive]bool),
	}
	for _, pkg := range p.Packages {
		for _, file := range pkg.Files {
			ann.indexFile(p.Fset, pkg, file)
		}
	}
	p.ann = ann
	return ann
}

func (a *Annotations) indexFile(fset *token.FileSet, pkg *Package, file *ast.File) {
	// Parse each physical comment exactly once so every index shares the
	// same *Directive (usage marks must be visible across indexes).
	byComment := make(map[*ast.Comment]*Directive)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			dir, ok := a.parseOne(c)
			if !ok {
				continue
			}
			byComment[c] = dir
			a.All = append(a.All, dir)
			// Line-level index: a trailing comment annotates its own line; a
			// standalone comment annotates the statement below it.
			pos := fset.Position(c.Pos())
			for _, line := range []int{pos.Line, pos.Line + 1} {
				key := lineKey(pos.Filename, line)
				a.Lines[key] = append(a.Lines[key], dir)
			}
		}
	}

	// Declaration-level directives live in function doc comments.
	for _, decl := range file.Decls {
		d, ok := decl.(*ast.FuncDecl)
		if !ok || d.Doc == nil {
			continue
		}
		var dirs []*Directive
		for _, c := range d.Doc.List {
			if dir := byComment[c]; dir != nil {
				dirs = append(dirs, dir)
			}
		}
		if len(dirs) == 0 {
			continue
		}
		a.FuncDecls[d] = dirs
		if obj, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
			a.Funcs[obj.Origin()] = dirs
		}
	}
}

func (a *Annotations) parseOne(c *ast.Comment) (*Directive, bool) {
	if !strings.HasPrefix(c.Text, annotationPrefix) {
		return nil, false
	}
	m := directiveRE.FindStringSubmatch(c.Text)
	if m == nil {
		a.Problems = append(a.Problems, Diagnostic{
			Pos:      c.Pos(),
			Analyzer: "hotpath",
			Message:  "malformed next700 directive: want //next700:verb or //next700:verb(args)",
		})
		return nil, false
	}
	verb, arg := m[1], strings.TrimSpace(m[2])
	owner, known := verbOwner[verb]
	if !known {
		a.Problems = append(a.Problems, Diagnostic{
			Pos:      c.Pos(),
			Analyzer: "hotpath",
			Message:  "unknown next700 directive verb " + strconv.Quote(verb),
		})
		return nil, false
	}
	if suppressionVerbs[verb] && arg == "" {
		a.Problems = append(a.Problems, Diagnostic{
			Pos:      c.Pos(),
			Analyzer: owner,
			Message:  "next700:" + verb + " requires a reason argument: //next700:" + verb + "(why this is safe)",
		})
		return nil, false
	}
	if verb == "locked" && !strings.ContainsAny(arg, ",:") {
		a.Problems = append(a.Problems, Diagnostic{
			Pos:      c.Pos(),
			Analyzer: owner,
			Message:  "next700:locked requires both the lock class and a reason: //next700:locked(Type.field: why this is safe)",
		})
		return nil, false
	}
	return &Directive{Verb: verb, Arg: arg, Pos: c.Pos()}, true
}

func lineKey(filename string, line int) string {
	return filename + ":" + strconv.Itoa(line)
}

// markUsed records that the directive suppressed (or scoped out) a finding.
func (a *Annotations) markUsed(d *Directive) { a.used[d] = true }

// Used reports whether the directive was exercised during analysis.
func (a *Annotations) Used(d *Directive) bool { return a.used[d] }

// FuncHas reports whether fn (by Origin) carries a directive with verb.
// It does not mark usage; use SuppressFunc for suppression decisions.
func (a *Annotations) FuncHas(fn *types.Func, verb string) bool {
	if fn == nil {
		return false
	}
	for _, d := range a.Funcs[fn.Origin()] {
		if d.Verb == verb {
			return true
		}
	}
	return false
}

// SuppressFunc is FuncHas plus usage marking: a true result records that the
// directive changed the analyzer's behavior (skipped or exempted a scope),
// which is what the staleannotation pass audits.
func (a *Annotations) SuppressFunc(fn *types.Func, verb string) bool {
	if fn == nil {
		return false
	}
	hit := false
	for _, d := range a.Funcs[fn.Origin()] {
		if d.Verb == verb {
			a.markUsed(d)
			hit = true
		}
	}
	return hit
}

// DeclHas reports whether the declaration carries a directive with verb.
func (a *Annotations) DeclHas(decl *ast.FuncDecl, verb string) bool {
	for _, d := range a.FuncDecls[decl] {
		if d.Verb == verb {
			return true
		}
	}
	return false
}

// SuppressDecl is DeclHas plus usage marking.
func (a *Annotations) SuppressDecl(decl *ast.FuncDecl, verb string) bool {
	hit := false
	for _, d := range a.FuncDecls[decl] {
		if d.Verb == verb {
			a.markUsed(d)
			hit = true
		}
	}
	return hit
}

// SuppressLine reports whether the source line of pos carries a directive
// with verb (same line or the line above), and marks it used: a true result
// records that the directive suppressed a finding at pos.
func (a *Annotations) SuppressLine(fset *token.FileSet, pos token.Pos, verb string) bool {
	p := fset.Position(pos)
	hit := false
	for _, d := range a.Lines[lineKey(p.Filename, p.Line)] {
		if d.Verb == verb {
			a.markUsed(d)
			hit = true
		}
	}
	return hit
}
