package analysis

// The corpus runner mirrors golang.org/x/tools/go/analysis/analysistest:
// each analyzer has a mini-module under testdata/<analyzer>/next700 (the
// module is named next700 so the analyzers' path-suffix scoping matches the
// real tree), and corpus files carry expectations as comments:
//
//	code // want `regexp`
//	code // want `first` `second`      (two diagnostics on one line)
//	// want:-1 `regexp`                (diagnostic one line above — used for
//	                                    annotation-grammar problems, which are
//	                                    reported at the directive comment and
//	                                    cannot share its line)
//
// Regexps are backquoted Go raw strings. Every diagnostic must match a want
// on its exact file:line, and every want must match at least one diagnostic.

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var wantRE = regexp.MustCompile("//\\s*want(:-?\\d+)?\\s+(.*)$")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	text string
	hits int
}

func runCorpus(t *testing.T, analyzerName string) {
	t.Helper()
	runCorpusSuite(t, analyzerName, analyzerName)
}

// runCorpusSuite runs several analyzers over one corpus. Most corpora need
// only their own analyzer; staleannotation additionally needs an owner
// analyzer in the run, since a directive is judged only when its owner
// actually looked.
func runCorpusSuite(t *testing.T, corpusName string, analyzerNames ...string) {
	t.Helper()
	var suite []*Analyzer
	for _, name := range analyzerNames {
		a := ByName(name)
		if a == nil {
			t.Fatalf("no analyzer %q", name)
		}
		suite = append(suite, a)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", corpusName, "next700"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading corpus: %v", err)
	}
	diags, err := prog.Run(suite...)
	if err != nil {
		t.Fatalf("running %s: %v", corpusName, err)
	}
	wants := collectWants(t, dir)

	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if filepath.Clean(w.file) == filepath.Clean(pos.Filename) && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hits++
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if w.hits == 0 {
			t.Errorf("%s:%d: want `%s` matched no diagnostic", w.file, w.line, w.text)
		}
	}
}

// collectWants scans every .go file under dir for want comments.
func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	var wants []*expectation
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for lineNo := 1; sc.Scan(); lineNo++ {
			m := wantRE.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			offset := 0
			if m[1] != "" {
				offset, _ = strconv.Atoi(m[1][1:])
			}
			for _, pat := range backquoted(m[2]) {
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, lineNo, pat, err)
				}
				wants = append(wants, &expectation{file: path, line: lineNo + offset, re: re, text: pat})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wants) == 0 {
		t.Fatalf("corpus %s has no want expectations", dir)
	}
	return wants
}

// backquoted extracts the backquoted raw-string tokens from s.
func backquoted(s string) []string {
	var out []string
	for {
		i := strings.IndexByte(s, '`')
		if i < 0 {
			return out
		}
		s = s[i+1:]
		j := strings.IndexByte(s, '`')
		if j < 0 {
			return out
		}
		out = append(out, s[:j])
		s = s[j+1:]
	}
}

func TestHotPathCorpus(t *testing.T)     { runCorpus(t, "hotpath") }
func TestBoundedWaitCorpus(t *testing.T) { runCorpus(t, "boundedwait") }
func TestAbortClassCorpus(t *testing.T)  { runCorpus(t, "abortclass") }
func TestLockOrderCorpus(t *testing.T)   { runCorpus(t, "lockorder") }
func TestLockScopeCorpus(t *testing.T)   { runCorpus(t, "lockscope") }

// Staleness verdicts require the audited verb's owner in the same run.
func TestStaleAnnotationCorpus(t *testing.T) {
	runCorpusSuite(t, "staleannotation", "boundedwait", "staleannotation")
}

// TestEveryAnalyzerHasCorpus pins the suite to the corpus tree in both
// directions: a new analyzer registered in All() cannot ship without a
// testdata corpus, and a renamed or removed analyzer cannot orphan one.
// Together with TestRepoLintClean and the lint driver — both of which
// enumerate via All() — no hard-coded analyzer list exists that a new
// analyzer could silently be missing from.
func TestEveryAnalyzerHasCorpus(t *testing.T) {
	inSuite := map[string]bool{}
	for _, a := range All() {
		inSuite[a.Name] = true
		if _, err := os.Stat(filepath.Join("testdata", a.Name, "next700", "go.mod")); err != nil {
			t.Errorf("analyzer %s has no corpus module: %v", a.Name, err)
		}
	}
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && !inSuite[e.Name()] {
			t.Errorf("corpus dir testdata/%s names no analyzer in All()", e.Name())
		}
	}
}

// TestRepoLintClean runs the full suite over the real module and requires a
// clean bill — the same gate CI's lint lane applies. Reintroducing, say,
// sort.Slice in the write-index path fails this test, not just the lane.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load is slow; covered by the CI lint lane")
	}
	prog, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := prog.Run(All()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		t.Errorf("%s: %s: %s", pos, d.Analyzer, d.Message)
	}
}
