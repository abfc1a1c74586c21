// next700-lint statically enforces the engine's component contracts: the
// zero-allocation hot path, the bounded-wait (deadline) contract, typed
// abort classes, a cycle-free lock order, atomic-field alignment, bounded
// critical sections (lockscope), deadline propagation to blocking sites
// (deadlineflow), terminal-abort retry hygiene (terminalabort), and
// suppression freshness (staleannotation).
//
// Usage:
//
//	go run ./cmd/next700-lint ./...
//	go run ./cmd/next700-lint -analyzers hotpath,lockorder ./internal/cc/...
//	go run ./cmd/next700-lint -json ./...
//	go run ./cmd/next700-lint -list
//
// Exit status mirrors the go/analysis multichecker convention:
//
//	0  clean — no non-suppressed findings
//	1  one or more findings reported (suppressed findings alone do not
//	   cause a nonzero exit; they appear only in -json output)
//	2  usage or load error (unknown analyzer, unresolvable pattern,
//	   type-check failure)
//
// With -json, machine-readable diagnostics are printed to stdout as a
// single JSON object {"findings": [...], "suppressed": [...],
// "annotations": {...}}; each diagnostic carries file, line, col, analyzer,
// message, and suppressed, and annotations counts the //next700: directives
// in the loaded packages per verb — the lint-debt ledger. The
// staleannotation analyzer judges suppressions against the analyzers that
// ran over the loaded packages, so its verdicts (and the suppressed list)
// are only meaningful on whole-module invocations (./...).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"next700/internal/analysis"
)

// jsonDiag is the machine-readable form of one diagnostic.
type jsonDiag struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func main() {
	var (
		names   = flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		list    = flag.Bool("list", false, "list analyzers and exit")
		dir     = flag.String("C", ".", "directory to resolve patterns in (the module root)")
		jsonOut = flag.Bool("json", false, "emit machine-readable JSON diagnostics (findings + suppressed) on stdout")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: next700-lint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	suite := analysis.All()
	if *names != "" {
		suite = suite[:0]
		for _, name := range strings.Split(*names, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "next700-lint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			suite = append(suite, a)
		}
	}

	prog, err := analysis.Load(*dir, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "next700-lint:", err)
		os.Exit(2)
	}
	diags, runErr := prog.Run(suite...)

	if *jsonOut {
		toJSON := func(ds []analysis.Diagnostic, suppressed bool) []jsonDiag {
			out := make([]jsonDiag, 0, len(ds))
			for _, d := range ds {
				p := prog.Fset.Position(d.Pos)
				out = append(out, jsonDiag{
					File:       p.Filename,
					Line:       p.Line,
					Col:        p.Column,
					Analyzer:   d.Analyzer,
					Message:    d.Message,
					Suppressed: suppressed,
				})
			}
			return out
		}
		perVerb := make(map[string]int)
		for _, d := range prog.Annotations().All {
			perVerb[d.Verb]++
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Findings    []jsonDiag     `json:"findings"`
			Suppressed  []jsonDiag     `json:"suppressed"`
			Annotations map[string]int `json:"annotations"`
		}{toJSON(diags, false), toJSON(prog.Suppressed, true), perVerb}); err != nil {
			fmt.Fprintln(os.Stderr, "next700-lint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s: %s: %s\n", prog.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "next700-lint:", runErr)
		os.Exit(2)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "next700-lint: %d issue(s)\n", len(diags))
		os.Exit(1)
	}
}
