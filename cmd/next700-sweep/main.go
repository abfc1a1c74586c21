// next700-sweep regenerates the evaluation suite: every experiment table in
// EXPERIMENTS.md, by id or all of them.
//
// Usage:
//
//	next700-sweep                 # run the full suite at full scale
//	next700-sweep -exp E2,E7      # selected experiments
//	next700-sweep -quick          # reduced scale (~seconds per experiment)
//	next700-sweep -list           # show the experiment index
//	next700-sweep -exp E8 -cpuprofile cpu.out -trace trace.out
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"next700/internal/harness"
)

func main() {
	var (
		list  = flag.Bool("list", false, "list experiments and exit")
		exp   = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		quick = flag.Bool("quick", false, "reduced scale")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file when the sweep ends (go tool pprof)")
		execTrace  = flag.String("trace", "", "write a runtime execution trace of the sweep to this file (go tool trace)")
	)
	flag.Parse()

	stopProfiles, err := harness.StartProfiles(*cpuProfile, *memProfile, *execTrace)
	defer stopProfiles()
	// fatal finishes the profiles first: os.Exit runs no defers.
	fatal := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "next700-sweep: "+format+"\n", args...)
		stopProfiles()
		os.Exit(1)
	}
	if err != nil {
		fatal("profiles: %v", err)
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-4s %-55s %s\n", e.ID, e.Title, e.Bench)
		}
		return
	}

	var selected []harness.Experiment
	if *exp == "" {
		selected = harness.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			e := harness.ByID(id)
			if e == nil {
				fatal("unknown experiment %q (try -list)", id)
			}
			selected = append(selected, *e)
		}
	}

	scale := "full"
	if *quick {
		scale = "quick"
	}
	fmt.Printf("next700-sweep: %d experiment(s), %s scale\n\n", len(selected), scale)
	for _, e := range selected {
		t0 := time.Now()
		fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		if err := e.Run(os.Stdout, *quick); err != nil {
			fatal("%s failed: %v", e.ID, err)
		}
		fmt.Printf("(%s in %v)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
}
