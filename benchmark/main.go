// Command benchmark is the repo's perf ledger: six named workloads, a fixed
// list of end-to-end metrics with regression bounds, probes and run counters
// for every layer, and a traced run. It opens engines with core.Open and
// drives them itself — not through cmd/next700-bench or internal/harness,
// which are about to be rewritten — and measures every layer from outside,
// by timing calls into that layer's public functions.
//
//	go run ./benchmark                         every workload, every metric: an untraced and a traced run each
//	go run ./benchmark -workload ycsb_point -seed 7 -seconds 10 -trace 0
//	go run ./benchmark -compare old.jsonl new.jsonl
//
// Run it from the repo root: it reads ./BENCHMARK.json. The last line of
// standard output is the last run's result as one JSON object. The exit
// status is non-zero if a correctness check failed, a run could not be
// carried out, or -compare found a regression. See README.md in this
// directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all, in BENCHMARK.json order)")
		seed     = flag.Uint64("seed", 42, "seed for the generated inputs; the engine sees only the inputs")
		secs     = flag.Int("seconds", 0, "nominal measured seconds; sets the window count (default: BENCHMARK.json run_seconds)")
		traceDir = flag.String("trace-dir", ".bench_trace", "where a traced run writes its span files")
		out      = flag.String("out", "", "append each run's result as a JSON line to this file (input to -compare)")
		compare  = flag.Bool("compare", false, "compare two -out files: benchmark -compare old.jsonl new.jsonl")
	)
	// -trace takes its value as the next argument (the run format is
	// "--trace 0|1"), which a flag.Bool would not.
	modes := []bool{false, true}
	flag.Func("trace", "0: an untraced run, end-to-end metrics; 1: a traced run, per-layer metrics, probes and span files (default: one of each)",
		func(v string) error {
			on, err := strconv.ParseBool(v)
			modes = []bool{on}
			return err
		})
	flag.Parse()

	l, err := loadLedger(ledgerFile)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files, got %d", flag.NArg()))
		}
		regressed, err := compareFiles(os.Stdout, l, gates, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	var defs []*workloadDef
	if *workload != "" {
		def, err := findWorkload(*workload)
		if err != nil {
			fatal(err)
		}
		defs = append(defs, def)
	} else {
		for _, w := range l.Workloads {
			def, err := findWorkload(w.Name)
			if err != nil {
				fatal(err)
			}
			defs = append(defs, def)
		}
	}
	o := runOpts{seed: *seed, seconds: *secs, traceDir: *traceDir, shrink: 1}
	if o.seconds <= 0 {
		o.seconds = l.RunSeconds
	}

	ok := true
	for _, def := range defs {
		for _, o.trace = range modes {
			r, err := runWorkload(def, o)
			if err != nil {
				fatal(err)
			}
			if err := r.finish(l); err != nil {
				fatal(err)
			}
			r.print(os.Stdout, l)
			if *out != "" {
				if err := appendResult(*out, r.row(l)); err != nil {
					fatal(err)
				}
			}
			ok = ok && r.Correct
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// print writes everything the run measured, one metric per line with its
// window quartiles, the checks, and last the result line.
func (r *result) print(w *os.File, l *ledger) {
	fmt.Fprintf(w, "== %s seed=%d traced=%v\n", r.Workload, r.Seed, r.Traced)
	names := make([]string, 0, len(r.measured))
	for name := range r.measured {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := r.measured[name]
		s, _ := l.spec(name)
		if d.n > 1 {
			fmt.Fprintf(w, "  %-34s %14.4f %-10s q1 %.4f  q3 %.4f  n=%d\n", name, d.med, s.Unit, d.q1, d.q3, d.n)
		} else {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", name, d.med, s.Unit)
		}
	}
	fmt.Fprintf(w, "  %-34s %d\n  %-34s %d\n", "ops_attempted", r.Attempted, "ops_failed", r.Failed)
	for _, c := range r.checks {
		fmt.Fprintln(w, "  "+c)
	}
	line, err := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]emitted `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

func appendResult(path string, r *result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
