package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"next700/internal/core"
	"next700/internal/harness"
	"next700/internal/workload"
)

// Every sweep writes the same report: what was swept, the fixed parameters,
// one row per measured cell — its coordinates on the sweep's axes and a
// metrics map in the perf ledger's {value, unit} shape — and the checks the
// sweep asserted over those rows.
type report struct {
	Sweep  string                 `json:"sweep"`
	Params map[string]interface{} `json:"params"`
	Rows   []row                  `json:"rows"`
	Checks []check                `json:"checks"`
}

type row struct {
	Cell    map[string]interface{} `json:"cell"`
	Metrics map[string]metric      `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// common is the command line as the sweeps see it: run length, warm-up and
// seed for all of them, then what single sweeps take — the overload sweep
// measures the engine and workload that the single-run flags describe.
type common struct {
	Threads     int
	Duration    time.Duration
	Warmup      int
	Seed        uint64
	quick       bool // the experiments' small data scale
	partitions  int
	detBatch    int
	theta       float64
	recover     recoverSweepOpts
	cfg         core.Config
	newWorkload func() workload.Workload
	slo         time.Duration
}

// sweeps is -sweep's name table: every sweep this binary runs, by the name
// of its report.
var sweeps = map[string]func(common) sweep{
	"wal": walSweep, "det": detSweep, "overload": overloadSweep, "partition": partitionSweep, "recovery": recoverSweep,
	"verify": verifySweep, "e1": e1Sweep, "e2": e2Sweep, "e4": e4Sweep, "e5": e5Sweep, "e6": e6Sweep, "e7": e7Sweep,
	"e8": e8Sweep, "e9": e9Sweep, "e10": e10Sweep, "e11": e11Sweep, "e12": e12Sweep, "e14": e14Sweep, "e15": e15Sweep,
}

// selectSweeps resolves -sweep's comma-separated names. -out names one
// report, so it takes one sweep.
func selectSweeps(names, out string) ([]func(common) sweep, error) {
	var picked []func(common) sweep
	for _, name := range strings.Split(names, ",") {
		build, ok := sweeps[strings.TrimSpace(name)]
		if !ok {
			var known []string
			for n := range sweeps {
				known = append(known, n)
			}
			slices.Sort(known)
			return nil, fmt.Errorf("unknown sweep %q; known: %s", name, strings.Join(known, ","))
		}
		picked = append(picked, build)
	}
	if out != "" && len(picked) > 1 {
		return nil, fmt.Errorf("-out names one report, and -sweep %s names %d sweeps", names, len(picked))
	}
	return picked, nil
}

// sweep is one named experiment grid: its cells and checks are the run
// function; printing, unit conversion, the report file and failing on a
// failed check belong to runSweep.
type sweep struct {
	name   string // the report is BENCH_<name>.json unless -out says otherwise
	title  string
	params map[string]interface{}
	axes   []string // cell keys, in column order
	cols   []string // the metrics shown on stdout, in column order; the report has them all
	// extend keeps the rows of an existing report of the same sweep and adds
	// to them: successive runs accumulate a trajectory.
	extend bool
	run    func(s *sweepRun) error
}

// sweepRun is what a sweep's run function reports into.
type sweepRun struct {
	w      io.Writer
	sw     sweep
	rep    report
	headed bool // the column header has been printed
	failed []string
}

// Unit conversions, so no sweep does its own.
func ms(d time.Duration) metric { return metric{float64(d) / float64(time.Millisecond), "ms"} }
func count(n uint64) metric     { return metric{float64(n), "count"} }
func size(n int64) metric       { return metric{float64(n), "B"} }
func ratio(x float64) metric    { return metric{x, "ratio"} }
func perSec(x float64) metric   { return metric{x, "txn/s"} }
func flag01(b bool) metric {
	if b {
		return metric{1, "bool"}
	}
	return metric{0, "bool"}
}

// runMetrics is the part of a harness.Result every load-driving sweep
// reports.
func runMetrics(r harness.Result) map[string]metric {
	return map[string]metric{
		"commits":    count(r.Commits),
		"aborts":     count(r.Aborts),
		"abort_rate": ratio(r.AbortRate),
		"tps":        perSec(r.Tps),
		"p50_ms":     ms(time.Duration(r.Latency.P50)),
		"p99_ms":     ms(time.Duration(r.Latency.P99)),
	}
}

// printRow prints one table line, each column as wide as its header (and
// wide enough for a number).
func (s *sweepRun) printRow(cells []string) {
	var b strings.Builder
	for i, name := range append(append([]string{}, s.sw.axes...), s.sw.cols...) {
		fmt.Fprintf(&b, " %-*s", max(len(name), 12), cells[i])
	}
	fmt.Fprintf(s.w, " %s\n", strings.TrimRight(b.String(), " "))
}

func number(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// row records one measured cell and prints it under the sweep's columns.
func (s *sweepRun) row(cell map[string]interface{}, m map[string]metric) {
	if !s.headed {
		s.headed = true
		s.printRow(append(append([]string{}, s.sw.axes...), s.sw.cols...))
	}
	line := make([]string, 0, len(s.sw.axes)+len(s.sw.cols))
	for _, a := range s.sw.axes {
		line = append(line, fmt.Sprint(cell[a]))
	}
	for _, c := range s.sw.cols {
		if v, ok := m[c]; ok {
			line = append(line, number(v.Value))
		} else {
			line = append(line, "-")
		}
	}
	s.printRow(line)
	s.detail(cell, m)
}

// detail records a row without printing it: a series under a cell (one more
// axis than the sweep's) that would drown the table.
func (s *sweepRun) detail(cell map[string]interface{}, m map[string]metric) {
	s.rep.Rows = append(s.rep.Rows, row{Cell: cell, Metrics: m})
}

// check records an assertion the sweep makes about its rows. A failed check
// fails the run — after the report is written, so the evidence survives.
func (s *sweepRun) check(name string, ok bool, format string, args ...interface{}) {
	s.target(name, ok, format, args...)
	if !ok {
		s.failed = append(s.failed, name)
	}
}

// target records a performance target: reported like a check, but a miss is
// a warning and never fails the run — a wall-clock ratio on a shared host is
// not a verdict.
func (s *sweepRun) target(name string, ok bool, format string, args ...interface{}) {
	s.rep.Checks = append(s.rep.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// runSweep runs sw, printing to w, and writes its report to out
// (BENCH_<name>.json when out is empty). The error names the first failed
// check, or is whatever stopped the sweep before it finished.
func runSweep(w io.Writer, out string, sw sweep) error {
	if out == "" {
		out = "BENCH_" + sw.name + ".json"
	}
	s := &sweepRun{w: w, sw: sw, rep: report{Sweep: sw.name, Params: sw.params, Rows: []row{}, Checks: []check{}}}
	if sw.extend {
		var prev report
		if data, err := os.ReadFile(out); err == nil && json.Unmarshal(data, &prev) == nil && prev.Sweep == sw.name {
			// Best-effort: a corrupt or foreign file is restarted, not fatal.
			s.rep.Rows = append(s.rep.Rows, prev.Rows...)
		}
	}
	fmt.Fprintf(w, "next700-bench: %s\n", sw.title)
	if err := sw.run(s); err != nil {
		return fmt.Errorf("%s sweep: %w", sw.name, err)
	}
	for _, c := range s.rep.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "WARNING, target missed"
			if slices.Contains(s.failed, c.Name) {
				verdict = "FAILED"
			}
		}
		fmt.Fprintf(w, "  %s: %s (%s)\n", c.Name, verdict, c.Detail)
	}
	data, err := json.MarshalIndent(s.rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "  report: %s\n", out)
	if len(s.failed) > 0 {
		return fmt.Errorf("%s sweep: check failed: %s", sw.name, strings.Join(s.failed, ", "))
	}
	return nil
}
