package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// readResults loads a -out file: one result per line.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// samples gathers one metric's values over a file's untraced runs of one
// workload.
func samples(rs []result, workload, metric string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			v = append(v, m.Value)
		}
	}
	return v
}

// Verdicts of one (metric, workload) pair.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved" // run-to-run spread wider than the bound: no call either way
	diagnostic = "diagnostic" // the pair does not repeat within its bound on one commit: shown, not judged
)

// judge compares the new side's median with the old side's under the gate.
// worse > 0 means new is worse, as a share of old's median.
func judge(g gate, better string, a, b dist) (verdict string, worse float64) {
	allowed := g.bound*math.Abs(a.med) + g.slack
	delta := b.med - a.med
	if better == "higher" {
		delta = -delta
	}
	if a.med != 0 {
		worse = delta / math.Abs(a.med)
	}
	switch {
	case delta > allowed:
		return regressed, worse
	case max(a.q3-a.q1, b.q3-b.q1) > allowed:
		return unresolved, worse
	case delta < -allowed:
		return improved, worse
	}
	return unchanged, worse
}

// compareFiles prints one row per (end-to-end metric, workload) pair that
// applies and is present in both files, plus a failed_ratio row per workload
// (any rise regresses), and reports whether anything regressed.
func compareFiles(w io.Writer, l *ledger, gates []gate, oldPath, newPath string) (anyRegressed bool, err error) {
	a, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	b, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-22s %-18s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "old median", "new median", "worse", "spread", "bound", "n", "verdict")
	rows := 0
	for _, wl := range l.Workloads {
		def, err := findWorkload(wl.Name)
		if err != nil {
			return false, err
		}
		for _, g := range gates {
			da, db := summarize(samples(a, wl.Name, g.metric)), summarize(samples(b, wl.Name, g.metric))
			if !def.has(g.metric) || da.n == 0 || db.n == 0 {
				continue
			}
			s, ok := l.spec(g.metric)
			if !ok {
				return false, fmt.Errorf("%s does not list gated metric %s", ledgerFile, g.metric)
			}
			verdict, worse := judge(g, s.Better, da, db)
			if seen, demoted := g.diagnostic[wl.Name]; demoted {
				verdict = fmt.Sprintf("%s (spread %.0f %% on one commit)", diagnostic, 100*seen)
			}
			anyRegressed = anyRegressed || verdict == regressed
			fmt.Fprintf(w, "%-22s %-18s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%% %3d/%-3d %s\n",
				wl.Name, g.metric, da.med, db.med, 100*worse, 100*max(da.spread(), db.spread()), 100*g.bound, da.n, db.n, verdict)
			rows++
		}
		fa, fb := failedRatio(a, wl.Name), failedRatio(b, wl.Name)
		if fa < 0 || fb < 0 {
			continue
		}
		verdict := unchanged
		if fb > fa {
			verdict, anyRegressed = regressed, true
		}
		fmt.Fprintf(w, "%-22s %-18s %14.6f %14.6f %42s %s\n", wl.Name, "failed_ratio", fa, fb, "", verdict)
	}
	if rows == 0 {
		return false, fmt.Errorf("no (metric, workload) pair appears in both %s and %s", oldPath, newPath)
	}
	return anyRegressed, nil
}

// failedRatio is failed ÷ attempted over every run of a workload, or -1 if
// there is none.
func failedRatio(rs []result, workload string) float64 {
	var attempted, failed int64
	for _, r := range rs {
		if r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	if attempted == 0 {
		return -1
	}
	return float64(failed) / float64(attempted)
}
