package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Tests run in the package directory, one below the repo root.
const testLedger = "../" + ledgerFile

// smokeOpts runs a workload at 1 % size.
func smokeOpts(t *testing.T, traced bool) runOpts {
	return runOpts{seed: 7, seconds: 1, trace: traced, traceDir: t.TempDir(), shrink: 100}
}

// TestImportsConfined holds the adapter boundary: only engine.go and
// probes.go may import the engine's packages, so an engine refactor touches
// at most those two files here.
func TestImportsConfined(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if name == "engine.go" || name == "probes.go" {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(path, "next700/") {
				t.Errorf("%s imports %s: engine imports belong in engine.go or probes.go", name, path)
			}
		}
	}
}

// TestLedgerNames checks BENCHMARK.json's names against the run format's
// rules and against the workload table.
func TestLedgerNames(t *testing.T) {
	l, err := loadLedger(testLedger)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, s := range l.all() {
		if !name.MatchString(s.Name) || !unit.MatchString(s.Unit) {
			t.Errorf("metric %q unit %q: malformed", s.Name, s.Unit)
		}
		if seen[s.Name] {
			t.Errorf("metric %q listed twice", s.Name)
		}
		seen[s.Name] = true
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("metric %q: better = %q", s.Name, s.Better)
		}
	}
	for _, s := range l.EndToEnd {
		if s.Bound <= 0 {
			t.Errorf("end-to-end metric %q: bound %v", s.Name, s.Bound)
		}
	}
	for _, g := range gates {
		if !seen[g.metric] {
			t.Errorf("gated metric %q is not listed", g.metric)
		}
		for w := range g.diagnostic {
			if _, err := findWorkload(w); err != nil {
				t.Errorf("gate %q: %v", g.metric, err)
			}
		}
	}
	if len(l.Workloads) != len(workloadDefs) {
		t.Errorf("ledger has %d workloads, the benchmark defines %d", len(l.Workloads), len(workloadDefs))
	}
	for _, w := range l.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

// TestSmoke runs every workload, untraced and traced (which runs every
// probe), at 1 % size: every check passes, every metric BENCHMARK.json names
// for the mode is emitted, finite, and measured if it applies to the
// workload (finish enforces that); nothing unlisted is measured.
func TestSmoke(t *testing.T) {
	l, err := loadLedger(testLedger)
	if err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool)
	for _, s := range l.all() {
		listed[s.Name] = true
	}
	for i := range workloadDefs {
		def := &workloadDefs[i]
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(def, smokeOpts(t, traced))
			if err != nil {
				t.Fatal(err)
			}
			if err := r.finish(l); err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					def.name, traced, r.Correct, r.Attempted, r.Failed, strings.Join(r.checks, "\n"))
			}
			for name := range r.measured {
				if !listed[name] {
					t.Errorf("%s: measured %q, which BENCHMARK.json does not list", def.name, name)
				}
			}
			want := l.EndToEnd
			if traced {
				want = l.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, want %d", def.name, traced, len(r.Metrics), len(want))
			}
			for _, s := range want {
				m, ok := r.Metrics[s.Name]
				// An end-to-end metric is never 0, and neither is a time.
				positive := !traced || s.Unit == "ns" || s.Unit == "us" || s.Unit == "s"
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", def.name, traced, s.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != s.Unit:
					t.Errorf("%s traced=%v: %s = %v %q", def.name, traced, s.Name, m.Value, m.Unit)
				case !r.def.has(s.Name) && m.Value != 0:
					t.Errorf("%s traced=%v: %s = %v where it does not apply", def.name, traced, s.Name, m.Value)
				case r.def.has(s.Name) && positive && m.Value <= 0:
					t.Errorf("%s traced=%v: %s = %v, want > 0", def.name, traced, s.Name, m.Value)
				}
			}
			if traced && r.Metrics["trace.spans"].Value < 1 {
				t.Errorf("%s: traced run recorded no spans", def.name)
			}
		}
	}
}

// TestFinishRejectsMissingMetric: a metric that applies to the workload and
// was not measured fails the run; it is not reported as 0.
func TestFinishRejectsMissingMetric(t *testing.T) {
	l, err := loadLedger(testLedger)
	if err != nil {
		t.Fatal(err)
	}
	def, err := findWorkload("ycsb_durable")
	if err != nil {
		t.Fatal(err)
	}
	r := newResult(def, 1, true)
	for _, s := range l.PerLayer {
		if def.has(s.Name) && s.Name != "device.syncs_per_commit" {
			r.put(s.Name, 1)
		}
	}
	if err := r.finish(l); err == nil || !strings.Contains(err.Error(), "device.syncs_per_commit") {
		t.Errorf("finish() = %v, want an error naming device.syncs_per_commit", err)
	}
	r.put("device.syncs_per_commit", 1)
	if err := r.finish(l); err != nil {
		t.Errorf("finish() = %v with every applicable metric measured", err)
	}
	if m, ok := r.Metrics["core.recover_load_s"]; !ok || m.Value != 0 {
		t.Errorf("core.recover_load_s on the result line = %v, %v; want 0 where it does not apply", m.Value, ok)
	}
}

// TestDetDigestRepeats is the determinism oracle: the same seed gives the
// same final state.
func TestDetDigestRepeats(t *testing.T) {
	def, err := findWorkload("det_batch")
	if err != nil {
		t.Fatal(err)
	}
	var digests [2]string
	for i := range digests {
		r, err := runWorkload(def, smokeOpts(t, false))
		if err != nil {
			t.Fatal(err)
		}
		digests[i] = r.digest
	}
	if digests[0] == "" || digests[0] != digests[1] {
		t.Errorf("digests differ across runs of one seed: %q, %q", digests[0], digests[1])
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values are statistics.quantiles(v, n=4).
	for _, c := range []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
	} {
		if d := summarize(c.v); d.q1 != c.q1 || d.med != c.med || d.q3 != c.q3 {
			t.Errorf("summarize(%v) = %v %v %v, want %v %v %v", c.v, d.q1, d.med, d.q3, c.q1, c.med, c.q3)
		}
	}
}

// TestCompareVerdicts feeds -compare two synthetic result files.
func TestCompareVerdicts(t *testing.T) {
	l, err := loadLedger(testLedger)
	if err != nil {
		t.Fatal(err)
	}
	table := []gate{
		{metric: "txn_per_s", bound: 0.08},
		{metric: "commit_p50_us", bound: 0.08, diagnostic: map[string]float64{"tpcc_mix": 0.3}},
		{metric: "allocs_per_txn", bound: 0.02, slack: 0.1},
		{metric: "log_bytes_per_txn", bound: 0.01},
	}
	// row is what one run reports for the four gated metrics.
	type row struct{ tps, p50, allocs, logBytes float64 }
	write := func(workload string, rows []row, failed int64) string {
		path := filepath.Join(t.TempDir(), "r.jsonl")
		for i, v := range rows {
			r := &result{Workload: workload, Seed: uint64(i), Correct: true, Attempted: 100, Failed: failed,
				Metrics: map[string]emitted{"txn_per_s": {v.tps, "txn/s"}, "commit_p50_us": {v.p50, "us"},
					"allocs_per_txn": {v.allocs, "allocs/txn"}, "log_bytes_per_txn": {v.logBytes, "B/txn"}}}
			if err := appendResult(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	runs := func(tps, p50 []float64, allocs, logBytes float64) []row {
		rows := make([]row, len(tps))
		for i := range rows {
			rows[i] = row{tps[i], p50[i], allocs, logBytes}
		}
		return rows
	}
	steady := []float64{100, 101, 99, 100, 100}
	slow := []float64{80, 81, 79, 80, 80}
	for _, c := range []struct {
		name      string
		workload  string
		rows      []row
		failed    int64
		regressed bool
		metric    string
		verdict   string // "" = no row for the metric
	}{
		{"same", "ycsb_durable", runs(steady, steady, 0, 1109), 0, false, "txn_per_s", unchanged},
		{"slower", "ycsb_durable", runs(slow, steady, 0, 1109), 0, true, "txn_per_s", regressed},
		{"faster", "ycsb_durable", runs([]float64{120, 121, 119, 120, 120}, steady, 0, 1109), 0, false, "txn_per_s", improved},
		{"noisy", "ycsb_durable", runs(steady, []float64{70, 130, 100, 85, 115}, 0, 1109), 0, false, "commit_p50_us", unresolved},
		{"failing", "ycsb_durable", runs(steady, steady, 0, 1109), 1, true, "failed_ratio", regressed},
		{"more log", "ycsb_durable", runs(steady, steady, 0, 1130), 0, true, "log_bytes_per_txn", regressed},
		{"no log here", "ycsb_point", runs(steady, steady, 0, 1130), 0, false, "log_bytes_per_txn", ""},
		{"within slack", "det_batch", runs(steady, steady, 0.05, 0), 0, false, "allocs_per_txn", unchanged},
		{"beyond slack", "det_batch", runs(steady, steady, 0.2, 0), 0, true, "allocs_per_txn", regressed},
		{"demoted pair", "tpcc_mix", runs(steady, []float64{130, 131, 129, 130, 130}, 0, 0), 0, false, "commit_p50_us", diagnostic},
	} {
		var out bytes.Buffer
		base := write(c.workload, runs(steady, steady, 0, 1109), 0)
		got, err := compareFiles(&out, l, table, base, write(c.workload, c.rows, c.failed))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, got, c.regressed, out.String())
		}
		verdict := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[0] == c.workload && f[1] == c.metric {
				verdict = line
			}
		}
		if (c.verdict == "") != (verdict == "") || !strings.Contains(verdict, c.verdict) {
			t.Errorf("%s: %s row = %q, want verdict %q\n%s", c.name, c.metric, verdict, c.verdict, out.String())
		}
	}
}
