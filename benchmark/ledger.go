package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// ledgerFile is BENCHMARK.json, relative to the repo root the benchmark is
// run from. It is not a flag: a run judged against another ledger than the
// committed one would defeat having one.
const ledgerFile = "BENCHMARK.json"

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the
// acceptance driver's: one number per end-to-end metric for all workloads,
// so the loosest any workload needs. -compare judges by gates instead.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// ledger is BENCHMARK.json: the one place metric names, units and directions
// are written down. The benchmark reads it to decide what to emit and
// -compare reads it to judge, so the two cannot disagree.
type ledger struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// all lists every metric, end-to-end first.
func (l *ledger) all() []metricSpec {
	return append(append([]metricSpec(nil), l.EndToEnd...), l.PerLayer...)
}

// spec finds a metric by name.
func (l *ledger) spec(name string) (metricSpec, bool) {
	for _, s := range l.all() {
		if s.Name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}

func loadLedger(path string) (*ledger, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(raw, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// gate is one of the issue's end-to-end metrics as -compare judges it, per
// (metric, workload) pair. BENCHMARK.json cannot hold this table: its format
// gives a metric one bound for all workloads and wants every end_to_end
// metric emitted on every workload and never zero, so a metric that means
// something on some workloads only (log bytes, p99, replay rate) or is zero
// on one (allocations on det_batch) has to sit in its per_layer list. Here
// each is gated wherever workloadDef.has says it applies. failed_ratio is
// the tenth: compareFiles judges it from the attempted and failed counts.
type gate struct {
	metric string
	// bound is the share of the baseline's median by which the new median
	// may be worse; slack is an absolute allowance on top of it.
	bound, slack float64
	// diagnostic names the workloads on which two sets of ten runs of one
	// commit did not agree within bound, with the widest spread either set
	// showed. There the pair is printed and never judged: the issue's rule
	// for a metric that does not repeat is to demote it for that workload,
	// not to widen its bound.
	diagnostic map[string]float64
}

// The diagnostic entries are from two sets of ten runs of the seed commit
// (-seed 100…109 and 200…209) on the 2-vCPU sandbox: README.md, "Seed
// numbers". The device-bound workloads and every count repeat; what is CPU-
// or memory-bound moves with the shared host.
var gates = []gate{
	{metric: "setup_s", bound: 0.20},
	{metric: "txn_per_s", bound: 0.08, diagnostic: map[string]float64{
		"ycsb_point": 0.105, "tpcc_mix": 0.087, "det_batch": 0.099, "recover_replay": 0.160}},
	{metric: "commit_p50_us", bound: 0.08, diagnostic: map[string]float64{
		"ycsb_point": 0.100, "tpcc_mix": 0.089, "recover_replay": 0.130}},
	{metric: "commit_p99_us", bound: 0.15, diagnostic: map[string]float64{"det_batch": 0.278}},
	{metric: "allocs_per_txn", bound: 0.02, slack: 0.1},
	{metric: "log_bytes_per_txn", bound: 0.01},
	{metric: "space_amp", bound: 0.03},
	{metric: "recover_txn_per_s", bound: 0.10, diagnostic: map[string]float64{"recover_replay": 0.160}},
	{metric: "load_rows_per_s", bound: 0.15, diagnostic: map[string]float64{"ycsb_durable": 0.182}},
}

// emitted is one metric value on the result line.
type emitted struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload. Correct, Attempted, Failed and Metrics
// are the result line's contract; a -out file's rows carry the first three
// fields as well, and in Metrics everything the run measured.
type result struct {
	Workload string `json:"workload,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	Traced   bool   `json:"traced,omitempty"`

	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]emitted `json:"metrics"`

	// def is the workload as run (the smoke test shrinks it).
	def *workloadDef
	// measured holds everything the run measured, by name; finish picks the
	// ledger's list for the run's mode out of it.
	measured map[string]dist
	checks   []string
	// digest is det_batch's final Engine.StateDigest.
	digest string
}

func newResult(def *workloadDef, seed uint64, traced bool) *result {
	return &result{Workload: def.name, Seed: seed, Traced: traced, Correct: true, def: def, measured: make(map[string]dist)}
}

// put records a metric measured once per run.
func (r *result) put(name string, v float64) { r.putDist(name, []float64{v}) }

// putDist records a metric as the median of per-window samples.
func (r *result) putDist(name string, samples []float64) {
	if _, dup := r.measured[name]; dup {
		panic("benchmark: metric " + name + " measured twice")
	}
	r.measured[name] = summarize(samples)
}

// check records a correctness check's outcome.
func (r *result) check(what string, err error) {
	if err != nil {
		r.Correct = false
		r.checks = append(r.checks, fmt.Sprintf("FAIL %s: %v", what, err))
		return
	}
	r.checks = append(r.checks, "ok   "+what)
}

// finish fills Metrics with the ledger's list for the run's mode: every
// end-to-end metric untraced, every per-layer metric traced. A metric that
// applies to the workload (workloadDef.has) and was not measured is an
// error — a probe or counter that stops reporting must not pass for a
// zero — and so is a non-finite value or a metric measured where it is
// declared not to apply. One that does not apply is omitted everywhere
// except on the result line, where it reads 0 because the run format wants
// the whole list from every workload.
func (r *result) finish(l *ledger) error {
	def := r.def
	specs := l.EndToEnd
	if r.Traced {
		specs = l.PerLayer
	} else {
		// A -out row must hold every gated metric for -compare.
		for _, g := range gates {
			if _, ok := r.measured[g.metric]; def.has(g.metric) && !ok {
				return fmt.Errorf("%s: gated metric %s not measured", r.Workload, g.metric)
			}
		}
	}
	for name, d := range r.measured {
		if !def.has(name) {
			return fmt.Errorf("%s: metric %s measured, but declared not to apply", r.Workload, name)
		}
		if math.IsNaN(d.med) || math.IsInf(d.med, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.Workload, name, d.med)
		}
	}
	r.Metrics = make(map[string]emitted, len(specs))
	for _, s := range specs {
		d, ok := r.measured[s.Name]
		if def.has(s.Name) && !ok {
			return fmt.Errorf("%s: metric %s not measured", r.Workload, s.Name)
		}
		r.Metrics[s.Name] = emitted{Value: d.med, Unit: s.Unit}
	}
	return nil
}

// row is the run as a -out file holds it: Metrics is everything measured.
func (r *result) row(l *ledger) *result {
	row := *r
	row.Metrics = make(map[string]emitted, len(r.measured))
	for name, d := range r.measured {
		s, _ := l.spec(name)
		row.Metrics[name] = emitted{Value: d.med, Unit: s.Unit}
	}
	return &row
}
