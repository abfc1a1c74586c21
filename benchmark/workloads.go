package main

import (
	"fmt"
	"strings"
	"time"
)

// nWorkers is W: the closed-loop callers of every workload, and the
// partition count of the partitioned ones. The sandbox has two cores; more
// workers than cores would measure the scheduler.
const nWorkers = 2

// detBatch is the transactions sequenced into one deterministic batch.
const detBatch = 256

type workloadKind int

const (
	interactive workloadKind = iota // W workers call Workload.RunOne in a closed loop
	detBatches                      // one sequencer plans batches, W partitions execute them
	restart                         // build a log once, then time load + replay
)

// workloadDef is a named workload. Names and data sizes are final: later
// issues cite them. Windows are count-based — perWindow units of work, then
// a barrier — so database growth, log bytes and operation counts are the
// same on both sides of a comparison however fast either side runs.
//
// CPU-bound interactive workloads use many short windows (30–40 of a third
// of a second at -seconds 10) where the issue has 10 of 1–2 s, which the
// time cap would cut to 5: a median over 30 windows steps over a noisy
// second on this shared host, a median over 5 does not. Every window still
// holds the 1000 samples commit_p99_us needs.
type workloadDef struct {
	name string
	kind workloadKind
	spec engineSpec
	// perWindow is transactions per worker (interactive), batches
	// (detBatches) or log records replayed per restart (restart).
	perWindow int
	// windowSeconds is what one window takes on the seed commit in the
	// sandbox; -seconds ÷ windowSeconds is the window count, never below 5.
	windowSeconds float64
}

// ycsbRecords × 108 B ≈ 28 MB of rows: beyond the 2 MB L2s, so index probes
// and row accesses miss.
const ycsbRecords = 262_144

var workloadDefs = []workloadDef{
	{
		name: "ycsb_point", kind: interactive,
		spec: engineSpec{protocol: "SILO", workers: nWorkers, partitions: nWorkers,
			records: ycsbRecords, opsPerTxn: 16, readRatio: 0.5},
		perWindow: 20_000, windowSeconds: 0.25,
	},
	{
		name: "tpcc_mix", kind: interactive,
		spec: engineSpec{protocol: "SILO", workers: nWorkers, partitions: nWorkers,
			tpcc: true, warehouses: nWorkers},
		perWindow: 6000, windowSeconds: 0.35,
	},
	{
		// Flush policy: sync on every commit (group-commit window 0), the
		// committer waits for its own record's LSN.
		name: "ycsb_durable", kind: interactive,
		spec: engineSpec{protocol: "SILO", workers: nWorkers, partitions: nWorkers,
			records: ycsbRecords, opsPerTxn: 8, readRatio: 0, log: logSingle},
		perWindow: 500, windowSeconds: 1.1,
	},
	{
		// Flush policy: one stream per worker, epochs advance every 200 µs,
		// the committer waits for the epoch frontier to pass its epoch.
		name: "ycsb_durable_streams", kind: interactive,
		spec: engineSpec{protocol: "SILO", workers: nWorkers, partitions: nWorkers,
			records: ycsbRecords, opsPerTxn: 8, readRatio: 0, log: logStreams,
			groupCommit: 200 * time.Microsecond},
		perWindow: 500, windowSeconds: 0.95,
	},
	{
		// 1000 batches a window: the latency sample is the batch, and p99
		// wants ten samples beyond it.
		name: "det_batch", kind: detBatches,
		spec: engineSpec{protocol: "QSTORE", workers: nWorkers, partitions: nWorkers,
			records: ycsbRecords, opsPerTxn: 16, readRatio: 0.5, theta: 0.9},
		perWindow: 1000, windowSeconds: 1.2,
	},
	{
		// The source log is built by one worker so that it is a pure
		// function of the seed; it is ycsb_durable's shape on an
		// unthrottled device (≈111 MB).
		name: "recover_replay", kind: restart,
		spec: engineSpec{protocol: "SILO", workers: 1, partitions: 1,
			records: ycsbRecords, opsPerTxn: 8, readRatio: 0, log: logSingle},
		perWindow: 100_000, windowSeconds: 0.6,
	},
}

// has reports whether a metric has a meaning on the workload. Probe and
// runtime metrics do everywhere; run counters and spans only where the
// layer they watch does any work.
func (def *workloadDef) has(metric string) bool {
	switch {
	case metric == "log_bytes_per_txn" || strings.HasPrefix(metric, "device."):
		return def.kind == interactive && def.spec.log != logNone
	case metric == "recover_txn_per_s" || strings.HasPrefix(metric, "core.recover_"):
		return def.kind == restart
	case metric == "det.plan_us_per_batch" || metric == "core.det_execute_us_per_batch":
		return def.kind == detBatches
	case metric == "commit_p99_us":
		return def.samplesPerWindow() >= p99Samples
	case metric == "core.aborts_per_commit",
		strings.HasPrefix(metric, "core.") && strings.HasSuffix(metric, "_per_txn"):
		return def.kind != restart // a restart commits nothing
	}
	return true
}

// samplesPerWindow is the latency samples one window yields: a transaction
// each, a batch each on the deterministic path, one per restart.
func (def *workloadDef) samplesPerWindow() int {
	switch def.kind {
	case interactive:
		return def.spec.workers * def.perWindow
	case detBatches:
		return def.perWindow
	}
	return 1
}

func findWorkload(name string) (*workloadDef, error) {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// shrunk returns def at 1/k size: the smoke test runs every workload at
// k = 100, everything else at k = 1.
func (def workloadDef) shrunk(k int) workloadDef {
	if k <= 1 {
		return def
	}
	def.perWindow = max(def.perWindow/k, 10)
	def.spec.records = max(def.spec.records/uint64(k), 1024)
	def.spec.tpccShrink = k
	def.windowSeconds = 2 // one warm-up window, five measured
	return def
}

// runOpts are one run's arguments.
type runOpts struct {
	seed     uint64
	seconds  int
	trace    bool
	traceDir string
	// shrink divides workload and probe sizes; 1 outside the smoke test.
	shrink int
}

// windows is the measured window count; warmWindows the untimed ones before
// them (two seconds' worth: caches, lazy per-worker state, first-touch
// per-record metadata).
func (o runOpts) windows(def *workloadDef) int {
	return max(5, int(float64(o.seconds)/def.windowSeconds+0.5))
}

func warmWindows(def *workloadDef) int {
	return max(1, int(2/def.windowSeconds+0.5))
}

// spanCapacity sizes a span buffer: nothing when the run is not traced.
func (o runOpts) spanCapacity(n int) int {
	if !o.trace {
		return 0
	}
	return n
}

// runWorkload runs one workload once and returns everything it measured.
// An error means the run could not be carried out; a failed correctness
// check is reported in the result instead.
func runWorkload(def *workloadDef, o runOpts) (*result, error) {
	sized := def.shrunk(o.shrink)
	run := runInteractive
	switch def.kind {
	case detBatches:
		run = runDet
	case restart:
		run = runRestart
	}
	r := newResult(&sized, o.seed, o.trace)
	if err := run(&sized, o, r); err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	if o.trace {
		if err := runProbes(o, r); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", def.name, err)
		}
	}
	return r, nil
}
