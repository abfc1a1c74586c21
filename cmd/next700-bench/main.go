// next700-bench runs a single (protocol × workload) measurement on the real
// engine and prints throughput, abort rate, and latency percentiles.
//
// Usage:
//
//	next700-bench -workload ycsb -protocol SILO -threads 8 -theta 0.8 -duration 2s
//	next700-bench -workload tpcc -protocol NO_WAIT -warehouses 4 -threads 4
//	next700-bench -workload smallbank -protocol MVCC -isolation snapshot
//	next700-bench -verify
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"next700/internal/admission"
	"next700/internal/cc"
	"next700/internal/core"
	"next700/internal/harness"
	"next700/internal/torture"
	"next700/internal/verify"
	"next700/internal/wal"
	"next700/internal/workload"
)

func main() {
	var (
		wlName     = flag.String("workload", "ycsb", "workload: ycsb | tpcc | smallbank")
		protocol   = flag.String("protocol", "SILO", "concurrency control protocol")
		threads    = flag.Int("threads", 4, "worker threads")
		partitions = flag.Int("partitions", 0, "partitions (default threads)")
		isolation  = flag.String("isolation", "", "MVCC isolation: serializable|snapshot|read-committed")
		duration   = flag.Duration("duration", 2*time.Second, "measurement duration")
		warmup     = flag.Int("warmup", 200, "warmup transactions per worker")
		seed       = flag.Uint64("seed", 42, "random seed")
		logMode    = flag.String("log", "none", "durability: none | value | command")
		logPath    = flag.String("logpath", "", "WAL path prefix (required for -log != none): the log is written to <logpath>.<i>, one file per stream, plus <logpath>.manifest.json for -recover")
		gcWindow   = flag.Duration("groupcommit", time.Millisecond, "group commit window: the log's epoch advance period (0 = flush on every commit; -det with -log pins it to 0)")
		walStreams = flag.Int("wal-streams", 1, "WAL stream count: the log is one StreamSet sharded across this many files with an epoch-based durable frontier (1 = the classic single log, same code)")

		// YCSB knobs.
		records = flag.Uint64("records", 262144, "ycsb: table size")
		theta   = flag.Float64("theta", 0, "ycsb: zipf skew [0,1)")
		ops     = flag.Int("ops", 16, "ycsb: accesses per txn")
		reads   = flag.Float64("reads", 0.5, "ycsb: read fraction")
		multiP  = flag.Float64("multipartition", 0, "ycsb: multi-partition txn fraction")

		// TPC-C knobs.
		warehouses = flag.Int("warehouses", 4, "tpcc: warehouse count")
		items      = flag.Int("items", 100000, "tpcc: item count")
		customers  = flag.Int("customers", 3000, "tpcc: customers per district")

		// SmallBank knobs.
		accounts = flag.Uint64("accounts", 100000, "smallbank: account count")
		hotspot  = flag.Float64("hotspot", 0.25, "smallbank: hotspot access probability")

		doVerify  = flag.Bool("verify", false, "run a contended isolation-anomaly sweep across all protocols and exit: each protocol drives the stamped verification probe and its recorded history is checked for Adya anomalies (G0/G1/G2); honors -threads, -seed, and -isolation")
		allocs    = flag.Bool("allocs", false, "measure heap allocs/txn and bytes/txn during the run")
		allocsOut = flag.String("allocsout", "BENCH_allocs.json", "output path for the -allocs JSON report")

		// Retry/backoff policy (0 keeps the engine default).
		retryAttempts = flag.Int("retry-attempts", 0, "max attempts per txn before livelock error")
		retrySpin     = flag.Int("retry-spin", 0, "leading retries that only yield, no sleep")
		retryBase     = flag.Duration("retry-base", 0, "first sleeping retry's backoff jitter ceiling")
		retryMax      = flag.Duration("retry-max", 0, "exponential backoff ceiling cap")

		doRecover = flag.Bool("recover", false, "after the run, replay the log into a fresh engine and print recovery stats (requires -log)")
		tortureN  = flag.Int("torture", 0, "run N seeded crash-recovery torture iterations per log mode and exit")

		// Deadlines, open-loop load, and admission control.
		rate        = flag.Float64("rate", 0, "open-loop offered arrival rate in txns/sec (seeded Poisson); 0 = closed loop")
		deadlineD   = flag.Duration("deadline", 0, "per-transaction deadline, enforced through every engine wait (0 = none)")
		slo         = flag.Duration("slo", 0, "goodput window: commits slower than this (arrival to completion) count as late, not good (default -deadline)")
		admit       = flag.Bool("admit", false, "gate transactions through an admission controller (bounded in-flight + queue-deadline shedding)")
		admitMax    = flag.Int("admit-max", 0, "admission: max in-flight transactions (default 2×GOMAXPROCS)")
		admitQueue  = flag.Duration("admit-queue", 0, "admission: max wait for a slot before shedding (0 = bounded only by -deadline)")
		admitTarget = flag.Duration("admit-target", 0, "admission: AIMD target service latency; adapts the in-flight limit (0 = fixed limit)")

		admitParts = flag.Bool("admit-partitioned", false, "admission: one controller per engine partition (home-partition gating) instead of one global limit")

		// Open-loop arrival-queue discipline.
		queueLIFOAge       = flag.Duration("queue-lifo-age", 0, "open-loop queue: serve newest-first while the oldest waiting arrival is older than this (adaptive LIFO; 0 = strict FIFO)")
		queueCoDelTarget   = flag.Duration("queue-codel-target", 0, "open-loop queue: CoDel head-age target; sustained excess evicts the oldest arrivals at enqueue (0 = off)")
		queueCoDelInterval = flag.Duration("queue-codel-interval", 0, "open-loop queue: CoDel tolerance interval before dropping starts (default 100ms)")

		doOverload  = flag.Bool("overload", false, "run the overload sweep and exit: measure closed-loop capacity, then offer 1x/2x/3x that rate open-loop, unprotected vs deadline+admission")
		overloadOut = flag.String("overload-out", "BENCH_overload.json", "output path for the -overload JSON report")

		doWALSweep = flag.Bool("wal-sweep", false, "run the parallel-WAL scaling sweep and exit: SILO + value logging on a bandwidth-limited simulated device at 1/2/4 streams; writes -wal-out")
		walOut     = flag.String("wal-out", "BENCH_wal.json", "output path for the -wal-sweep JSON report")

		// Deterministic (queue-oriented) execution.
		doDet      = flag.Bool("det", false, "run a deterministic queue-oriented measurement: the sequencer plans seeded batches of declared access sets, per-partition executors drain priority queues abort-free, and the run prints the canonical state digest; honors -rate (batch-arrival open loop), -duration, -theta, -allocs")
		detBatch   = flag.Int("det-batch", 64, "deterministic mode: transactions sequenced per batch (each batch commits as one WAL epoch)")
		doDetSweep = flag.Bool("det-sweep", false, "run the deterministic-vs-interactive contention sweep and exit: DET (run twice, digests must match) vs NO_WAIT/SILO/MVCC on high-Zipfian YCSB, comparing goodput, abort rate, and tail latency; writes -det-out")
		detOut     = flag.String("det-out", "BENCH_det.json", "output path for the -det-sweep JSON report")

		// Checkpointing / bounded recovery.
		doPartSweep = flag.Bool("partition-sweep", false, "run the partition-fault sweep and exit: on a partition-affinity WAL engine, measure healthy goodput, quarantine one partition and measure surviving-partition goodput plus terminal abort classification, then compare live single-partition recovery against whole-engine store recovery of the same history; writes -partition-out")
		partOut     = flag.String("partition-out", "BENCH_partition.json", "output path for the -partition-sweep JSON report")

		doRecoverSweep = flag.Bool("recover-sweep", false, "run the checkpoint-interval recovery sweep and exit: build the same transaction history with checkpoints every {never, 16N, 4N, N} commits, crash-attach each store, and measure store-based recovery time vs full-log replay; writes -recover-out")
		recoverOut     = flag.String("recover-out", "BENCH_recovery.json", "output path for the -recover-sweep JSON report")
		recoverTxns    = flag.Int("recover-txns", 0, "recover-sweep: total committed transactions of history per point (default 125000)")
		ckptDir        = flag.String("ckpt-dir", "", "recover-sweep: checkpoint store scratch directory (default: a temp dir, removed afterwards)")
		ckptEvery      = flag.Int("ckpt-every", 0, "recover-sweep: finest checkpoint interval N in commits (default 2000)")
		ckptKeep       = flag.Int("ckpt-keep", 0, "recover-sweep: checkpoint generations to retain (default 2)")

		// Runtime profiles of whatever the other flags select.
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file when the run ends (go tool pprof)")
		execTrace  = flag.String("trace", "", "write a runtime execution trace of the run to this file (go tool trace)")
	)
	flag.Parse()

	stop, err := harness.StartProfiles(*cpuProfile, *memProfile, *execTrace)
	if err != nil {
		fatal("profiles: %v", err)
	}
	stopProfiles = stop
	defer stopProfiles()

	if *doWALSweep {
		runWALSweep(walSweepOpts{
			Threads: *threads, Duration: *duration, Warmup: *warmup,
			Seed: *seed, Out: *walOut,
		})
		return
	}
	if *doDetSweep {
		runDetSweep(detSweepOpts{
			Threads: *threads, Batch: *detBatch, Duration: *duration,
			Seed: *seed, Theta: *theta, Out: *detOut,
		})
		return
	}
	if *doPartSweep {
		runPartitionSweep(partitionSweepOpts{
			Partitions: *partitions, Duration: *duration, Seed: *seed, Out: *partOut,
		})
		return
	}
	if *doRecoverSweep {
		runRecoverSweep(recoverSweepOpts{
			Threads: *threads, Txns: *recoverTxns, Every: *ckptEvery,
			Keep: *ckptKeep, Streams: *walStreams, Seed: *seed,
			Dir: *ckptDir, Out: *recoverOut,
		})
		return
	}
	if *tortureN > 0 {
		runTorture(*protocol, *tortureN, *seed)
		return
	}
	if *doVerify {
		runVerifySweep(*isolation, *threads, *seed)
		return
	}

	cfg := core.Config{
		Protocol:          *protocol,
		Threads:           *threads,
		Partitions:        *partitions,
		Isolation:         *isolation,
		GroupCommitWindow: *gcWindow,
	}
	switch *logMode {
	case "none":
	case "value":
		cfg.LogMode = wal.ModeValue
	case "command":
		cfg.LogMode = wal.ModeCommand
	default:
		fatal("unknown -log %q", *logMode)
	}
	if cfg.LogMode != wal.ModeNone {
		if *logPath == "" {
			fatal("-log %s requires -logpath", *logMode)
		}
		if *walStreams < 1 {
			fatal("-wal-streams must be >= 1")
		}
		devs := make([]wal.Device, *walStreams)
		for i := range devs {
			f, err := os.OpenFile(fmt.Sprintf("%s.%d", *logPath, i),
				os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
			if err != nil {
				fatal("open log stream %d: %v", i, err)
			}
			defer f.Close()
			devs[i] = f
		}
		mf, err := os.Create(*logPath + ".manifest.json")
		if err != nil {
			fatal("create manifest: %v", err)
		}
		if err := wal.WriteManifest(mf, wal.Manifest{Streams: *walStreams, Mode: *logMode}); err != nil {
			fatal("write manifest: %v", err)
		}
		mf.Close()
		cfg.LogDevices = devs
	}

	var wl workload.Workload
	switch *wlName {
	case "ycsb":
		wl = workload.NewYCSB(workload.YCSBConfig{
			Records: *records, Theta: *theta, OpsPerTxn: *ops,
			ReadRatio: *reads, MultiPartitionFraction: *multiP,
		})
	case "tpcc":
		wl = workload.NewTPCC(workload.TPCCConfig{
			Warehouses: *warehouses, Items: *items, CustomersPerDistrict: *customers,
		})
	case "smallbank":
		wl = workload.NewSmallBank(workload.SmallBankConfig{
			Customers: *accounts, HotspotProb: *hotspot,
		})
	default:
		fatal("unknown -workload %q", *wlName)
	}

	if *doDet {
		da, ok := wl.(workload.DeclaredAccess)
		if !ok {
			fatal("-det requires a workload with declared access sets (ycsb)")
		}
		parts := *partitions
		if parts <= 0 {
			parts = *threads
		}
		if cfg.LogMode != wal.ModeNone {
			// A logged batch seals as exactly one epoch, so the log must not
			// advance epochs on a timer (core.NewDetExecutor enforces it at
			// every stream count). The -groupcommit default is for the
			// interactive path; only an explicit non-zero value is an error.
			flag.Visit(func(f *flag.Flag) {
				if f.Name == "groupcommit" && *gcWindow != 0 {
					fatal("-det with -log %s requires -groupcommit 0 (each batch seals as one epoch)", *logMode)
				}
			})
			cfg.GroupCommitWindow = 0
		}
		runDet(cfg, da, detOpts{
			Partitions: parts, Batch: *detBatch, Batches: 64,
			Seed: *seed, Rate: *rate, Duration: *duration, Allocs: *allocs,
		})
		return
	}

	if *doOverload {
		runOverload(cfg, wl, overloadOpts{
			Threads: *threads, Duration: *duration, Warmup: *warmup,
			Seed: *seed, SLO: *slo, Out: *overloadOut,
		})
		return
	}

	opts := harness.RunOptions{
		Threads: *threads, Duration: *duration, WarmupTxns: *warmup, Seed: *seed,
		MeasureAllocs: *allocs,
		Retry: core.RetryPolicy{
			MaxAttempts: *retryAttempts, SpinAttempts: *retrySpin,
			BaseDelay: *retryBase, MaxDelay: *retryMax,
		},
		OfferedRate:        *rate,
		Deadline:           *deadlineD,
		GoodputWindow:      *slo,
		QueueLIFOAge:       *queueLIFOAge,
		QueueCoDelTarget:   *queueCoDelTarget,
		QueueCoDelInterval: *queueCoDelInterval,
	}
	if *admit {
		opts.Admission = &admission.Config{
			MaxInFlight: *admitMax, MaxQueueWait: *admitQueue, TargetLatency: *admitTarget,
		}
		opts.AdmissionPerPartition = *admitParts
	}
	fmt.Printf("next700-bench: %s on %s, %d threads, %v\n",
		*wlName, *protocol, *threads, *duration)
	res, err := harness.Run(cfg, wl, opts)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(res)
	fmt.Printf("  commits=%d aborts=%d user_aborts=%d fatal_aborts=%d deadline_aborts=%d shed=%d waits=%d\n",
		res.Commits, res.Aborts, res.UserAborts, res.FatalAborts, res.DeadlineAborts, res.ShedAborts, res.Waits)
	fmt.Printf("  latency: %s\n", res.Latency)
	if *rate > 0 {
		fmt.Printf("  open-loop: offered=%.0f/s arrivals=%d goodput=%.0f/s late=%d backlog=%d\n",
			res.Offered, res.Arrivals, res.Goodput, res.LateCommits, res.Backlog)
		if res.QueueDropped > 0 || res.QueueLIFOServed > 0 {
			fmt.Printf("  queue discipline: codel_dropped=%d lifo_served=%d\n",
				res.QueueDropped, res.QueueLIFOServed)
		}
		fmt.Printf("  queue: %s\n", res.QueueLatency)
		fmt.Printf("  e2e:   %s\n", res.E2ELatency)
		if res.AdmissionLimit > 0 {
			fmt.Printf("  admission limit: %d\n", res.AdmissionLimit)
		}
		if len(res.AdmissionLimits) > 0 {
			fmt.Printf("  per-partition limits: %v\n", res.AdmissionLimits)
		}
	}
	if *doRecover {
		if cfg.LogMode == wal.ModeNone {
			fatal("-recover requires -log value|command")
		}
		printRecovery(cfg, wl, *logPath)
	}
	if *allocs {
		fmt.Printf("  allocs/txn=%.2f bytes/txn=%.1f\n", res.AllocsPerTxn, res.BytesPerTxn)
		if err := writeAllocsReport(*allocsOut, *wlName, *protocol, res); err != nil {
			fatal("write allocs report: %v", err)
		}
		fmt.Printf("  allocs report: %s\n", *allocsOut)
	}
}

// runVerifySweep drives the stamped verification probe under contention on
// every protocol and prints per-protocol anomaly counts. Any anomaly under
// the default (serializable) isolation is fatal; sweeping with
// -isolation snapshot is the way to watch MVCC legitimately admit write
// skew (G2).
func runVerifySweep(isolation string, threads int, seed uint64) {
	if threads <= 0 {
		threads = 4
	}
	const txnsPerWorker = 400
	fmt.Printf("next700-bench: isolation-anomaly sweep, %d threads × %d txns, 16 keys\n",
		threads, txnsPerWorker)
	anomalous := false
	for _, protocol := range cc.Names() {
		probe := verify.NewProbe(verify.ProbeConfig{Keys: 16, MinOps: 2, MaxOps: 4})
		res, err := harness.Run(
			core.Config{Protocol: protocol, Threads: threads, Isolation: isolation},
			probe,
			harness.RunOptions{TxnsPerWorker: txnsPerWorker, Verify: true, Seed: seed},
		)
		if err != nil {
			fatal("verify %s: %v", protocol, err)
		}
		rep := res.Verification
		fmt.Printf("  %-10s txns=%-6d aborted_attempts=%-6d edges=%-8d anomalies=%d\n",
			protocol, rep.Txns, rep.AbortedTxns, rep.Edges, len(rep.Anomalies))
		for i, a := range rep.Anomalies {
			if i >= 3 {
				fmt.Printf("    ... and %d more\n", len(rep.Anomalies)-i)
				break
			}
			fmt.Printf("    %s\n", a)
		}
		if !rep.Ok() {
			anomalous = true
		}
	}
	if anomalous {
		fatal("isolation anomalies detected")
	}
	fmt.Println("  verify: all protocols anomaly-free")
}

// runTorture executes the seeded crash-recovery torture suite for both log
// modes and reports coverage. Any invariant violation is fatal and names
// the seed so the failure replays deterministically.
func runTorture(protocol string, iters int, seed uint64) {
	fmt.Printf("next700-bench: torture, %s, %d iterations per log mode\n", protocol, iters)
	for _, m := range []struct {
		name string
		mode wal.Mode
	}{{"value", wal.ModeValue}, {"command", wal.ModeCommand}} {
		var crashed, torn, acked int
		for i := 0; i < iters; i++ {
			s := seed + uint64(i)
			res, err := torture.Run(torture.Config{
				Protocol: protocol, LogMode: m.mode, Seed: s, TransientSyncEvery: 5,
			})
			if err != nil {
				fatal("torture %s seed %d: %v", m.name, s, err)
			}
			if res.Crashed {
				crashed++
			}
			if res.Recovery.TornBytes > 0 {
				torn++
			}
			acked += res.Acked
		}
		fmt.Printf("  %-7s: %d iterations, %d crashed, %d torn tails, %d acked commits, 0 violations\n",
			m.name, iters, crashed, torn, acked)
	}
}

// printRecovery replays the just-written log into a fresh engine (same
// deterministic workload load) and prints what recovery saw, including the
// damage accounting for torn tails and CRC-corrupt final records: it pairs
// the manifest with the per-stream files and merges them by epoch.
func printRecovery(cfg core.Config, template workload.Workload, logPath string) {
	// The replay engine's own log is irrelevant: run it one-stream into a
	// discard device regardless of how the recovered log was sharded.
	cfg.LogDevice = discardDevice{}
	cfg.WALStreams = 0
	cfg.LogDevices = nil
	e, err := core.Open(cfg)
	if err != nil {
		fatal("recover open: %v", err)
	}
	defer e.Close()
	if err := freshWorkload(template).Setup(e); err != nil {
		fatal("recover setup: %v", err)
	}
	t0 := time.Now()
	mf, err := os.Open(logPath + ".manifest.json")
	if err != nil {
		fatal("recover: %v", err)
	}
	m, err := wal.ReadManifest(mf)
	mf.Close()
	if err != nil {
		fatal("recover: %v", err)
	}
	readers := make([]io.Reader, m.Streams)
	for i := range readers {
		lf, err := os.Open(fmt.Sprintf("%s.%d", logPath, i))
		if err != nil {
			fatal("recover stream %d: %v", i, err)
		}
		defer lf.Close()
		readers[i] = lf
	}
	st, err := e.RecoverStreams(readers)
	if err != nil {
		fatal("recover: %v", err)
	}
	fmt.Printf("  recovery: records=%d entries=%d skipped=%d procs=%d bytes=%d torn_bytes=%d corrupt_tail=%d in %v\n",
		st.Records, st.Entries, st.Skipped, st.Procs, st.Bytes, st.TornBytes, st.CorruptTailRecords,
		time.Since(t0).Round(time.Millisecond))
	fmt.Printf("  recovery: streams=%d frontier_epoch=%d truncated=%d\n",
		st.Streams, st.FrontierEpoch, st.TruncatedRecords)
}

// discardDevice drops log writes (used by the recovery-side engine, whose
// own re-logging output is irrelevant).
type discardDevice struct{}

func (discardDevice) Write(p []byte) (int, error) { return len(p), nil }
func (discardDevice) Sync() error                 { return nil }

// allocsReport is one (protocol × workload) allocation measurement, written
// as JSON for trajectory tracking across runs.
type allocsReport struct {
	Workload     string  `json:"workload"`
	Protocol     string  `json:"protocol"`
	Threads      int     `json:"threads"`
	Commits      uint64  `json:"commits"`
	Tps          float64 `json:"tps"`
	AllocsPerTxn float64 `json:"allocs_per_txn"`
	BytesPerTxn  float64 `json:"bytes_per_txn"`
}

// writeAllocsReport appends the measurement to the JSON report: the file
// holds an array of rows so successive runs accumulate a trajectory.
func writeAllocsReport(path, wlName, protocol string, res harness.Result) error {
	var rows []allocsReport
	if prev, err := os.ReadFile(path); err == nil {
		// Best-effort: a corrupt or foreign file is restarted, not fatal.
		_ = json.Unmarshal(prev, &rows)
	}
	rows = append(rows, allocsReport{
		Workload:     wlName,
		Protocol:     protocol,
		Threads:      res.Threads,
		Commits:      res.Commits,
		Tps:          res.Tps,
		AllocsPerTxn: res.AllocsPerTxn,
		BytesPerTxn:  res.BytesPerTxn,
	})
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// freshWorkload clones a workload's configuration into an unused instance
// (workloads are single-Setup).
func freshWorkload(template workload.Workload) workload.Workload {
	switch w := template.(type) {
	case *workload.YCSB:
		return workload.NewYCSB(w.Config())
	case *workload.TPCC:
		return workload.NewTPCC(w.Config())
	case *workload.SmallBank:
		return workload.NewSmallBank(w.Config())
	default:
		return template
	}
}

// stopProfiles finishes the profiles main started. main defers it; fatal
// calls it because os.Exit runs no defers.
var stopProfiles = func() {}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "next700-bench: "+format+"\n", args...)
	stopProfiles()
	os.Exit(1)
}
