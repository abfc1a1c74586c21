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

		doVerify = flag.Bool("verify", false, "run a contended isolation-anomaly sweep across all protocols and exit: each protocol drives the stamped verification probe and its recorded history is checked for Adya anomalies (G0/G1/G2); honors -threads, -seed, and -isolation")
		allocs   = flag.Bool("allocs", false, "measure heap allocs/txn and bytes/txn during the run (any mode: closed or -rate, interactive or -det) and append a row to the allocs report")
		out      = flag.String("out", "", "output path for the JSON report of a sweep or of -allocs (default BENCH_<sweep>.json: wal, det, overload, partition, recovery, allocs)")

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

		doOverload = flag.Bool("overload", false, "run the overload sweep and exit: measure closed-loop capacity, then offer 1x/2x/3x that rate open-loop, unprotected vs deadline+admission")

		doWALSweep = flag.Bool("wal-sweep", false, "run the parallel-WAL scaling sweep and exit: SILO + value logging on a bandwidth-limited simulated device at 1/2/4 streams")

		// Deterministic (queue-oriented) execution.
		doDet      = flag.Bool("det", false, "run a deterministic queue-oriented measurement: the sequencer plans seeded batches of declared access sets, per-partition executors drain priority queues abort-free, and the run prints the canonical state digest; honors -rate (batch-arrival open loop), -duration, -theta, -allocs")
		detBatch   = flag.Int("det-batch", 64, "deterministic mode: transactions sequenced per batch (each batch commits as one WAL epoch)")
		doDetSweep = flag.Bool("det-sweep", false, "run the deterministic-vs-interactive contention sweep and exit: DET (run twice, digests must match) vs NO_WAIT/SILO/MVCC on high-Zipfian YCSB, comparing goodput, abort rate, and tail latency")

		// Checkpointing / bounded recovery.
		doPartSweep = flag.Bool("partition-sweep", false, "run the partition-fault sweep and exit: on a partition-affinity WAL engine, measure healthy goodput, quarantine one partition and measure surviving-partition goodput plus terminal abort classification, then compare live single-partition recovery against whole-engine store recovery of the same history")

		doRecoverSweep = flag.Bool("recover-sweep", false, "run the checkpoint-interval recovery sweep and exit: build the same transaction history with checkpoints every {never, 16N, 4N, N} commits, crash-attach each store, and measure store-based recovery time vs full-log replay")
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

	c := common{Threads: *threads, Duration: *duration, Warmup: *warmup, Seed: *seed}
	runSweepOrDie := func(sw sweep) {
		if err := runSweep(os.Stdout, *out, sw); err != nil {
			fatal("%v", err)
		}
	}
	if *doWALSweep {
		runSweepOrDie(walSweep(c))
		return
	}
	if *doDetSweep {
		runSweepOrDie(detSweep(c, *detBatch, *theta))
		return
	}
	if *doPartSweep {
		runSweepOrDie(partitionSweep(c, *partitions))
		return
	}
	if *doRecoverSweep {
		runSweepOrDie(recoverSweep(c, recoverSweepOpts{
			Txns: *recoverTxns, Every: *ckptEvery, Keep: *ckptKeep, Streams: *walStreams, Dir: *ckptDir,
		}))
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
		Protocol:   *protocol,
		Threads:    *threads,
		Partitions: *partitions,
		Isolation:  *isolation,
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

	// Workloads are single-Setup, so every engine a run or sweep opens gets
	// a fresh one.
	var newWorkload func() workload.Workload
	switch *wlName {
	case "ycsb":
		newWorkload = func() workload.Workload {
			return workload.NewYCSB(workload.YCSBConfig{
				Records: *records, Theta: *theta, OpsPerTxn: *ops,
				ReadRatio: *reads, MultiPartitionFraction: *multiP,
			})
		}
	case "tpcc":
		newWorkload = func() workload.Workload {
			return workload.NewTPCC(workload.TPCCConfig{
				Warehouses: *warehouses, Items: *items, CustomersPerDistrict: *customers,
			})
		}
	case "smallbank":
		newWorkload = func() workload.Workload {
			return workload.NewSmallBank(workload.SmallBankConfig{
				Customers: *accounts, HotspotProb: *hotspot,
			})
		}
	default:
		fatal("unknown -workload %q", *wlName)
	}

	if *doOverload {
		runSweepOrDie(overloadSweep(c, cfg, newWorkload, *slo))
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
	engine := *protocol
	var res harness.Result
	if *doDet {
		// One deterministic queue-oriented measurement. Closed mode runs a
		// fixed batch count; -rate switches to batch-arrival open-loop mode
		// for -duration.
		da, ok := newWorkload().(workload.DeclaredAccess)
		if !ok {
			fatal("-det requires a workload with declared access sets (ycsb)")
		}
		if cfg.Partitions <= 0 {
			cfg.Partitions = *threads
		}
		engine = "DET(QSTORE)"
		dopts := harness.DetOptions{Batch: *detBatch, Batches: 64, WarmupBatches: 4}
		fmt.Printf("next700-bench: %s on %s, %d partitions, batches of %d\n",
			*wlName, engine, cfg.Partitions, dopts.Batch)
		res, err = harness.RunDet(cfg, da, opts, dopts)
	} else {
		fmt.Printf("next700-bench: %s on %s, %d threads, %v\n",
			*wlName, engine, *threads, *duration)
		res, err = harness.Run(cfg, newWorkload(), opts)
	}
	if err != nil {
		fatal("%v", err)
	}
	fmt.Print(res.Detail())
	if *doDet && res.Aborts != 0 {
		fatal("det: %d conflict aborts (deterministic execution must be abort-free)", res.Aborts)
	}
	if *doRecover {
		if cfg.LogMode == wal.ModeNone {
			fatal("-recover requires -log value|command")
		}
		printRecovery(cfg, newWorkload(), *logPath)
	}
	if *allocs {
		runSweepOrDie(allocsSweep(*wlName, engine, res))
	}
}

// allocsSweep is a one-row sweep: one (engine × workload) allocation
// measurement, appended to the report so successive runs accumulate a
// trajectory.
func allocsSweep(wlName, engine string, res harness.Result) sweep {
	return sweep{
		name:   "allocs",
		title:  "allocation report",
		params: map[string]interface{}{},
		axes:   []string{"workload", "engine", "threads"},
		cols:   []string{"commits", "tps", "allocs_per_txn", "bytes_per_txn"},
		extend: true,
		run: func(s *sweepRun) error {
			m := runMetrics(res)
			m["allocs_per_txn"] = metric{res.AllocsPerTxn, "allocs/txn"}
			m["bytes_per_txn"] = metric{res.BytesPerTxn, "B/txn"}
			s.row(map[string]interface{}{"workload": wlName, "engine": engine, "threads": res.Threads}, m)
			return nil
		},
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

// runTorture executes the seeded crash-recovery torture cell (one stream,
// byte crashes, torn tails) for both log modes and reports coverage. Any invariant violation is fatal and names
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
			res, err := torture.Run(torture.Scenario{
				Protocol: protocol, LogMode: m.mode, Fault: torture.FaultCrash, Seed: s,
			})
			if err != nil {
				fatal("torture %s seed %d: %v", m.name, s, err)
			}
			rd := res.Rounds[0]
			if rd.Crashed {
				crashed++
			}
			if rd.Recovery.TornBytes > 0 {
				torn++
			}
			acked += rd.Acked
		}
		fmt.Printf("  %-7s: %d iterations, %d crashed, %d torn tails, %d acked commits, 0 violations\n",
			m.name, iters, crashed, torn, acked)
	}
}

// printRecovery replays the just-written log into a fresh engine (same
// deterministic workload load) and prints what recovery saw, including the
// damage accounting for torn tails and CRC-corrupt final records: it pairs
// the manifest with the per-stream files and merges them by epoch.
func printRecovery(cfg core.Config, wl workload.Workload, logPath string) {
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
	if err := wl.Setup(e); err != nil {
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
	fmt.Printf("  recovery: streams=%d frontier_epoch=%d truncated=%d appliers=%d\n",
		st.Streams, st.FrontierEpoch, st.TruncatedRecords, st.Appliers)
}

// discardDevice drops log writes (used by the recovery-side engine, whose
// own re-logging output is irrelevant).
type discardDevice struct{}

func (discardDevice) Write(p []byte) (int, error) { return len(p), nil }
func (discardDevice) Sync() error                 { return nil }

// stopProfiles finishes the profiles main started. main defers it; fatal
// calls it because os.Exit runs no defers.
var stopProfiles = func() {}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "next700-bench: "+format+"\n", args...)
	stopProfiles()
	os.Exit(1)
}
