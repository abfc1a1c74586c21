// next700-bench runs a single (protocol × workload) measurement on the real
// engine and prints throughput, abort rate, and latency percentiles.
//
// Usage:
//
//	next700-bench -workload ycsb -protocol SILO -threads 8 -theta 0.8 -duration 2s
//	next700-bench -workload tpcc -protocol NO_WAIT -warehouses 4 -threads 4
//	next700-bench -workload smallbank -protocol MVCC -isolation snapshot
//	next700-bench -sweep verify -isolation snapshot
//	next700-bench -sweep e1,e2 -quick -duration 100ms
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sync"
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

		allocs = flag.Bool("allocs", false, "measure heap allocs/txn and bytes/txn during the run (any mode: closed or -rate, interactive or -det) and append a row to the allocs report")
		out    = flag.String("out", "", "output path for the JSON report of one -sweep or of -allocs (default BENCH_<sweep>.json)")

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

		// Deterministic (queue-oriented) execution.
		doDet    = flag.Bool("det", false, "run a deterministic queue-oriented measurement: the sequencer plans seeded batches of declared access sets, per-partition executors drain priority queues abort-free, and the run prints the canonical state digest; honors -rate (batch-arrival open loop), -duration, -theta, -allocs")
		detBatch = flag.Int("det-batch", 64, "deterministic mode: transactions sequenced per batch (each batch commits as one WAL epoch)")

		// Sweeps: named grids of runs, each with its checks and one report.
		sweepList = flag.String("sweep", "", "run these sweeps (comma-separated) and exit, each writing BENCH_<name>.json: wal (parallel-WAL scaling), det (deterministic vs interactive), overload (open loop, unprotected vs deadline+admission), partition (partition-fault isolation), recovery (checkpoint interval vs recovery time), verify (Adya anomalies of every protocol under -isolation), and the experiments e1,e2,e4..e12,e14,e15 (EXPERIMENTS.md)")
		quick     = flag.Bool("quick", false, "experiment sweeps: small data scale (YCSB records, TPC-C size, E7's core list); run length, warm-up and seed stay -duration, -warmup and -seed")

		recoverTxns = flag.Int("recover-txns", 0, "recovery sweep: total committed transactions of history per point (default 125000)")
		ckptDir     = flag.String("ckpt-dir", "", "recovery sweep: checkpoint store scratch directory (default: a temp dir, removed afterwards)")
		ckptEvery   = flag.Int("ckpt-every", 0, "recovery sweep: finest checkpoint interval N in commits (default 2000)")
		ckptKeep    = flag.Int("ckpt-keep", 0, "recovery sweep: checkpoint generations to retain (default 2)")

		// Runtime profiles of whatever the other flags select.
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file when the run ends (go tool pprof)")
		execTrace  = flag.String("trace", "", "write a runtime execution trace of the run to this file (go tool trace)")
	)
	flag.Parse()

	err := startProfiles(*cpuProfile, *memProfile, *execTrace)
	if err != nil {
		fatal("profiles: %v", err)
	}
	defer stopProfiles()

	var picked []func(common) sweep
	if *sweepList != "" {
		if picked, err = selectSweeps(*sweepList, *out); err != nil {
			fatal("%v", err)
		}
	}
	if *tortureN > 0 {
		runTorture(*protocol, *tortureN, *seed)
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
		devs, closeLog, err := openLog(*logPath, *walStreams, *logMode)
		if err != nil {
			fatal("open log: %v", err)
		}
		defer closeLog()
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

	if picked != nil {
		a := common{
			Threads: *threads, Duration: *duration, Warmup: *warmup, Seed: *seed,
			quick: *quick, partitions: *partitions, detBatch: *detBatch, theta: *theta,
			recover: recoverSweepOpts{
				Txns: *recoverTxns, Every: *ckptEvery, Keep: *ckptKeep, Streams: *walStreams, Dir: *ckptDir,
			},
			cfg: cfg, newWorkload: newWorkload, slo: *slo,
		}
		// Every named sweep runs and writes its report; a failed one fails
		// the invocation at the end.
		failed := 0
		for _, build := range picked {
			if err := runSweep(os.Stdout, *out, build(a)); err != nil {
				fmt.Fprintf(os.Stderr, "next700-bench: %v\n", err)
				failed++
			}
		}
		if failed > 0 {
			fatal("%d of %d sweeps failed", failed, len(picked))
		}
		return
	}

	opts := harness.RunOptions{
		Threads: *threads, Duration: *duration, WarmupTxns: *warmup, Seed: *seed,
		MeasureAllocs: *allocs,
		OfferedRate:   *rate,
		Deadline:      *deadlineD,
		GoodputWindow: *slo,
	}
	if *admit {
		opts.Admission = &admission.Config{
			MaxInFlight: *admitMax, MaxQueueWait: *admitQueue, TargetLatency: *admitTarget,
		}
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
		st, took, err := recoverLog(cfg, newWorkload(), *logPath)
		if err != nil {
			fatal("recover: %v", err)
		}
		fmt.Printf("  recovery: records=%d entries=%d skipped=%d procs=%d bytes=%d torn_bytes=%d corrupt_tail=%d in %v\n",
			st.Records, st.Entries, st.Skipped, st.Procs, st.Bytes, st.TornBytes, st.CorruptTailRecords, took.Round(time.Millisecond))
		fmt.Printf("  recovery: streams=%d frontier_epoch=%d truncated=%d appliers=%d\n",
			st.Streams, st.FrontierEpoch, st.TruncatedRecords, st.Appliers)
	}
	if *allocs {
		if err := runSweep(os.Stdout, *out, allocsSweep(*wlName, engine, res)); err != nil {
			fatal("%v", err)
		}
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

// verifySweep drives the stamped verification probe under contention on
// every protocol and checks each recorded history for Adya anomalies
// (G0/G1/G2). Any anomaly fails the run; -isolation snapshot is the way to
// watch MVCC legitimately admit write skew (G2).
func verifySweep(a common) sweep {
	const txnsPerWorker = 400
	iso, threads := a.cfg.Isolation, max(a.Threads, 1)
	var found []string
	return gridSweep("verify", fmt.Sprintf("isolation-anomaly sweep, %d threads × %d txns, 16 keys", threads, txnsPerWorker),
		[2]string{"protocol", "threads"}, cc.Names(), []float64{float64(threads)},
		map[string]interface{}{"isolation": iso, "txns_per_worker": txnsPerWorker, "keys": 16},
		[]string{"txns", "aborted_attempts", "edges", "anomalies"},
		func(p string, _ float64) (map[string]metric, error) {
			res, err := harness.Run(core.Config{Protocol: p, Threads: threads, Isolation: iso},
				verify.NewProbe(verify.ProbeConfig{Keys: 16, MinOps: 2, MaxOps: 4}),
				harness.RunOptions{TxnsPerWorker: txnsPerWorker, Verify: true, Seed: a.Seed})
			if err != nil {
				return nil, err
			}
			rep := res.Verification
			for _, an := range rep.Anomalies[:min(len(rep.Anomalies), 3)] {
				found = append(found, fmt.Sprintf("%s: %s", p, an))
			}
			return map[string]metric{
				"txns": count(uint64(rep.Txns)), "aborted_attempts": count(uint64(rep.AbortedTxns)),
				"edges": count(uint64(rep.Edges)), "anomalies": count(uint64(len(rep.Anomalies))),
			}, nil
		},
		func(s *sweepRun, _ cells) {
			s.check("anomaly_free", len(found) == 0, "the first anomalies of each protocol: %v", found)
		})
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

// openLog creates the log at the -logpath prefix path: stream i is the file
// <path>.<i>, and <path>.manifest.json pairs them for recovery. The manifest
// is wal.SaveManifestFile's CRC-sealed atomic install, so a previous run's
// copy stays beside it as <path>.manifest.json.prev.
func openLog(path string, streams int, mode string) ([]wal.Device, func(), error) {
	var files []*os.File
	closeLog := func() {
		for _, f := range files {
			f.Close()
		}
	}
	err := wal.SaveManifestFile(path+".manifest.json", wal.Manifest{Streams: streams, Mode: mode})
	devs := make([]wal.Device, streams)
	for i := 0; i < streams && err == nil; i++ {
		var f *os.File
		if f, err = os.OpenFile(fmt.Sprintf("%s.%d", path, i), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644); err == nil {
			files, devs[i] = append(files, f), f
		}
	}
	if err != nil {
		closeLog()
		return nil, nil, err
	}
	return devs, closeLog, nil
}

// recoverLog replays the log openLog made at path into a fresh engine for
// cfg loaded with wl (the same deterministic load), merging the manifest's
// streams by epoch. The time is the replay's alone.
func recoverLog(cfg core.Config, wl workload.Workload, path string) (st core.RecoveryStats, took time.Duration, err error) {
	m, _, err := wal.LoadManifestFile(path + ".manifest.json")
	readers := make([]io.Reader, m.Streams)
	for i := 0; i < m.Streams && err == nil; i++ {
		var lf *os.File
		if lf, err = os.Open(fmt.Sprintf("%s.%d", path, i)); err == nil {
			defer lf.Close()
			readers[i] = lf
		}
	}
	if err != nil {
		return st, 0, err
	}
	// The replay engine's own log is irrelevant: one stream into a discard
	// device, however the recovered log was sharded.
	cfg.LogDevice, cfg.WALStreams, cfg.LogDevices = discardDevice{}, 0, nil
	e, err := core.Open(cfg)
	if err != nil {
		return st, 0, err
	}
	defer e.Close()
	if err := wl.Setup(e); err != nil {
		return st, 0, err
	}
	t0 := time.Now()
	st, err = e.RecoverStreams(readers)
	return st, time.Since(t0), err
}

// discardDevice drops log writes (the recovery-side engine's log, which
// replay never writes to).
type discardDevice struct{}

func (discardDevice) Write(p []byte) (int, error) { return len(p), nil }
func (discardDevice) Sync() error                 { return nil }

// startProfiles starts the runtime profiles behind -cpuprofile, -memprofile
// and -trace (an empty path leaves that one off) and sets stopProfiles to
// finish them: it ends the CPU profile and the execution trace, writes the
// heap profile after a GC (live memory, not garbage) and closes every file.
// main defers stopProfiles and fatal calls it, because os.Exit runs no
// defers; it does its work once. On error nothing is left running or open.
func startProfiles(cpuPath, memPath, tracePath string) error {
	var files []*os.File
	var once sync.Once
	stopProfiles = func() {
		once.Do(func() {
			pprof.StopCPUProfile()
			trace.Stop()
			for _, f := range files {
				f.Close()
			}
			if memPath == "" {
				return
			}
			f, err := os.Create(memPath)
			if err == nil {
				runtime.GC()
				err = errors.Join(pprof.WriteHeapProfile(f), f.Close())
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		})
	}
	for _, p := range []struct {
		path  string
		start func(io.Writer) error
	}{{cpuPath, pprof.StartCPUProfile}, {tracePath, trace.Start}} {
		if p.path == "" {
			continue
		}
		f, err := os.Create(p.path)
		if err == nil {
			files = append(files, f)
			err = p.start(f)
		}
		if err != nil {
			memPath = "" // a run that never started has no heap worth writing
			stopProfiles()
			return err
		}
	}
	return nil
}

// stopProfiles finishes the profiles startProfiles started.
var stopProfiles = func() {}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "next700-bench: "+format+"\n", args...)
	stopProfiles()
	os.Exit(1)
}
