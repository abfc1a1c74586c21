package harness

import (
	"strings"
	"testing"
	"time"

	"next700/internal/core"
	"next700/internal/fault"
	"next700/internal/verify"
	"next700/internal/wal"
	"next700/internal/workload"
)

func TestRunFixedCount(t *testing.T) {
	r, err := Run(core.Config{Protocol: "SILO", Threads: 2},
		workload.NewYCSB(workload.YCSBConfig{Records: 1024, OpsPerTxn: 4}),
		RunOptions{Threads: 2, TxnsPerWorker: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Commits != 200 {
		t.Fatalf("commits %d", r.Commits)
	}
	if r.Latency.Count != 200 {
		t.Fatalf("latency samples %d", r.Latency.Count)
	}
	if r.Tps <= 0 || r.Protocol != "SILO" || r.Workload != "ycsb" {
		t.Fatalf("bad result: %+v", r)
	}
	if !strings.Contains(r.String(), "SILO") {
		t.Fatal("result String missing protocol")
	}
}

func TestRunDurationMode(t *testing.T) {
	r, err := Run(core.Config{Protocol: "NO_WAIT", Threads: 2},
		workload.NewYCSB(workload.YCSBConfig{Records: 1024, OpsPerTxn: 4}),
		RunOptions{Threads: 2, Duration: 50 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Commits == 0 {
		t.Fatal("no commits in duration mode")
	}
	if r.Elapsed < 50*time.Millisecond {
		t.Fatalf("elapsed %v below duration", r.Elapsed)
	}
}

func TestRunWarmupExcluded(t *testing.T) {
	r, err := Run(core.Config{Protocol: "SILO", Threads: 1},
		workload.NewYCSB(workload.YCSBConfig{Records: 512, OpsPerTxn: 2}),
		RunOptions{Threads: 1, TxnsPerWorker: 50, WarmupTxns: 25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Commits != 50 {
		t.Fatalf("warmup leaked into counters: %d commits", r.Commits)
	}
}

func TestRunBadConfig(t *testing.T) {
	_, err := Run(core.Config{Protocol: "NOPE"},
		workload.NewYCSB(workload.YCSBConfig{Records: 64}), RunOptions{TxnsPerWorker: 1})
	if err == nil {
		t.Fatal("bad protocol accepted")
	}
}

// TestRunVerifyProbe: a Verify run with the stamped probe produces a checked
// report covering every transaction, including warmup; without Verify, no
// report exists.
func TestRunVerifyProbe(t *testing.T) {
	r, err := Run(core.Config{Protocol: "SILO", Threads: 2},
		verify.NewProbe(verify.ProbeConfig{Keys: 8}),
		RunOptions{Threads: 2, TxnsPerWorker: 50, WarmupTxns: 10, Seed: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Verification
	if rep == nil {
		t.Fatal("Verify run produced no report")
	}
	if want := 2 * (50 + 10); rep.Txns != want {
		t.Fatalf("report covers %d txns, want %d (warmup included)", rep.Txns, want)
	}
	if !rep.Ok() {
		t.Fatalf("anomalies on SILO: %v", rep.Anomalies)
	}

	r, err = Run(core.Config{Protocol: "SILO", Threads: 2},
		verify.NewProbe(verify.ProbeConfig{Keys: 8}),
		RunOptions{Threads: 2, TxnsPerWorker: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verification != nil {
		t.Fatal("report present without Verify")
	}
}

// TestRunVerifyRequiresRecordable: Verify on a workload that cannot record
// is a setup error, not a silent no-op.
func TestRunVerifyRequiresRecordable(t *testing.T) {
	_, err := Run(core.Config{Protocol: "SILO", Threads: 1},
		workload.NewYCSB(workload.YCSBConfig{Records: 64}),
		RunOptions{TxnsPerWorker: 1, Verify: true})
	if err == nil || !strings.Contains(err.Error(), "verification") {
		t.Fatalf("non-recordable workload accepted for Verify: err=%v", err)
	}
}

// TestDriveWindowsOnOneEngine: Drive measures an engine it neither opens nor
// closes, and each call's Result is that window's counter delta alone —
// not the engine's running total, and not the second window's warm-up.
func TestDriveWindowsOnOneEngine(t *testing.T) {
	e, err := core.Open(core.Config{Protocol: "SILO", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	wl := workload.NewYCSB(workload.YCSBConfig{Records: 1024, OpsPerTxn: 4})
	if err := wl.Setup(e); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []RunOptions{
		{Threads: 2, TxnsPerWorker: 100, Seed: 1},
		{Threads: 2, TxnsPerWorker: 30, WarmupTxns: 10, Seed: 2},
	} {
		r, err := Drive(e, wl, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(opts.TxnsPerWorker * opts.Threads); r.Commits != want || r.Latency.Count != want {
			t.Fatalf("window of %d×%d: %d commits, %d latency samples", opts.TxnsPerWorker, opts.Threads, r.Commits, r.Latency.Count)
		}
		if r.Protocol != "SILO" || r.Workload != "ycsb" {
			t.Fatalf("result names %q/%q", r.Protocol, r.Workload)
		}
	}
	if _, err := Drive(e, wl, RunOptions{Threads: 3, TxnsPerWorker: 1}); err == nil {
		t.Fatal("Drive accepted more workers than the engine has threads")
	}
}

// TestDrivePartitionAborts: on a PartitionWAL engine with one partition
// quarantined, every transaction of the worker homed there aborts with
// core.ErrPartitionUnavailable. That is a measured outcome, like a deadline
// abort: the run completes and counts it, and the other worker commits.
func TestDrivePartitionAborts(t *testing.T) {
	const parts, n = 2, 100
	e, err := core.Open(core.Config{
		Protocol: "SILO", Threads: parts, Partitions: parts, LogMode: wal.ModeValue,
		WALStreams: parts, LogDevices: []wal.Device{&fault.MemDevice{}, &fault.MemDevice{}}, PartitionWAL: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	wl := workload.NewYCSB(workload.YCSBConfig{Records: 1024, OpsPerTxn: 4, PartitionLocal: true})
	if err := wl.Setup(e); err != nil {
		t.Fatal(err)
	}
	if err := e.QuarantinePartition(1); err != nil {
		t.Fatal(err)
	}
	r, err := Drive(e, wl, RunOptions{TxnsPerWorker: n, Seed: 1})
	if err != nil {
		t.Fatalf("a partition abort ended the run: %v", err)
	}
	if r.PartitionAborts != n || r.Commits != n {
		t.Fatalf("%d partition aborts and %d commits, want %d of each", r.PartitionAborts, r.Commits, n)
	}
}
