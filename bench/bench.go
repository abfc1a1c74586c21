// Package bench exposes the standard OLTP workloads (YCSB, TPC-C,
// SmallBank) and the measurement harness that drives them against an
// engine configuration — the public face of the repository's experiment
// machinery.
package bench

import (
	"next700/internal/core"
	"next700/internal/harness"
	"next700/internal/wal"
	"next700/internal/workload"
)

// Re-exported workload types and constructors.
type (
	// Workload is the interface the harness drives.
	Workload = workload.Workload
	// YCSB is the skewable key-value microbenchmark.
	YCSB = workload.YCSB
	// YCSBConfig parameterizes YCSB.
	YCSBConfig = workload.YCSBConfig
	// TPCC is the TPC-C order-entry benchmark.
	TPCC = workload.TPCC
	// TPCCConfig parameterizes TPC-C.
	TPCCConfig = workload.TPCCConfig
	// SmallBank is the six-procedure banking benchmark.
	SmallBank = workload.SmallBank
	// SmallBankConfig parameterizes SmallBank.
	SmallBankConfig = workload.SmallBankConfig
	// Result is one measurement row.
	Result = harness.Result
	// RunOptions controls a measurement run.
	RunOptions = harness.RunOptions
)

// Workload constructors.
var (
	// NewYCSB builds a YCSB workload.
	NewYCSB = workload.NewYCSB
	// NewTPCC builds a TPC-C workload.
	NewTPCC = workload.NewTPCC
	// NewSmallBank builds a SmallBank workload.
	NewSmallBank = workload.NewSmallBank
	// NewWorkload builds a default-configured workload by name
	// ("ycsb", "tpcc", "smallbank").
	NewWorkload = workload.New
)

// EngineConfig selects the engine design point for a measurement.
type EngineConfig struct {
	// Protocol is the concurrency-control scheme.
	Protocol string
	// Threads is the worker count.
	Threads int
	// Partitions is the partition count.
	Partitions int
	// Isolation tunes MVCC.
	Isolation string
	// LogMode and LogPath enable durability.
	LogMode wal.Mode
	// LogPath is the WAL file (temp file recommended for benchmarks).
	LogPath string
}

// Run measures one (engine, workload) combination: it opens a fresh engine,
// loads the workload, drives it per opts, closes the engine, and returns
// the result.
func Run(cfg EngineConfig, wl Workload, opts RunOptions) (Result, error) {
	c := core.Config{
		Protocol:   cfg.Protocol,
		Threads:    cfg.Threads,
		Partitions: cfg.Partitions,
		Isolation:  cfg.Isolation,
		LogMode:    cfg.LogMode,
	}
	if cfg.LogMode != wal.ModeNone && cfg.LogPath != "" {
		f, err := openLog(cfg.LogPath)
		if err != nil {
			return Result{}, err
		}
		defer f.Close()
		c.LogDevice = f
	}
	return harness.Run(c, wl, opts)
}
