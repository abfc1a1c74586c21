package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"next700/internal/core"
	"next700/internal/fault"
	"next700/internal/harness"
	"next700/internal/wal"
	"next700/internal/workload"
)

// walSweepOpts parameterizes the -wal-sweep run.
type walSweepOpts struct {
	Threads  int
	Duration time.Duration
	Warmup   int
	Seed     uint64
	Out      string
}

// walRow is one stream-count measurement in the JSON report.
type walRow struct {
	Streams int     `json:"streams"`
	Threads int     `json:"threads"`
	Commits uint64  `json:"commits"`
	Tps     float64 `json:"tps"`
	P50Ms   float64 `json:"p50_ms"`
	P99Ms   float64 `json:"p99_ms"`
	// LogBytes is the total bytes written across all streams (markers
	// included) — near-constant across rows, which is what makes the
	// throughput ratio a clean bandwidth-scaling measurement.
	LogBytes int64 `json:"log_bytes"`
	// SpeedupVs1 is Tps relative to the single-stream row.
	SpeedupVs1 float64 `json:"speedup_vs_1"`
}

// walReport is the full sweep, written as one JSON document.
type walReport struct {
	Workload string `json:"workload"`
	Protocol string `json:"protocol"`
	// DeviceByteLatencyUs and DeviceSyncLatencyUs describe the simulated
	// device: a per-byte write cost (≈1 MB/s at 1µs/byte) plus a fixed
	// sync cost, so a single log stream is bandwidth-bound and the sweep
	// measures how the commit path scales when the log splits.
	DeviceByteLatencyUs float64  `json:"device_byte_latency_us"`
	DeviceSyncLatencyUs float64  `json:"device_sync_latency_us"`
	Rows                []walRow `json:"rows"`
}

// runWALSweep measures commit-path throughput under value logging on a
// bandwidth-limited simulated device at 1, 2, and 4 WAL streams. Every
// transaction commits synchronously (waits for its record to be durable), so
// throughput is gated by how fast the log drains: one stream serializes all
// workers behind a single device's transfer time, while N streams split the
// byte load N ways and the epoch-based frontier keeps the durability
// guarantee global. The per-byte device cost is what real devices charge for
// bandwidth; the sweep's speedup at 4 streams is the parallel-WAL payoff.
func runWALSweep(o walSweepOpts) {
	// The sweep needs enough concurrency to saturate the simulated device:
	// with too few workers the run is commit-latency-bound and the stream
	// count barely matters. 16 is the floor; -threads can raise it.
	if o.Threads < 16 {
		o.Threads = 16
	}
	const (
		byteLatency = time.Microsecond      // ≈1 MB/s per device
		syncLatency = 50 * time.Microsecond // fixed per-sync cost
	)
	wlCfg := workload.YCSBConfig{Records: 65536, OpsPerTxn: 8, ReadRatio: 0}
	fmt.Printf("next700-bench: parallel-WAL sweep, SILO + value log, %d threads, %v per point\n",
		o.Threads, o.Duration)

	rep := walReport{
		Workload: "ycsb", Protocol: "SILO",
		DeviceByteLatencyUs: float64(byteLatency) / float64(time.Microsecond),
		DeviceSyncLatencyUs: float64(syncLatency) / float64(time.Microsecond),
	}
	var base float64
	for _, streams := range []int{1, 2, 4} {
		devs := make([]wal.Device, streams)
		faults := make([]*fault.Device, streams)
		for i := range devs {
			faults[i] = fault.NewDevice(&fault.MemDevice{}, fault.Plan{
				Seed:             o.Seed + uint64(i),
				WriteByteLatency: byteLatency,
				SyncLatency:      syncLatency,
			})
			devs[i] = faults[i]
		}
		cfg := core.Config{
			Protocol: "SILO", Threads: o.Threads,
			LogMode:           wal.ModeValue,
			GroupCommitWindow: 200 * time.Microsecond,
			LogDevices:        devs,
		}
		res, err := harness.Run(cfg, workload.NewYCSB(wlCfg), harness.RunOptions{
			Threads: o.Threads, Duration: o.Duration, WarmupTxns: o.Warmup, Seed: o.Seed,
		})
		if err != nil {
			fatal("wal-sweep streams=%d: %v", streams, err)
		}
		var logBytes int64
		for _, d := range faults {
			logBytes += d.Written()
		}
		row := walRow{
			Streams:  streams,
			Threads:  o.Threads,
			Commits:  res.Commits,
			Tps:      res.Tps,
			P50Ms:    float64(res.Latency.P50) / float64(time.Millisecond),
			P99Ms:    float64(res.Latency.P99) / float64(time.Millisecond),
			LogBytes: logBytes,
		}
		if streams == 1 {
			base = res.Tps
		}
		if base > 0 {
			row.SpeedupVs1 = res.Tps / base
		}
		rep.Rows = append(rep.Rows, row)
		fmt.Printf("  streams=%d tps=%-9.0f p50=%-8v p99=%-8v log_bytes=%d speedup=%.2fx\n",
			streams, res.Tps, time.Duration(res.Latency.P50).Round(time.Microsecond),
			time.Duration(res.Latency.P99).Round(time.Microsecond), logBytes, row.SpeedupVs1)
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal("wal-sweep: %v", err)
	}
	if err := os.WriteFile(o.Out, append(out, '\n'), 0o644); err != nil {
		fatal("wal-sweep: %v", err)
	}
	fmt.Printf("  report: %s\n", o.Out)
	last := rep.Rows[len(rep.Rows)-1]
	if last.SpeedupVs1 < 1.5 {
		fmt.Printf("  WARNING: 4-stream speedup %.2fx below the 1.5x target\n", last.SpeedupVs1)
	}
}
