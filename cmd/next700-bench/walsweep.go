package main

import (
	"fmt"
	"time"

	"next700/internal/core"
	"next700/internal/fault"
	"next700/internal/harness"
	"next700/internal/wal"
	"next700/internal/workload"
)

// walSweep measures commit-path throughput under value logging on a
// bandwidth-limited simulated device at 1, 2, and 4 WAL streams. Every
// transaction commits synchronously (waits for its record to be durable), so
// throughput is gated by how fast the log drains: one stream serializes all
// workers behind a single device's transfer time, while N streams split the
// byte load N ways and the epoch-based frontier keeps the durability
// guarantee global. The per-byte device cost is what real devices charge for
// bandwidth (≈1 MB/s at 1µs/byte, plus a fixed sync cost, so a single log
// stream is bandwidth-bound); the sweep's speedup at 4 streams is the
// parallel-WAL payoff.
func walSweep(c common) sweep {
	// The sweep needs enough concurrency to saturate the simulated device:
	// with too few workers the run is commit-latency-bound and the stream
	// count barely matters. 16 is the floor; -threads can raise it.
	if c.Threads < 16 {
		c.Threads = 16
	}
	const (
		byteLatency = time.Microsecond      // ≈1 MB/s per device
		syncLatency = 50 * time.Microsecond // fixed per-sync cost
		wantSpeedup = 1.5
		// wantTail bounds p99/p50 per row: a committer the log's gather
		// misses waits out a second flush round, and that is where it shows.
		wantTail = 1.5
	)
	return sweep{
		name:  "wal",
		title: fmt.Sprintf("parallel-WAL sweep, SILO + value log, %d threads, %v per point", c.Threads, c.Duration),
		params: map[string]interface{}{
			"workload": "ycsb", "protocol": "SILO", "threads": c.Threads,
			"device_byte_latency_us": byteLatency.Microseconds(),
			"device_sync_latency_us": syncLatency.Microseconds(),
		},
		axes: []string{"streams"},
		cols: []string{"tps", "p50_ms", "p99_ms", "p99_over_p50", "log_bytes", "speedup_vs_1"},
		run: func(s *sweepRun) error {
			var base, speedup, worstTail float64
			for _, streams := range []int{1, 2, 4} {
				devs := make([]wal.Device, streams)
				faults := make([]*fault.Device, streams)
				for i := range devs {
					faults[i] = fault.NewDevice(&fault.MemDevice{}, fault.Plan{
						Seed:             c.Seed + uint64(i),
						WriteByteLatency: byteLatency,
						SyncLatency:      syncLatency,
					})
					devs[i] = faults[i]
				}
				res, err := harness.Run(core.Config{
					Protocol: "SILO", Threads: c.Threads,
					LogMode:    wal.ModeValue,
					LogDevices: devs,
				}, workload.NewYCSB(workload.YCSBConfig{Records: 65536, OpsPerTxn: 8, ReadRatio: 0}),
					harness.RunOptions{Threads: c.Threads, Duration: c.Duration, WarmupTxns: c.Warmup, Seed: c.Seed})
				if err != nil {
					return fmt.Errorf("streams=%d: %w", streams, err)
				}
				// Total bytes across all streams (markers included) stay
				// near-constant across rows, which is what makes the
				// throughput ratio a clean bandwidth-scaling measurement.
				var logBytes int64
				for _, d := range faults {
					logBytes += d.Written()
				}
				if streams == 1 {
					base = res.Tps
				}
				if base > 0 {
					speedup = res.Tps / base
				}
				m := runMetrics(res)
				tail := float64(res.Latency.P99) / float64(res.Latency.P50)
				worstTail = max(worstTail, tail)
				m["p99_over_p50"] = ratio(tail)
				m["log_bytes"] = size(logBytes)
				m["speedup_vs_1"] = ratio(speedup)
				s.row(map[string]interface{}{"streams": streams}, m)
			}
			s.target("speedup_target", speedup >= wantSpeedup, "4-stream speedup %.2fx, target %.1fx", speedup, wantSpeedup)
			s.target("tail_target", worstTail <= wantTail, "worst p99/p50 %.2f, target <= %.1f", worstTail, wantTail)
			return nil
		},
	}
}
