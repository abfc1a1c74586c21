package main

import (
	"fmt"

	"next700/internal/core"
	"next700/internal/harness"
	"next700/internal/workload"
)

// detSweep compares deterministic queue-oriented execution against the
// interactive protocols at high Zipfian contention — the regime where
// interactive CC burns work on conflict aborts and lock waits while the det
// planner has already serialized every conflict into queue order. The DET
// point is run twice with the same seed as an inline determinism check
// (byte-identical digests), then NO_WAIT, SILO, and MVCC run the same
// workload configuration interactively for -duration each. Both sides go
// through the one closed-loop driver, so a row differs from the next in its
// executor and nothing else.
func detSweep(c common) sweep {
	batch, theta := c.detBatch, c.theta
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if batch <= 0 {
		batch = 64
	}
	if theta <= 0 {
		theta = 0.9
	}
	wlCfg := workload.YCSBConfig{
		Records: 65536, OpsPerTxn: 8, ReadRatio: 0.5,
		Theta: theta, MultiPartitionFraction: 0.1,
	}
	return sweep{
		name: "det",
		title: fmt.Sprintf("det sweep, ycsb theta=%.2f, %d threads, batch %d, %v per interactive point",
			theta, c.Threads, batch, c.Duration),
		params: map[string]interface{}{"workload": "ycsb", "theta": theta, "batch": batch, "threads": c.Threads},
		axes:   []string{"engine"},
		cols:   []string{"tps", "aborts", "abort_rate", "p50_ms", "p99_ms", "det_tps_ratio"},
		run: func(s *sweepRun) error {
			// 64 batches: enough committed work for a stable throughput
			// estimate without dominating the sweep's runtime.
			det := func() (harness.Result, error) {
				return harness.RunDet(core.Config{Partitions: c.Threads}, workload.NewYCSB(wlCfg),
					harness.RunOptions{Seed: c.Seed},
					harness.DetOptions{Batch: batch, Batches: 64, WarmupBatches: 4})
			}
			dres, err := det()
			if err != nil {
				return fmt.Errorf("DET: %w", err)
			}
			again, err := det()
			if err != nil {
				return fmt.Errorf("DET rerun: %w", err)
			}
			s.row(map[string]interface{}{"engine": "DET"}, runMetrics(dres))
			s.check("det_aborts_zero", dres.Aborts == 0, "%d conflict aborts", dres.Aborts)
			s.check("digest_stable", dres.Digest != "" && dres.Digest == again.Digest,
				"digest %s, same-seed rerun %.16s…", dres.Digest, again.Digest)

			// det_tps_ratio is the DET row's throughput relative to this
			// interactive protocol measured in the same sweep; the smallest
			// is DET against the best of them.
			for _, protocol := range []string{"NO_WAIT", "SILO", "MVCC"} {
				res, err := harness.Run(
					core.Config{Protocol: protocol, Threads: c.Threads},
					workload.NewYCSB(wlCfg),
					harness.RunOptions{Threads: c.Threads, Duration: c.Duration, WarmupTxns: 200, Seed: c.Seed},
				)
				if err != nil {
					return fmt.Errorf("%s: %w", protocol, err)
				}
				m := runMetrics(res)
				if res.Tps > 0 {
					m["det_tps_ratio"] = ratio(dres.Tps / res.Tps)
				}
				s.row(map[string]interface{}{"engine": protocol}, m)
			}
			return nil
		},
	}
}
