package main

import (
	"fmt"
	"time"

	"next700/internal/admission"
	"next700/internal/harness"
)

// overloadSweep measures closed-loop capacity, then offers 1x/2x/3x that rate
// open-loop, once with no protection (every arrival is eventually executed,
// however stale) and once with an enforced deadline plus admission control.
// The contrast is the point of the experiment: the unprotected engine's raw
// throughput survives overload but its goodput collapses — the queue grows
// without bound, so everything it commits is already late — while the
// protected engine sheds stale and excess work cheaply and keeps goodput
// near the closed-loop peak.
//
// slo is the goodput window: a commit slower than this (arrival to
// completion) is late, not good; 0 selects 50ms. The protected rows enforce
// a deadline of slo/2, not the SLO itself: under sustained overload a FIFO
// queue serves arrivals right at the age-out edge, so enforcing the SLO
// directly would commit mostly just-late work. Enforcing at half leaves
// survivors headroom to land inside the SLO. The open-loop rows run a worker
// pool twice the capacity configuration so the admission semaphore (capped
// at the measured-capacity concurrency) is a real constraint rather than a
// no-op behind the pool size.
func overloadSweep(c common) sweep {
	cfg, newWorkload, slo := c.cfg, c.newWorkload, c.slo
	if slo <= 0 {
		slo = 50 * time.Millisecond
	}
	deadline := slo / 2
	name := newWorkload().Name()
	return sweep{
		name: "overload",
		title: fmt.Sprintf("overload sweep, %s on %s, %d threads, %v per row, slo=%v deadline=%v",
			name, cfg.Protocol, c.Threads, c.Duration, slo, deadline),
		params: map[string]interface{}{
			"workload": name, "protocol": cfg.Protocol, "threads": c.Threads,
			"slo_ms": ms(slo).Value, "deadline_ms": ms(deadline).Value,
		},
		// mode is capacity (closed loop), unprotected (open loop, no deadline,
		// no admission), or protected (enforced deadline + admission control).
		axes: []string{"mode", "mult"},
		cols: []string{"offered_tps", "tps", "goodput_tps", "goodput_vs_peak", "late_commits", "deadline_aborts", "shed_aborts", "e2e_p99_ms"},
		run: func(s *sweepRun) error {
			base := harness.RunOptions{Threads: c.Threads, Duration: c.Duration, WarmupTxns: c.Warmup, Seed: c.Seed}
			peak, err := harness.Run(cfg, newWorkload(), base)
			if err != nil {
				return fmt.Errorf("capacity run: %w", err)
			}
			cell := func(mode string, mult float64, res harness.Result) {
				at := map[string]interface{}{"mode": mode, "mult": mult}
				m := runMetrics(res)
				m["offered_tps"] = perSec(res.Offered)
				m["goodput_tps"] = perSec(res.Goodput)
				m["goodput_vs_peak"] = ratio(res.Goodput / peak.Tps)
				m["late_commits"] = count(res.LateCommits)
				m["deadline_aborts"] = count(res.DeadlineAborts)
				m["shed_aborts"] = count(res.ShedAborts)
				m["backlog"] = count(res.Backlog)
				m["queue_p99_ms"] = ms(time.Duration(res.QueueLatency.P99))
				m["e2e_p99_ms"] = ms(time.Duration(res.E2ELatency.P99))
				m["admission_limit"] = count(uint64(res.AdmissionLimit))
				s.row(at, m)
				// The controller trace of a protected row — how the AIMD limit,
				// the latency EWMA, and the shed rate moved over the run — is
				// a series under the cell.
				for _, p := range res.AdmissionTimeline {
					s.detail(map[string]interface{}{"mode": mode, "mult": mult, "offset_ms": ms(p.Offset).Value},
						map[string]metric{
							"limit":     count(uint64(p.Limit)),
							"in_flight": count(uint64(p.InFlight)),
							"ewma_ms":   ms(p.LatencyEWMA),
							"shed_rate": ratio(p.ShedRate),
						})
				}
			}
			cell("capacity", 0, peak)
			for _, mult := range []float64{1, 2, 3} {
				open := base
				open.Threads = 2 * c.Threads
				open.OfferedRate = mult * peak.Tps
				open.GoodputWindow = slo
				res, err := harness.Run(cfg, newWorkload(), open)
				if err != nil {
					return fmt.Errorf("unprotected %gx: %w", mult, err)
				}
				cell("unprotected", mult, res)

				open.Deadline = deadline
				open.Admission = &admission.Config{
					MaxInFlight:   c.Threads,
					MaxQueueWait:  deadline / 2,
					TargetLatency: deadline,
				}
				if res, err = harness.Run(cfg, newWorkload(), open); err != nil {
					return fmt.Errorf("protected %gx: %w", mult, err)
				}
				cell("protected", mult, res)
			}
			return nil
		},
	}
}
