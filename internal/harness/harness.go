// Package harness runs (engine configuration × workload) combinations and
// aggregates throughput, abort, and latency statistics — the load driver
// under every next700-bench sweep, EXPERIMENTS.md's experiments included.
package harness

import (
	"fmt"
	"strings"
	"time"

	"next700/internal/admission"
	"next700/internal/core"
	"next700/internal/stats"
	"next700/internal/verify"
	"next700/internal/workload"
)

// RunOptions controls one measurement run, whichever executor it drives.
type RunOptions struct {
	// Threads is the worker count (defaults to the engine's).
	Threads int
	// Duration bounds the run in wall-clock time (used when
	// TxnsPerWorker is 0).
	Duration time.Duration
	// TxnsPerWorker, when > 0, runs a fixed transaction count instead of a
	// fixed duration (deterministic; preferred in tests).
	TxnsPerWorker int
	// WarmupTxns per worker are executed before measurement starts.
	WarmupTxns int
	// Seed perturbs worker RNGs.
	Seed uint64
	// MeasureAllocs samples runtime.MemStats around the measurement window
	// (closed or open loop, interactive or deterministic — there is one
	// window) and reports heap allocations per committed transaction. A GC
	// cycle is forced before the window, so enable this only for allocation
	// profiling, not latency measurement.
	MeasureAllocs bool
	// Verify enables isolation-anomaly recording: the workload must
	// implement verify.Recordable (the stamped verify.Probe does). A
	// History is attached before setup, every committed and aborted attempt
	// is recorded during the run (warmup included), and the checked report
	// lands in Result.Verification. Strictly opt-in: when false, no
	// recording state exists anywhere near the engine's commit path.
	Verify bool

	// OfferedRate, when > 0, switches the run to open-loop mode: seeded
	// Poisson arrivals are generated at this rate (txns/sec) for Duration
	// regardless of completion rate, workers drain the arrival queue, and
	// queue latency (arrival → execution start) is recorded separately from
	// service latency. This is the regime where overload is measurable: a
	// closed-loop run can never offer more than capacity.
	OfferedRate float64
	// Deadline, when > 0, is the enforced per-transaction deadline from
	// arrival (in a closed loop a transaction arrives as its worker frees up).
	// Expired transactions abort with the deadline class (engine-level
	// waits included) instead of blocking; a worker treats the deadline
	// abort as a per-transaction outcome, not a run failure.
	Deadline time.Duration
	// GoodputWindow classifies commits as goodput without enforcing
	// anything: a commit whose arrival → completion time exceeds the
	// window counts as late, not good. Defaults to Deadline. Setting only
	// GoodputWindow measures how an unprotected engine's output decays
	// under overload — the baseline the admission rows are judged against.
	// When both are set, the window classifies and the (typically tighter)
	// deadline enforces: under sustained overload a FIFO queue serves
	// entries right at the age-out edge, so an engine enforcing the SLO
	// itself as the deadline commits mostly just-late work; enforcing at a
	// fraction of the SLO leaves the survivors headroom to land inside it.
	GoodputWindow time.Duration
	// Admission, when non-nil, gates every transaction through one
	// admission controller built from this config; rejected transactions
	// count as ShedAborts and never touch the engine.
	Admission *admission.Config
}

// AdmissionSample is one periodic observation of the admission controller
// during a run.
type AdmissionSample struct {
	// Offset is the sample time relative to measurement start.
	Offset time.Duration
	// Limit and InFlight are the AIMD concurrency limit and the number of
	// admissions currently executing; LatencyEWMA is the controller's
	// smoothed service latency — the signal AIMD steers on.
	Limit       int
	InFlight    int
	LatencyEWMA time.Duration
	// Admitted and Shed are cumulative counts at the sample instant.
	Admitted uint64
	Shed     uint64
	// ShedRate is the shed fraction within this sample's window alone
	// (delta-based, not cumulative): shed / (admitted + shed) since the
	// previous sample.
	ShedRate float64
}

// Result is one measurement row.
type Result struct {
	Protocol string
	Workload string
	Threads  int
	Elapsed  time.Duration
	Commits  uint64
	// Aborts counts transient (conflict) aborts that were retried;
	// UserAborts and FatalAborts are terminal per-transaction outcomes.
	Aborts      uint64
	UserAborts  uint64
	FatalAborts uint64
	// DeadlineAborts counts transactions terminated by deadline expiry
	// (queued past the deadline, blocked past it, or out of retry budget);
	// ShedAborts counts admission-control rejections. Both are terminal
	// and never touched — or immediately released — engine state.
	DeadlineAborts uint64
	ShedAborts     uint64
	// PartitionAborts counts terminal aborts on a quarantined partition
	// (core.ErrPartitionUnavailable) while the engine degraded around a
	// partition fault.
	PartitionAborts uint64
	Waits           uint64
	Tps             float64
	AbortRate       float64
	Latency         stats.Summary

	// Open-loop fields, set when RunOptions.OfferedRate > 0.
	//
	// Offered is the configured arrival rate; Arrivals the transactions
	// actually generated; Backlog the arrivals never picked up before the
	// window closed (plus any dropped on a full arrival queue).
	Offered  float64
	Arrivals uint64
	Backlog  uint64
	// Goodput is commits completing within the goodput window per second
	// (== Tps when no window is configured); LateCommits are commits that
	// finished but missed the window. Both are set in closed-loop runs too.
	Goodput     float64
	LateCommits uint64
	// QueueLatency is arrival → execution start for executed transactions;
	// E2ELatency is arrival → completion for committed ones. Service
	// latency stays in Latency.
	QueueLatency stats.Summary
	E2ELatency   stats.Summary
	// AdmissionLimit is the controller's concurrency limit at the end of
	// the run (0 = no controller) — under AIMD this is the operating point
	// the controller converged to.
	AdmissionLimit int
	// AdmissionTimeline traces the controller over the run: one sample per
	// sixteenth of RunOptions.Duration (at least 1ms apart) plus a closing
	// sample, capturing how the AIMD limit, the latency EWMA, and the shed
	// rate evolved. Set only for runs with a controller configured.
	AdmissionTimeline []AdmissionSample
	// AllocsPerTxn / BytesPerTxn are heap allocations and bytes per
	// committed transaction across the whole process during the measurement
	// window (set only when RunOptions.MeasureAllocs is on). Aborted
	// attempts' allocations are charged to the transactions that commit.
	AllocsPerTxn float64
	BytesPerTxn  float64
	// Verification is the isolation-anomaly report for the recorded
	// history (set only when RunOptions.Verify is on).
	Verification *verify.Report
	// Digest is the hex-encoded canonical state digest after the run, set
	// only by deterministic runs (RunDet) — the determinism oracles compare
	// it across seeds, worker counts, and crash recovery.
	Digest string
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%-10s %-9s threads=%-3d tps=%-12.0f abort=%-7.4f p99=%v",
		r.Protocol, r.Workload, r.Threads, r.Tps, r.AbortRate,
		time.Duration(r.Latency.P99))
}

// Detail renders the full report the CLIs print after a run: the summary
// line, the outcome counts and service latency, then a line group for each
// thing this run measured — the open-loop decomposition, allocations, the
// state digest.
func (r Result) Detail() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n  commits=%d aborts=%d user_aborts=%d fatal_aborts=%d deadline_aborts=%d shed=%d waits=%d\n  latency: %s\n",
		r, r.Commits, r.Aborts, r.UserAborts, r.FatalAborts, r.DeadlineAborts, r.ShedAborts, r.Waits, r.Latency)
	if r.Offered > 0 {
		fmt.Fprintf(&b, "  open-loop: offered=%.0f/s arrivals=%d goodput=%.0f/s late=%d backlog=%d\n",
			r.Offered, r.Arrivals, r.Goodput, r.LateCommits, r.Backlog)
		fmt.Fprintf(&b, "  queue: %s\n  e2e:   %s\n", r.QueueLatency, r.E2ELatency)
	}
	if r.AdmissionLimit > 0 {
		fmt.Fprintf(&b, "  admission limit: %d\n", r.AdmissionLimit)
	}
	if r.AllocsPerTxn > 0 {
		fmt.Fprintf(&b, "  allocs/txn=%.2f bytes/txn=%.1f\n", r.AllocsPerTxn, r.BytesPerTxn)
	}
	if r.Digest != "" {
		fmt.Fprintf(&b, "  digest: %s\n", r.Digest)
	}
	return b.String()
}

// Run opens an engine with cfg, sets up wl, and drives it with the given
// options: one interactive Tx per worker, arrivals closed-loop or — with
// OfferedRate — open-loop. The engine is closed before returning. Setup
// problems and the first worker failure are both reported as errors.
func Run(cfg core.Config, wl workload.Workload, opts RunOptions) (Result, error) {
	if opts.Threads <= 0 {
		opts.Threads = cfg.Threads
	}
	if cfg.Threads < opts.Threads {
		cfg.Threads = opts.Threads
	}
	return run(cfg, wl, opts, cfg.Threads, func(e *core.Engine) (load, func(), error) {
		ld := load{count: opts.TxnsPerWorker}
		if opts.Admission != nil {
			ld.ctrl = admission.New(*opts.Admission)
		}
		for id := 0; id < opts.Threads; id++ {
			ld.execs = append(ld.execs, &txExec{
				wl: wl, tx: e.NewTx(id, opts.Seed*1_000_003+uint64(id)+1), ctrl: ld.ctrl,
				warmup: opts.WarmupTxns, deadline: int64(opts.Deadline),
			})
		}
		return ld, func() {}, nil
	})
}

// subject is the part of a workload the shared prologue needs, common to
// workload.Workload and workload.DeclaredAccess.
type subject interface {
	Name() string
	Setup(e *core.Engine) error
}

// run is the prologue and epilogue every measurement shares: open the
// engine, attach the verification history (histWorkers wide), set the
// workload up, build the executors, drive them, and check the recorded
// history against the final versions. done releases what build started and
// runs before the engine closes.
func run(cfg core.Config, wl subject, opts RunOptions, histWorkers int,
	build func(*core.Engine) (ld load, done func(), err error)) (Result, error) {
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}
	var hist *verify.History
	rec, _ := wl.(verify.Recordable)
	if opts.Verify {
		if rec == nil {
			return Result{}, fmt.Errorf("harness: workload %q does not support verification recording", wl.Name())
		}
		hist = verify.NewHistory(histWorkers)
		rec.AttachHistory(hist)
	}
	e, err := core.Open(cfg)
	if err != nil {
		return Result{}, err
	}
	defer e.Close()
	if err := wl.Setup(e); err != nil {
		return Result{}, err
	}
	ld, done, err := build(e)
	if err != nil {
		return Result{}, err
	}
	defer done()
	res, err := drive(e, ld, opts)
	res.Protocol = e.Protocol()
	res.Workload = wl.Name()
	if err == nil && hist != nil {
		final, ferr := rec.FinalVersions(e)
		if ferr != nil {
			return res, fmt.Errorf("harness: reading final versions: %w", ferr)
		}
		res.Verification = hist.Check(final)
	}
	return res, err
}
