package harness

import (
	"encoding/hex"
	"time"

	"next700/internal/core"
	"next700/internal/det"
	"next700/internal/workload"
	"next700/internal/xrand"
)

// DetBatchObserver is implemented by deterministic workloads that keep
// per-batch state. RunDet calls BeginBatch before planning a batch's first
// transaction and EndBatch after the batch has executed and sealed — the
// verify.DetProbe uses the pair to flush its deferred history on the
// sequencer goroutine.
type DetBatchObserver interface {
	BeginBatch()
	EndBatch()
}

// DetOptions is what only the deterministic executor needs; everything else
// — Seed, Verify, MeasureAllocs, OfferedRate, Duration, GoodputWindow — is
// the RunOptions every run takes.
type DetOptions struct {
	// Batch is the number of transactions sequenced into each batch
	// (default 64).
	Batch int
	// Batches is the number of measured batches in closed mode
	// (default 64). Ignored in open-loop mode, which runs for Duration.
	Batches int
	// WarmupBatches are executed before measurement starts.
	WarmupBatches int
}

// maxBatchDelay bounds batching delay in open-loop mode: the sequencer cuts a
// batch when it reaches DetOptions.Batch transactions or when its oldest
// arrival has waited this long. A closed loop never waits for an arrival, so
// there every batch is cut full.
const maxBatchDelay = int64(5 * time.Millisecond)

// RunDet opens a QSTORE engine with cfg, sets up wl, and drives it through
// the deterministic queue-oriented executor: one sequencer worker plans the
// arrivals — closed-loop, or seeded Poisson with opts.OfferedRate — into
// batches and executes each batch on the partition executors. The Protocol
// field of cfg is overridden ("QSTORE" is the only sound protocol under the
// deterministic scheduler) and Threads is raised to the partition count if
// needed. Deterministic planning uses the engine's default key-modulo
// partitioning. opts.Seed seeds the sequencer RNG: the same seed yields the
// same planned batches at any partition count — the premise of the
// determinism oracle. Planning is admission and a batch has no deadline, so
// opts.Threads, TxnsPerWorker, WarmupTxns, Deadline and Admission do not
// apply.
//
// The returned Result's Digest is the engine's canonical state digest after
// the run — the comparand of the determinism oracles.
func RunDet(cfg core.Config, wl workload.DeclaredAccess, opts RunOptions, dopts DetOptions) (Result, error) {
	if dopts.Batch <= 0 {
		dopts.Batch = 64
	}
	if dopts.Batches <= 0 {
		dopts.Batches = 64
	}
	cfg.Protocol = "QSTORE"
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	if cfg.Threads < cfg.Partitions {
		cfg.Threads = cfg.Partitions
	}
	var digest string
	res, err := run(cfg, wl, opts, 1, func(e *core.Engine) (load, func(), error) {
		x, err := core.NewDetExecutor(e, wl.ExecOp)
		if err != nil {
			return load{}, nil, err
		}
		s := &detExec{
			wl:          wl,
			x:           x,
			rng:         xrand.New(opts.Seed*1_000_003 + 0xD0_0D),
			pl:          det.NewPlanner(x.Parts(), nil),
			txns:        make([]det.TxnPlan, dopts.Batch),
			at:          make([]int64, dopts.Batch),
			warmBatches: dopts.WarmupBatches,
		}
		s.obs, _ = wl.(DetBatchObserver)
		return load{execs: []executor{s}, count: dopts.Batch * dopts.Batches}, func() {
			x.Close()
			d := e.StateDigest()
			digest = hex.EncodeToString(d[:])
		}, nil
	})
	res.Threads = cfg.Partitions
	res.Digest = digest
	return res, err
}

// detExec is the deterministic executor: the sequencer. It owns batch
// planning — a single goroutine, a single RNG, a reused TxnPlan slate, the
// planner scratch — and cuts the open batch into core.DetExecutor when it
// is full or, in an open loop, when its oldest arrival has aged out.
// Planning is the sequencer's admission.
type detExec struct {
	wl   workload.DeclaredAccess
	obs  DetBatchObserver // nil when the workload keeps no batch state
	x    *core.DetExecutor
	rng  *xrand.RNG
	pl   *det.Planner
	txns []det.TxnPlan
	at   []int64 // arrival stamps of the open batch
	n    int     // transactions planned into the open batch
	busy int64   // ns spent planning the open batch

	warmBatches int
}

func (s *detExec) warm() error {
	scratch := newCollector(0)
	for b := 0; b < s.warmBatches; b++ {
		for s.n < len(s.txns) {
			now := time.Now().UnixNano()
			s.plan(now, now)
		}
		if err := s.cut(scratch); err != nil {
			return err
		}
	}
	return nil
}

// plan declares the arrival into the open batch, opening a new batch first
// if none is.
func (s *detExec) plan(at, now int64) {
	if s.n == 0 && s.obs != nil {
		s.obs.BeginBatch()
	}
	tp := &s.txns[s.n]
	tp.Reset()
	s.wl.PlanTxn(s.rng, tp)
	s.at[s.n] = at
	s.n++
	s.busy += time.Now().UnixNano() - now
}

func (s *detExec) exec(at, now int64, c *collector) (int64, error) {
	if at != 0 {
		s.plan(at, now)
		if s.n < len(s.txns) {
			return s.at[0] + maxBatchDelay, nil
		}
	}
	return 0, s.cut(c)
}

// cut compiles and runs the open batch. No transaction completes before its
// batch seals, so all of them share the batch's times: queue latency is
// arrival → execution start, end-to-end is arrival → batch durable, and
// service is the work in between that was theirs — planning the batch plus
// executing it, not the wait for the batch to fill.
func (s *detExec) cut(c *collector) error {
	n := s.n
	s.n = 0
	start := time.Now().UnixNano()
	if _, err := s.x.ExecuteBatch(s.pl.PlanBatch(s.txns[:n])); err != nil {
		return err
	}
	if s.obs != nil {
		s.obs.EndBatch()
	}
	done := time.Now().UnixNano()
	svc := s.busy + done - start
	s.busy = 0
	for _, at := range s.at[:n] {
		c.queue.Record(start - at)
		c.commit(svc, done-at)
	}
	return nil
}

// finish leaves an uncut batch as backlog: it was admitted, never run.
func (s *detExec) finish() uint64 { return uint64(s.n) }
