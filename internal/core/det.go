package core

import (
	"errors"
	"fmt"
	"sync"

	"next700/internal/cc"
	"next700/internal/det"
	"next700/internal/txn"
	"next700/internal/wal"
)

// DetExecFunc executes one planned operation inside a fragment's
// transaction context. The workload layer supplies it (the engine knows
// queues and commits, not table semantics). Implementations must be pure
// functions of (engine state, op, mailbox) — no randomness, no clocks —
// or determinism is lost.
type DetExecFunc func(tx *Tx, op det.Op, mb *det.Mailbox) error

// Deterministic-execution limits: the replay-ordered commit ID packs
// (batch, txn, partition) into 64 bits as batch<<24 | txn<<8 | partition,
// so IDs stay unique and, per record, monotone in priority order — which is
// exactly what value-replay's applied-if-newer filter needs.
const (
	maxDetBatchTxns  = 1 << 16
	maxDetPartitions = 1 << 8
)

// detID is the deterministic commit ID for transaction txnIdx's fragment on
// partition part in batch batchNo.
func detID(batchNo uint64, txnIdx int32, part int) uint64 {
	return batchNo<<24 | uint64(uint32(txnIdx))<<8 | uint64(part)
}

// ErrDetBatchFailed is the terminal class for a deterministic batch that
// could not complete (dead log device, canceled plan, workload error).
// Deterministic execution has no conflict aborts to retry; any failure
// leaves the batch partially applied in memory and the engine should be
// treated as crashed (recover from the log, which truncates to the last
// complete batch epoch).
var ErrDetBatchFailed = errors.New("core: deterministic batch failed")

// DetBatchResult reports one executed batch.
type DetBatchResult struct {
	// Committed is the number of transactions that committed (all of them,
	// on success — deterministic execution is abort-free).
	Committed int
	// Epoch is the WAL epoch the batch sealed (0 when not logging): batch
	// boundaries map 1:1 onto epoch boundaries, so the durable frontier is
	// always a whole number of batches.
	Epoch uint64
}

// DetExecutor drives queue-oriented deterministic execution against an
// engine opened with Protocol "QSTORE": one long-lived goroutine per
// partition drains that partition's priority-ordered queue, fragments
// commit through the pass-through protocol with replay-ordered IDs, and the
// whole batch becomes durable as one WAL epoch. Execution is equivalent to
// running the batch serially in priority order — for any partition count —
// which is what the determinism oracles (same digest across worker counts)
// verify.
type DetExecutor struct {
	e     *Engine
	parts int
	exec  DetExecFunc
	txs   []*Tx

	batchNo uint64
	plan    *det.Plan
	// epochs/errs are per-partition outputs of the current batch, indexed
	// by partition; each slot is owned by one executor goroutine between
	// wg.Add and wg.Done.
	epochs []uint64
	errs   []error

	wg    sync.WaitGroup
	start []chan struct{}
	stop  chan struct{}
	join  sync.WaitGroup
}

// NewDetExecutor builds the executor and starts its partition goroutines.
// The engine must use the QSTORE protocol and have at least as many worker
// slots as partitions. When logging, at any stream count, the log bumps its
// epoch only for a parked durability wait and a batch parks exactly one (the
// seal), so epochs advance only at batch boundaries and the frontier maps
// 1:1 onto batches. Close stops the goroutines; the engine outlives the
// executor.
func NewDetExecutor(e *Engine, exec DetExecFunc) (*DetExecutor, error) {
	if _, ok := e.proto.(cc.PlannerDriven); !ok {
		return nil, fmt.Errorf("core: deterministic execution requires a planner-driven protocol (QSTORE), engine has %s: %w",
			e.Protocol(), ErrInvalidUsage)
	}
	parts := e.cfg.Partitions
	if parts > maxDetPartitions {
		return nil, fmt.Errorf("core: deterministic execution supports at most %d partitions, have %d: %w",
			maxDetPartitions, parts, ErrInvalidUsage)
	}
	if e.cfg.Threads < parts {
		return nil, fmt.Errorf("core: deterministic execution needs Threads >= Partitions (%d < %d): %w",
			e.cfg.Threads, parts, ErrInvalidUsage)
	}
	if e.cfg.LogMode == wal.ModeCommand {
		return nil, fmt.Errorf("core: deterministic execution requires value logging or none "+
			"(fragments are not stored procedures): %w", ErrInvalidUsage)
	}
	if e.cfg.PartitionWAL {
		// A batch is atomic as one epoch of the global frontier; a partition-
		// sharded log recovers each stream to its own frontier, so a crash
		// could bring back one partition's fragments of a batch without the
		// others'.
		return nil, fmt.Errorf("core: deterministic execution requires a thread-affinity log "+
			"(PartitionWAL recovers each partition to its own frontier, splitting batches): %w", ErrInvalidUsage)
	}
	x := &DetExecutor{
		e:      e,
		parts:  parts,
		exec:   exec,
		txs:    make([]*Tx, parts),
		epochs: make([]uint64, parts),
		errs:   make([]error, parts),
		start:  make([]chan struct{}, parts),
		stop:   make(chan struct{}),
	}
	for p := 0; p < parts; p++ {
		x.txs[p] = e.NewTx(p, uint64(p)+1)
		x.start[p] = make(chan struct{})
		x.join.Add(1)
		go x.partitionLoop(p)
	}
	return x, nil
}

// Close stops the partition goroutines. Must not race an ExecuteBatch.
func (x *DetExecutor) Close() {
	close(x.stop)
	x.join.Wait()
}

// Parts returns the partition (executor) count.
func (x *DetExecutor) Parts() int { return x.parts }

// partitionLoop parks until a batch start signal, drains the partition's
// queue, and reports through wg.
func (x *DetExecutor) partitionLoop(p int) {
	defer x.join.Done()
	for {
		select {
		case <-x.stop:
			return
		case <-x.start[p]:
			x.errs[p] = x.drain(p)
			x.wg.Done()
		}
	}
}

// ExecuteBatch runs one compiled batch to completion and waits for its
// durability. On success every transaction in the batch committed; on error
// the in-memory state is partially applied and only recovery from the log
// (which truncates to the last complete batch epoch) yields a consistent
// state again.
func (x *DetExecutor) ExecuteBatch(plan *det.Plan) (DetBatchResult, error) {
	if plan.Txns > maxDetBatchTxns {
		return DetBatchResult{}, fmt.Errorf("core: deterministic batch of %d txns exceeds the %d limit: %w",
			plan.Txns, maxDetBatchTxns, ErrInvalidUsage)
	}
	if len(plan.Queues) != x.parts {
		return DetBatchResult{}, fmt.Errorf("core: plan has %d partitions, executor has %d: %w",
			len(plan.Queues), x.parts, ErrInvalidUsage)
	}
	x.batchNo++
	x.plan = plan
	for p := 0; p < x.parts; p++ {
		x.epochs[p], x.errs[p] = 0, nil
	}
	x.wg.Add(x.parts)
	for p := 0; p < x.parts; p++ {
		x.start[p] <- struct{}{}
	}
	x.wg.Wait() // barrier: every partition drained its queue (bounded by the batch's finite op count)
	var res DetBatchResult
	for p := 0; p < x.parts; p++ {
		if x.errs[p] != nil {
			return res, fmt.Errorf("%w: partition %d: %w", ErrDetBatchFailed, p, x.errs[p])
		}
		if x.epochs[p] > res.Epoch {
			res.Epoch = x.epochs[p]
		}
	}
	res.Committed = plan.Txns
	// Seal the batch: one durability wait closes the epoch (its kick is
	// what advances the log's coordinator), so the next batch's
	// appends land in a fresh epoch and the frontier stays batch-aligned.
	if res.Epoch > 0 {
		if err := x.e.logs.WaitDurable(0, res.Epoch); err != nil {
			return res, fmt.Errorf("%w: sealing epoch %d: %w", ErrDetBatchFailed, res.Epoch, err)
		}
	}
	return res, nil
}

// drain executes one partition's queue for the current batch: each maximal
// run of same-transaction ops is a fragment, executed and committed as one
// protocol transaction with a replay-ordered deterministic ID.
func (x *DetExecutor) drain(p int) error {
	q := x.plan.Queues[p]
	for i := 0; i < len(q); {
		var err error
		i, err = x.runFragment(p, q, i)
		if err != nil {
			// Cancel the batch so peers blocked in Mailbox.Collect unwind
			// instead of waiting for sends that will never happen.
			x.plan.Cancel()
			return err
		}
	}
	return nil
}

// runFragment executes q[i:] up to the end of the fragment starting at i,
// returning the index past it.
func (x *DetExecutor) runFragment(p int, q []det.Op, i int) (int, error) {
	e := x.e
	t := x.txs[p]
	inner := t.inner
	txnIdx := q[i].Txn
	mb := &x.plan.Mailboxes[txnIdx]
	inner.Reset()
	// On a gated engine the quiesce gate brackets the fragment like an
	// interactive attempt: command-logged checkpoints still get a true
	// quiescent point between fragments.
	if e.gated {
		e.quiesce.RLock()
	}
	e.proto.Begin(inner)
	var err error
	for ; i < len(q) && q[i].Txn == txnIdx; i++ {
		if err == nil {
			x.prefetchAhead(q, i)
			//next700:locked(Engine.quiesce: the gate read side deliberately brackets queued-transaction execution so command-logged checkpoints quiesce between fragments)
			err = x.exec(t, q[i], mb)
		}
	}
	if err != nil {
		e.proto.Abort(inner)
		t.retract(txn.KindInsert)
		if e.gated {
			e.quiesce.RUnlock()
		}
		inner.Counter.FatalAborts++
		return i, err
	}
	err = x.commitFragment(t, p, detID(x.batchNo, txnIdx, p))
	if e.gated {
		e.quiesce.RUnlock()
	}
	if err != nil {
		inner.Counter.FatalAborts++
		return i, err
	}
	if x.plan.Home[txnIdx] == int32(p) {
		inner.Counter.Commits++
	}
	return i, nil
}

// lookahead is how far ahead of the running op i, in queue positions, the
// executor resolves a record and hints its lines (op i+lookahead); it hints
// hash home slots twice as far ahead (op i+2·lookahead). The slot of the op
// it resolves was hinted lookahead ops earlier, so resolving finds it
// cached, and the record's lines then have lookahead ops to arrive before
// the op runs. Picked by a sweep (EXPERIMENTS.md, "Staged non-blocking
// prefetch").
const lookahead = 2

// prefetchAhead stages the lookahead for q[i]: it hints the home slot of
// q[i+2·lookahead]'s key and resolves q[i+lookahead]'s, hinting its
// record. The partition's queue is known in full before it runs, and both
// steps are hints, so skipping them changes no result.
//
//next700:hotpath
func (x *DetExecutor) prefetchAhead(q []det.Op, i int) {
	if j := i + 2*lookahead; j < len(q) {
		if t := x.e.tableByID(int(q[j].Table)); t != nil && t.hash != nil {
			t.hash.Prefetch(q[j].Key)
		}
	}
	if j := i + lookahead; j < len(q) {
		if t := x.e.tableByID(int(q[j].Table)); t != nil {
			x.e.prefetchRecord(t, q[j].Key)
		}
	}
}

// commitFragment is Tx.publish with the replay-ordered deterministic commit
// ID in place of a timestamp draw (QSTORE's Commit leaves the ID alone): the
// durability wait is deferred to the batch seal in ExecuteBatch.
//
//next700:hotpath
func (x *DetExecutor) commitFragment(t *Tx, p int, id uint64) error {
	t.inner.ID = id
	_, epoch, err := t.publish(0, nil)
	if epoch > x.epochs[p] {
		x.epochs[p] = epoch
	}
	return err
}
