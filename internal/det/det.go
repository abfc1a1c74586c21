// Package det implements queue-oriented deterministic execution planning in
// the style of Q-Store ("A Queue-oriented Transaction Processing Paradigm"):
// a sequenced batch of transactions with declared access sets is compiled
// into per-partition operation queues ordered by global transaction
// priority. Execution then needs no locks and no validation — each record
// belongs to exactly one partition, every access to it sits in that
// partition's queue in priority order, so draining the queues serially per
// partition is equivalent to executing the whole batch serially in priority
// order. Conflicts cannot happen, which is why deterministic execution is
// abort-free by construction.
//
// Cross-partition transactions are stitched together with delivery
// dependencies: an OpReadSend on one partition reads a value and delivers it
// into the transaction's mailbox; an OpRecvUpdate on another partition
// collects the mailbox before applying its write. The planner hoists every
// send to the front of its fragment, so a fragment finishes all its sends
// before it can block on a collect — combined with priority-ordered queues
// this makes the dependency graph acyclic and the executors deadlock-free
// (see the progress argument on Mailbox.Collect).
//
// The package is pure planning and synchronization: it does not touch the
// engine, which is what makes PlanBatch independently fuzzable
// (FuzzPlanBatch) against its structural invariants.
package det

import (
	"errors"
	"runtime"
	"sync/atomic"
)

// OpKind classifies a declared operation.
type OpKind uint8

const (
	// OpRead is a point read of Key.
	OpRead OpKind = iota
	// OpUpdate is a read-modify-write of Key; Aux is workload payload
	// (e.g. an increment amount).
	OpUpdate
	// OpReadSend reads Key and delivers the workload-extracted value into
	// the transaction's mailbox at Slot. Sends are hoisted to the front of
	// their fragment by the planner.
	OpReadSend
	// OpRecvUpdate collects the transaction's mailbox (waiting for every
	// outstanding send) and then updates Key using the delivered values.
	OpRecvUpdate
)

// String names the kind for diagnostics.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpReadSend:
		return "read-send"
	case OpRecvUpdate:
		return "recv-update"
	default:
		return "unknown"
	}
}

// Op is one declared operation. The workload fills Kind, Table, Key, and
// Aux when declaring a TxnPlan; the planner assigns Txn (the batch-local
// priority), Seq (the execution order within the transaction), and Slot
// (mailbox slot for sends). Table is the engine's table ID (0 is the first
// table created): the executor resolves Key in that table's primary index
// ahead of the op to prefetch the record, so a wrong Table costs only the
// hint.
type Op struct {
	Txn   int32
	Seq   int32
	Slot  int32
	Kind  OpKind
	Table int32
	Key   uint64
	Aux   uint64
}

// TxnPlan is one transaction's declared access set, in declared order.
type TxnPlan struct {
	Ops []Op
}

// Reset clears the plan for reuse, keeping capacity.
func (p *TxnPlan) Reset() { p.Ops = p.Ops[:0] }

// Add declares an operation (fluent helper for workloads and tests).
func (p *TxnPlan) Add(kind OpKind, table int32, key uint64, aux uint64) {
	p.Ops = append(p.Ops, Op{Kind: kind, Table: table, Key: key, Aux: aux})
}

// ErrCanceled is returned by Mailbox.Collect when the batch was canceled
// (an executor hit a non-conflict fatal error, e.g. a dead log device).
var ErrCanceled = errors.New("det: batch canceled")

// Mailbox carries delivery-dependency values for one transaction. Senders
// store into disjoint slots and decrement the outstanding count; the
// receiving executor collects once the count reaches zero. The zero value
// is a mailbox with no pending sends.
type Mailbox struct {
	// Vals holds delivered values, indexed by the sending op's Slot.
	Vals    []uint64
	pending atomic.Int32
	cancel  *atomic.Bool
}

// Send delivers v into slot and retires one outstanding send. The plain
// store is ordered before the atomic decrement, and Collect's acquire load
// of the count ordering after it, so receivers never observe a torn slot.
func (m *Mailbox) Send(slot int32, v uint64) {
	m.Vals[slot] = v
	m.pending.Add(-1)
}

// Collect waits until every outstanding send has been delivered, then
// returns. Progress argument: queues are priority-ordered and every send is
// hoisted before any collect within its fragment, so the transaction
// blocking here (the batch's highest-priority incomplete transaction on
// this partition) only waits on fragments that are at or before the head of
// their own queues and contain no collect before the needed send — they
// run to completion without waiting on anyone. The spin therefore
// terminates unless the batch is canceled, which is the error path.
func (m *Mailbox) Collect() error {
	for m.pending.Load() > 0 {
		if m.cancel != nil && m.cancel.Load() {
			return ErrCanceled
		}
		runtime.Gosched()
	}
	return nil
}

// Pending returns the number of sends not yet delivered (test hook).
func (m *Mailbox) Pending() int { return int(m.pending.Load()) }

// Plan is a compiled batch: per-partition operation queues in global
// priority order plus the per-transaction mailboxes. All slices are
// planner-owned scratch, valid until the next PlanBatch call on the same
// Planner.
type Plan struct {
	// Queues[p] holds partition p's operations, sorted by (Txn, hoisted
	// Seq) — a linear extension of global priority.
	Queues [][]Op
	// Home[t] is the partition that accounts transaction t's commit (the
	// partition of its first declared op; -1 for an empty transaction).
	Home []int32
	// Mailboxes[t] is transaction t's delivery mailbox.
	Mailboxes []Mailbox
	// Txns is the number of transactions in the batch (including empty
	// ones, which commit vacuously).
	Txns int

	canceled atomic.Bool
}

// Cancel aborts the batch: every parked Collect returns ErrCanceled so the
// partition executors can unwind instead of spinning forever.
func (p *Plan) Cancel() { p.canceled.Store(true) }
