// Package verify is the engine's standing isolation-anomaly oracle. It
// promotes the stamp/prev history-recording technique that used to live
// inside internal/core's serializability test into a reusable subsystem:
// every write stamps a globally unique version number and records the stamp
// it overwrote, every read records the stamp it observed, and aborted
// attempts keep their stamps in a separate set. From a recorded history the
// checker reconstructs per-key version chains, builds the full dependency
// graph (ww from chain order, wr reads-from, rw anti-dependencies), and
// classifies Adya-style phenomena — dirty writes (G0), aborted and
// intermediate reads (G1a/G1b), and serialization cycles (G1c/G2) — each
// with a concrete witness naming the offending transactions and versions
// rather than a bare pass/fail.
//
// The recorder is strictly opt-in and lives entirely outside the engine's
// commit path: workloads that want verification (the stamped Probe, or any
// custom driver) call Begin/Read/Write/Commit/Abort on a per-worker
// Recorder; workloads that don't never touch the package.
package verify

import "sync/atomic"

// Op is one observed operation of a recorded transaction.
type Op struct {
	// Key is the record's primary key.
	Key uint64
	// Stamp is the version written (writes) or observed (reads). Stamp 0 is
	// the bulk-load version shared by every key.
	Stamp int64
	// Prev is the version a write overwrote (writes only).
	Prev int64
	// Write distinguishes writes from reads.
	Write bool
}

// Txn is one committed transaction's recorded operation sequence.
type Txn struct {
	ID  int64
	Ops []Op
}

// span marks one committed transaction inside a Recorder's flat op log.
type span struct {
	id         int64
	start, end int
}

// abortedWrite is a write whose transaction attempt did not commit. Its
// stamp must never be observed by a committed read (G1a) nor appear in any
// version chain (G0).
type abortedWrite struct {
	txn   int64
	key   uint64
	stamp int64
	prev  int64
}

// History is a multi-worker record of committed and aborted transaction
// observations. Stamps and transaction ids are drawn from shared atomic
// counters; all other recording state is per-worker, so the recording hot
// path is an allocation-amortized append with no cross-worker contention.
type History struct {
	stampCtr atomic.Int64
	txnCtr   atomic.Int64
	workers  []*Recorder
}

// NewHistory creates a history with one Recorder per worker slot.
func NewHistory(workers int) *History {
	if workers <= 0 {
		workers = 1
	}
	h := &History{workers: make([]*Recorder, workers)}
	for i := range h.workers {
		h.workers[i] = &Recorder{h: h, curStart: -1}
	}
	return h
}

// Recorder returns the per-worker recorder for the given slot. Each
// recorder may be used by one goroutine at a time.
func (h *History) Recorder(worker int) *Recorder { return h.workers[worker] }

// NextStamp draws a globally unique version stamp. Exposed for drivers that
// stamp outside a Recorder (none in-tree; Recorder.Write is the normal
// path).
func (h *History) NextStamp() int64 { return h.stampCtr.Add(1) }

// Recorder accumulates one worker's observations. Committed transactions
// are spans into a flat, reused op log; aborted attempts contribute only
// their writes to a separate set. The append path allocates only when a
// slice grows, which amortizes to nothing over a run.
type Recorder struct {
	h        *History
	ops      []Op
	spans    []span
	aborted  []abortedWrite
	curStart int // -1 when no attempt is open
}

// Begin opens a new transaction attempt. An attempt left open (a retried
// body, or a worker that died mid-transaction) is recorded as aborted.
func (r *Recorder) Begin() {
	if r.curStart >= 0 {
		r.Abort()
	}
	r.curStart = len(r.ops)
}

// Read records that the open attempt observed version stamp of key.
func (r *Recorder) Read(key uint64, stamp int64) {
	r.ops = append(r.ops, Op{Key: key, Stamp: stamp})
}

// Write draws a fresh stamp for a write of key that overwrote version prev,
// records it, and returns the stamp for the caller to install in the row.
func (r *Recorder) Write(key uint64, prev int64) int64 {
	stamp := r.h.stampCtr.Add(1)
	r.ops = append(r.ops, Op{Key: key, Stamp: stamp, Prev: prev, Write: true})
	return stamp
}

// WriteStamped records a write whose stamp was drawn earlier (via
// History.NextStamp) rather than at record time. Deterministic execution
// needs this split: stamps are drawn on the partition executors at the
// moment the write happens, but the history is flushed after the batch by a
// single goroutine in priority order, so recording and stamping cannot be
// one call.
func (r *Recorder) WriteStamped(key uint64, stamp, prev int64) {
	r.ops = append(r.ops, Op{Key: key, Stamp: stamp, Prev: prev, Write: true})
}

// Commit seals the open attempt as a committed transaction.
func (r *Recorder) Commit() {
	if r.curStart < 0 {
		return
	}
	r.spans = append(r.spans, span{id: r.h.txnCtr.Add(1), start: r.curStart, end: len(r.ops)})
	r.curStart = -1
}

// Abort discards the open attempt, retaining its writes in the aborted set
// so the checker can detect reads of (and writes over) aborted versions.
func (r *Recorder) Abort() {
	if r.curStart < 0 {
		return
	}
	id := r.h.txnCtr.Add(1)
	for _, op := range r.ops[r.curStart:] {
		if op.Write {
			r.aborted = append(r.aborted, abortedWrite{txn: id, key: op.Key, stamp: op.Stamp, prev: op.Prev})
		}
	}
	r.ops = r.ops[:r.curStart]
	r.curStart = -1
}
