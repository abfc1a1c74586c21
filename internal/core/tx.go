package core

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"next700/internal/cc"
	"next700/internal/fault"
	"next700/internal/index"
	"next700/internal/stats"
	"next700/internal/storage"
	"next700/internal/txn"
	"next700/internal/wal"
	"next700/internal/xrand"
)

// Tx is the transaction context handed to transaction bodies. It wraps the
// descriptor with engine-level semantics: index resolution, own-write
// visibility, and secondary-index maintenance.
type Tx struct {
	eng   *Engine
	inner *txn.Txn
	// scanKeys and scanRIDs hold one chunk of a range scan's index entries
	// (at most scanChunk), allocated by the context's first scan; collect,
	// built once per context, fills them.
	scanKeys []uint64
	scanRIDs []storage.RecordID
	collect  func(key uint64, rid storage.RecordID) bool
	// encode buffer for WAL records, reused across transactions.
	logBuf []byte
	// logRec is the reusable commit record; its Entries slice keeps its
	// capacity across transactions so value logging allocates nothing.
	logRec wal.CommitRecord
	// logStream is this worker's log stream (threadID modulo the stream
	// count), held as the one-element stream list thread-affinity commits
	// append to and wait on.
	logStream [1]int
	// streamScratch is the commit path's touched-partition set under
	// PartitionWAL (ascending stream ids, deduplicated); pre-sized to the
	// partition bound so collectStreams allocates nothing.
	streamScratch []int
	// declared is DeclarePartitions' copy of the caller's partition list.
	declared []int
	// noLog suppresses write-ahead logging for this context. Recovery sets
	// it while re-executing the command-log tail: the log being replayed
	// stays the authoritative tail, so re-logging the replayed procedures
	// would make a second crash re-execute them twice — and, replaying the
	// file the engine logs to, would read its own appends back without end.
	noLog bool
}

// scanChunk is how many index entries a range scan collects before it reads
// them. A scan that stops early pays for at most one chunk it does not use,
// and the scratch a context keeps never grows past one chunk.
const scanChunk = 64

// NewTx creates a reusable transaction context bound to a worker slot.
// threadID must be < Config.Threads. Each context may be used by one
// goroutine at a time. Contexts sharing a threadID share the worker's
// statistics slot.
func (e *Engine) NewTx(threadID int, seed uint64) *Tx {
	t := &Tx{
		eng:   e,
		inner: txn.NewTxn(threadID, xrand.New(seed), e.counterSlot(threadID)),
	}
	t.collect = func(key uint64, rid storage.RecordID) bool {
		t.scanKeys = append(t.scanKeys, key)
		t.scanRIDs = append(t.scanRIDs, rid)
		return len(t.scanKeys) < scanChunk
	}
	if e.logs != nil && threadID > 0 {
		t.logStream[0] = threadID % e.logs.NumStreams()
	}
	if e.cfg.PartitionWAL {
		t.streamScratch = make([]int, 0, e.cfg.Partitions)
	}
	return t
}

// RNG returns the worker-local random source.
func (t *Tx) RNG() *xrand.RNG { return t.inner.RNG }

// SetDeadline sets the absolute deadline for subsequent transactions run on
// this context. Every blocking site — lock waits, durability waits, retry
// backoff — charges against it, and Run returns an error satisfying
// errors.Is(err, ErrDeadlineExceeded) once the budget is gone. The deadline
// is a plain int64 (Unix nanoseconds) on the descriptor: no context.Context,
// no allocation, and with no deadline set the hot path pays one branch.
// The deadline persists across Run calls until changed or cleared.
func (t *Tx) SetDeadline(at time.Time) { t.inner.Deadline = at.UnixNano() }

// SetDeadlineAfter sets the deadline d from now.
func (t *Tx) SetDeadlineAfter(d time.Duration) {
	t.inner.Deadline = time.Now().Add(d).UnixNano()
}

// SetDeadlineNanos sets the deadline as absolute Unix nanoseconds
// (0 clears it). This is the allocation-free form harness layers use to
// derive per-transaction deadlines from queue-arrival timestamps.
func (t *Tx) SetDeadlineNanos(nanos int64) { t.inner.Deadline = nanos }

// ClearDeadline removes any deadline.
func (t *Tx) ClearDeadline() { t.inner.Deadline = 0 }

// DeadlineNanos returns the current absolute deadline in Unix nanoseconds
// (0 = none).
func (t *Tx) DeadlineNanos() int64 { return t.inner.Deadline }

// Counter returns the per-worker statistics counter.
func (t *Tx) Counter() *stats.Counter { return t.inner.Counter }

// ThreadID returns the worker slot.
func (t *Tx) ThreadID() int { return t.inner.ThreadID }

// Schema is a convenience accessor for a table's schema.
func (t *Tx) Schema(tbl *Table) *storage.Schema { return tbl.sch }

// DeclarePartitions pre-declares the partitions this transaction touches.
// Required for HSTORE multi-partition transactions; a no-op elsewhere. The
// list is copied into the context before the protocol sees it, so a
// caller's variadic list stays on its stack and declaring allocates nothing.
func (t *Tx) DeclarePartitions(parts ...int) error {
	pa, ok := t.eng.proto.(cc.PartitionAware)
	if !ok {
		return nil
	}
	t.declared = append(t.declared[:0], parts...)
	return pa.DeclarePartitions(t.inner, t.declared)
}

// lookup resolves key in tbl's primary index.
func (t *Tx) lookup(tbl *Table, key uint64) (storage.RecordID, bool) {
	return tbl.primary.Lookup(key)
}

// Prefetch is a hint that the transaction will access keys of tbl next. It
// changes no state, counts no read, and skipping it changes no result: it
// only overlaps the keys' cache misses, which Read and Update would
// otherwise take one after another. It runs in two stages. First it hints
// every key's hash home slot, which needs nothing but the key; then it
// resolves each key, whose slot is by then on its way, and has the
// protocol hint the record's lines. Hints never wait, so the CPU keeps the
// misses of all keys in flight at once. On a table whose primary index is
// a B+ tree it does nothing.
//
//next700:hotpath
func (t *Tx) Prefetch(tbl *Table, keys []uint64) {
	h := tbl.hash
	if h == nil {
		return
	}
	for _, key := range keys {
		h.Prefetch(key)
	}
	for _, key := range keys {
		t.eng.prefetchRecord(tbl, key)
	}
}

// prefetchRecord resolves key in tbl's hash primary, if it has one, and has
// the protocol hint the record's lines.
//
//next700:hotpath
func (e *Engine) prefetchRecord(tbl *Table, key uint64) {
	if tbl.hash == nil {
		return
	}
	if rid, ok := tbl.hash.Lookup(key); ok {
		e.proto.Prefetch(tbl.tbl, rid)
	}
}

// Read returns the row image for key. The returned slice is read-only and
// valid until the transaction ends.
//
//next700:hotpath
func (t *Tx) Read(tbl *Table, key uint64) (storage.Row, error) {
	t.inner.Counter.Reads++
	if err := t.partitionGate(tbl, key); err != nil {
		return nil, err
	}
	rid, ok := t.lookup(tbl, key)
	if !ok {
		return nil, txn.ErrNotFound
	}
	return t.readRID(tbl, rid)
}

// readRID reads a record by rid with own-write visibility.
func (t *Tx) readRID(tbl *Table, rid storage.RecordID) (storage.Row, error) {
	if w := t.inner.FindWrite(tbl.tbl, rid); w != nil {
		if w.Kind == txn.KindDelete {
			return nil, txn.ErrNotFound
		}
		return storage.Row(w.Data), nil
	}
	data, err := t.eng.proto.Read(t.inner, tbl.tbl, rid)
	if err != nil {
		return nil, err
	}
	return storage.Row(data), nil
}

// Update returns a writable after-image for key; mutations become visible
// atomically at commit.
//
//next700:hotpath
func (t *Tx) Update(tbl *Table, key uint64) (storage.Row, error) {
	t.inner.Counter.Writes++
	if err := t.partitionGate(tbl, key); err != nil {
		return nil, err
	}
	rid, ok := t.lookup(tbl, key)
	if !ok {
		return nil, txn.ErrNotFound
	}
	if w := t.inner.FindWrite(tbl.tbl, rid); w != nil {
		if w.Kind == txn.KindDelete {
			return nil, txn.ErrNotFound
		}
		return storage.Row(w.Data), nil
	}
	buf, err := t.eng.proto.ReadForUpdate(t.inner, tbl.tbl, rid)
	if err != nil {
		return nil, err
	}
	// Protocols record update accesses by RID alone; stamp the primary key
	// so partition-affinity routing (collectStreams) and key-addressed
	// partition replay see it in the value log's after-images.
	if w := t.inner.FindWrite(tbl.tbl, rid); w != nil {
		w.Key = key
	}
	return storage.Row(buf), nil
}

// Insert adds a new row under key. Fails with txn.ErrDuplicate if the key
// exists (including uncommitted inserts by concurrent transactions).
//
// Ordering: the primary index entry is published (reserving the key — the
// duplicate check), and only then is the fresh record registered with the
// protocol. A reader chasing the index entry in the window finds a record no
// commit has made present — a fresh record id reads absent under every
// protocol, with nothing written — and reports not-found, which protocols
// turn into a validation/lock dependency as appropriate.
func (t *Tx) Insert(tbl *Table, key uint64, row storage.Row) error {
	t.inner.Counter.Inserts++
	if err := t.partitionGate(tbl, key); err != nil {
		return err
	}
	if len(row) != tbl.sch.RowSize() {
		return errInsertSize
	}
	rid := tbl.tbl.Alloc()
	data := t.inner.Buf(len(row))
	copy(data, row)
	if _, ok := tbl.primary.Insert(key, rid); !ok {
		return txn.ErrDuplicate
	}
	if err := t.eng.proto.RegisterInsert(t.inner, tbl.tbl, rid, key, data); err != nil {
		// No access entry was recorded; retract the published key so it
		// does not orphan (the transaction as a whole is about to abort,
		// but this insert is not in its access set).
		tbl.primary.Delete(key)
		return err
	}
	for i := range tbl.secondaries {
		s := &tbl.secondaries[i]
		s.idx.Insert(s.extract(tbl.sch, row, key), rid)
	}
	return nil
}

// Delete removes key's record at commit.
func (t *Tx) Delete(tbl *Table, key uint64) error {
	t.inner.Counter.Deletes++
	if err := t.partitionGate(tbl, key); err != nil {
		return err
	}
	rid, ok := t.lookup(tbl, key)
	if !ok {
		return txn.ErrNotFound
	}
	if w := t.inner.FindWrite(tbl.tbl, rid); w != nil && w.Kind == txn.KindDelete {
		return txn.ErrNotFound
	}
	return t.eng.proto.RegisterDelete(t.inner, tbl.tbl, rid, key)
}

// Scan visits rows with primary keys in [lo, hi] ascending. The primary
// index must be a B+ tree. fn receives the key and a read-only row image;
// return false to stop. Deleted/invisible records are skipped.
func (t *Tx) Scan(tbl *Table, lo, hi uint64, fn func(key uint64, row storage.Row) bool) error {
	return t.scan(tbl, lo, hi, false, fn)
}

// ScanDesc is Scan in descending key order.
func (t *Tx) ScanDesc(tbl *Table, lo, hi uint64, fn func(key uint64, row storage.Row) bool) error {
	return t.scan(tbl, lo, hi, true, fn)
}

func (t *Tx) scan(tbl *Table, lo, hi uint64, desc bool, fn func(key uint64, row storage.Row) bool) error {
	t.inner.Counter.Scans++
	r, ok := tbl.ranger()
	if !ok {
		return fmt.Errorf("core: table %s primary index does not support scans: %w", tbl.Name(), ErrInvalidUsage)
	}
	return t.scanRange(tbl, r, lo, hi, desc, true, fn)
}

// scanRange is the loop every range scan runs. It collects at most
// scanChunk index entries, then reads them with no index latch held —
// protocol reads may block or wait, and mixing latch and lock ordering risks
// deadlock — and stops as soon as fn returns false. A full chunk resumes
// the index scan just past its last key, in the scan's direction. gate
// applies the partition quarantine, which is keyed by primary key.
func (t *Tx) scanRange(tbl *Table, r index.Ranger, lo, hi uint64, desc, gate bool,
	fn func(key uint64, row storage.Row) bool) error {
	if t.scanKeys == nil {
		t.scanKeys = make([]uint64, 0, scanChunk)
		t.scanRIDs = make([]storage.RecordID, 0, scanChunk)
	}
	for {
		t.scanKeys = t.scanKeys[:0]
		t.scanRIDs = t.scanRIDs[:0]
		if desc {
			r.ScanDesc(lo, hi, t.collect)
		} else {
			r.Scan(lo, hi, t.collect)
		}
		n := len(t.scanKeys)
		if n == 0 {
			return nil
		}
		last := t.scanKeys[n-1]
		// One quarantine-mask load covers the chunk; partitions are
		// computed per key only while a quarantine is in force.
		mask := t.eng.quarMask.Load()
		for i := 0; i < n; i++ {
			key := t.scanKeys[i]
			if gate && mask != 0 && mask&(1<<uint(t.eng.partitionOfKey(tbl.tbl, key))) != 0 {
				return errPartitionGate
			}
			row, err := t.readRID(tbl, t.scanRIDs[i])
			if errors.Is(err, txn.ErrNotFound) {
				continue // deleted or not yet visible
			}
			if err != nil {
				return err
			}
			if !fn(key, row) {
				return nil
			}
		}
		switch {
		case n < scanChunk:
			return nil
		case desc:
			if last <= lo {
				return nil
			}
			hi = last - 1
		default:
			if last >= hi {
				return nil
			}
			lo = last + 1
		}
	}
}

// LookupIndex resolves a key in a named secondary index and reads the row.
func (t *Tx) LookupIndex(tbl *Table, indexName string, key uint64) (storage.Row, error) {
	s := tbl.findSecondary(indexName)
	if s == nil {
		return nil, fmt.Errorf("core: no index %s on %s: %w", indexName, tbl.Name(), ErrInvalidUsage)
	}
	rid, ok := s.idx.Lookup(key)
	if !ok {
		return nil, txn.ErrNotFound
	}
	return t.readRID(tbl, rid)
}

// ScanIndex range-scans a named secondary index (must be a B+ tree),
// passing each index key and row image to fn.
func (t *Tx) ScanIndex(tbl *Table, indexName string, lo, hi uint64, desc bool,
	fn func(indexKey uint64, row storage.Row) bool) error {
	s := tbl.findSecondary(indexName)
	if s == nil {
		return fmt.Errorf("core: no index %s on %s: %w", indexName, tbl.Name(), ErrInvalidUsage)
	}
	r, ok := s.idx.(index.Ranger)
	if !ok {
		return fmt.Errorf("core: index %s does not support scans: %w", indexName, ErrInvalidUsage)
	}
	return t.scanRange(tbl, r, lo, hi, desc, false, fn)
}

// ErrLivelock is returned by Run when a transaction exhausts the retry
// schedule's attempt budget without committing.
var ErrLivelock = errors.New("core: transaction livelocked")

// ErrInvalidUsage is the API-misuse class: statement- or setup-level errors
// caused by the caller (wrong row size, unknown index or proc, logging-mode
// misconfiguration) rather than by data or contention. It is never produced
// by a well-formed workload, so harness workers treat it as a run failure,
// not a per-transaction outcome. All such errors wrap it; match with
// errors.Is(err, core.ErrInvalidUsage).
var ErrInvalidUsage = errors.New("core: invalid usage")

// errNeedRunProc is prebuilt because encodeLog sits on the commit hot path.
var errNeedRunProc = fmt.Errorf("core: command logging requires RunProc: %w", ErrInvalidUsage)

// errInsertSize is prebuilt because Insert sits on workload hot paths.
var errInsertSize = fmt.Errorf("core: insert row size mismatch: %w", ErrInvalidUsage)

// ErrDeadlineExceeded is the terminal deadline abort class: Run returns an
// error satisfying errors.Is(err, ErrDeadlineExceeded) when the
// transaction's deadline expires while queued, blocked, backing off, or
// waiting for durability.
var ErrDeadlineExceeded = txn.ErrDeadlineExceeded

// Run executes body as a transaction, retrying transient (conflict) aborts
// with a fixed bounded-exponential backoff and full jitter (retryDelay).
// Non-transient errors — user aborts, application errors, sticky log
// failure — abort cleanly without retry and are returned. Abort classes
// are accounted separately: Counter.Aborts counts retried transient aborts,
// UserAborts and FatalAborts the terminal ones.
func (t *Tx) Run(body func(tx *Tx) error) error {
	return t.run(body, 0, nil)
}

// RunProc executes a registered stored procedure; under command logging
// its (id, params) pair is logged instead of the write set.
func (t *Tx) RunProc(procID int32, params []byte) error {
	fn := t.eng.proc(procID)
	if fn == nil {
		return fmt.Errorf("core: unknown proc %d: %w", procID, ErrInvalidUsage)
	}
	return t.run(func(tx *Tx) error { return fn(tx, params) }, procID, params)
}

func (t *Tx) run(body func(tx *Tx) error, procID int32, params []byte) error {
	inner := t.inner
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			runtime.Gosched()
			if d := retryDelay(inner.RNG, attempt); d > 0 {
				// Backoff is charged against the deadline budget: a sleep
				// that would end at or past the deadline is not taken at
				// all, because the retry it precedes could never finish in
				// time.
				if dl := inner.Deadline; dl != 0 {
					if remaining := time.Duration(dl - time.Now().UnixNano()); d >= remaining {
						return t.deadlineAbort()
					}
				}
				time.Sleep(d)
			}
			if attempt >= retryMaxAttempts {
				return ErrLivelock
			}
		}
		if inner.Expired() {
			// Expired before the attempt could start (e.g. the transaction
			// aged out while queued, or a previous attempt consumed the
			// budget blocking on a lock).
			return t.deadlineAbort()
		}
		inner.Reset()
		committed, err := t.attempt(body, procID, params)
		if committed {
			// A committed attempt's error is a logging failure: the
			// transaction is durably committed in memory, so it is
			// surfaced without rolling back.
			inner.ClearPriority()
			inner.Counter.Commits++
			return err
		}
		if fault.IsTransient(err) {
			inner.Counter.Aborts++
			continue
		}
		inner.ClearPriority()
		switch {
		case errors.Is(err, txn.ErrUserAbort):
			inner.Counter.UserAborts++
		case errors.Is(err, txn.ErrDeadlineExceeded):
			inner.Counter.DeadlineAborts++
		case errors.Is(err, ErrPartitionUnavailable):
			inner.Counter.PartitionAborts++
		default:
			inner.Counter.FatalAborts++
		}
		return err
	}
}

// attempt runs body once, Begin through commit or abort, and reports
// whether it committed. A failed protocol commit has already rolled the
// attempt back; a body error is aborted here. On a gated engine the quiesce
// gate brackets the attempt: command-logged checkpoints take the write side
// to capture a true quiescent point, and RecoverPartition to drain attempts
// under PartitionWAL. Other engines have no writer and skip it.
func (t *Tx) attempt(body func(tx *Tx) error, procID int32, params []byte) (committed bool, err error) {
	e := t.eng
	if e.gated {
		e.quiesce.RLock()
	}
	e.proto.Begin(t.inner)

	//next700:locked(Engine.quiesce: the gate read side deliberately brackets the user transaction body; only command-logged checkpoints and RecoverPartition's drains take the write side)
	if err = body(t); err == nil {
		committed, err = t.commit(procID, params)
		committed = committed || err == nil
	} else {
		e.proto.Abort(t.inner)
		t.retractInserts()
	}
	if e.gated {
		e.quiesce.RUnlock()
	}
	return committed, err
}

// deadlineAbort accounts a terminal deadline abort. Any prior attempt was
// already rolled back before the retry loop re-entered, so there is no
// protocol state to release here.
func (t *Tx) deadlineAbort() error {
	t.inner.ClearPriority()
	t.inner.Counter.DeadlineAborts++
	return txn.ErrDeadlineExceeded
}

// commit drives the protocol commit, post-commit index maintenance, and
// write-ahead logging, and waits for the record's durability. committed
// reports whether the protocol commit succeeded (after which errors are
// logging failures, not rollbacks).
//
//next700:hotpath
func (t *Tx) commit(procID int32, params []byte) (committed bool, err error) {
	committed, epoch, err := t.publish(procID, params)
	if err != nil || epoch == 0 {
		return committed, err
	}
	// The wait happens outside the checkpoint fence and may park for a full
	// epoch window. Under partition affinity it certifies the record on
	// every touched stream; a stream that dies in the window is a partition
	// outage, not a rollback.
	err = t.eng.logs.WaitDurableMulti(t.appendStreams(), epoch, t.inner.Deadline)
	if errors.Is(err, wal.ErrWaitDeadline) {
		return true, errDurabilityDeadline
	}
	return true, t.eng.wrapPartitionErr(err)
}

// appendStreams is the stream list the commit record goes to: the worker's
// own stream under thread affinity, the stream of every partition the write
// set touched (collectStreams) under partition affinity.
func (t *Tx) appendStreams() []int {
	if t.eng.cfg.PartitionWAL {
		return t.streamScratch
	}
	return t.logStream[:]
}

// publish is the commit path up to the durability wait: the pre-commit
// gates, the protocol commit, encode and append when logging, and then
// post-commit index maintenance. It returns the epoch the record was tagged
// with — 0 when nothing was appended — which the caller waits on
// (Tx.commit) or seals a whole batch with (DetExecutor).
//
//next700:hotpath
func (t *Tx) publish(procID int32, params []byte) (committed bool, epoch uint64, err error) {
	e := t.eng
	inner := t.inner

	if e.logs == nil || t.noLog {
		if err = e.proto.Commit(inner); err != nil {
			t.retractInserts()
			return false, 0, err
		}
		t.retractDeletes()
		return true, 0, nil
	}
	// The checkpoint fence spans memory publication through log append: the
	// record's epoch tag is drawn while the fence is held, so a checkpoint
	// rotation that has drained the fence knows no in-flight commit can tag
	// at or below its boundary epoch. Uncontended, the read lock is one
	// atomic each way; it is only ever contended for the rotation instant
	// itself.
	e.ckptFence.RLock()
	defer e.ckptFence.RUnlock()

	// A dead log device cannot make any new commit durable: degrade to a
	// clean abort instead of committing memory state that would silently
	// vanish on recovery. One atomic load; free when the log is healthy.
	if e.logs.Failed() {
		e.proto.Abort(inner)
		t.retractInserts()
		return false, 0, e.logs.Err()
	}

	// Partition-affinity pre-commit gate: a write set that touches a
	// quarantined partition can never be made durable, so it aborts here —
	// before the protocol commit, while rollback is still possible. The ops
	// gates make this race-narrow; this check makes it sound.
	if e.cfg.PartitionWAL {
		if wmask := t.collectStreams(); wmask != 0 && e.quarMask.Load()&wmask != 0 {
			e.proto.Abort(inner)
			t.retractInserts()
			return false, 0, errPartitionGate
		}
	}

	if err = e.proto.Commit(inner); err != nil {
		t.retractInserts()
		return false, 0, err
	}
	if !inner.HasWrites() {
		return true, 0, nil
	}
	// Encode and append inside the fence: the record's epoch tag is drawn
	// under the stream mutex. Partition affinity replicates the record onto
	// every touched partition's stream under one tag.
	//
	// Deleted keys leave the indexes only after the append, on every path
	// from here. Until then a re-insert of such a key — a write to another
	// record id, which no protocol orders against this one — fails its
	// duplicate check, so on one stream it appends after this delete, and
	// value replay applies a stream in append order (wal.AppendOrder).
	if err = t.encodeLog(procID, params); err != nil {
		t.retractDeletes()
		return true, 0, err
	}
	epoch, err = e.logs.AppendMulti(t.appendStreams(), t.logBuf)
	t.retractDeletes()
	return true, epoch, e.wrapPartitionErr(err)
}

// retractDeletes is the post-commit index maintenance: the committed
// transaction's deleted keys leave the primary and secondary indexes.
//
//next700:hotpath
func (t *Tx) retractDeletes() {
	inner := t.inner
	for i := range inner.Accesses {
		a := &inner.Accesses[i]
		if a.Kind != txn.KindDelete {
			continue
		}
		th := t.eng.tableByID(a.Table.ID())
		if th == nil {
			continue
		}
		th.primary.Delete(a.Key)
		// Secondary keys come from the deleted image, which every
		// protocol's RegisterDelete puts in the access.
		for j := range th.secondaries {
			s := &th.secondaries[j]
			s.idx.Delete(s.extract(th.sch, storage.Row(a.Data), a.Key))
		}
	}
}

// encodeLog builds the commit record for the committed transaction into
// t.logBuf. The commit record, its entries slice, and the encode buffer are
// all Tx-owned and reused, so steady-state logging allocates nothing per
// commit.
//
//next700:hotpath
func (t *Tx) encodeLog(procID int32, params []byte) error {
	e := t.eng
	inner := t.inner
	cr := &t.logRec
	cr.TxnID = inner.ID
	cr.Proc, cr.Params = 0, nil
	cr.Entries = cr.Entries[:0]
	if e.cfg.LogMode == wal.ModeCommand {
		if procID == 0 {
			return errNeedRunProc
		}
		cr.Proc = procID
		cr.Params = params
	} else {
		for i := range inner.Accesses {
			a := &inner.Accesses[i]
			if a.Kind == txn.KindRead {
				continue
			}
			entry := wal.Entry{Table: int32(a.Table.ID()), RID: uint64(a.RID), Key: a.Key}
			switch a.Kind {
			case txn.KindInsert:
				entry.Kind = wal.EntryInsert
				entry.Data = a.Data
			case txn.KindDelete:
				entry.Kind = wal.EntryDelete
			default:
				entry.Kind = wal.EntryUpdate
				entry.Data = a.Data
			}
			cr.Entries = append(cr.Entries, entry)
		}
	}
	t.logBuf = cr.Encode(t.logBuf)
	// Drop row-image aliases before the next transaction resets the arena.
	for i := range cr.Entries {
		cr.Entries[i].Data = nil
	}
	cr.Params = nil
	return nil
}

// errDurabilityDeadline is the pre-built (allocation-free) error returned
// when the deadline expires while waiting for WAL durability. The
// transaction is committed in memory and its record stays staged, so the
// outcome is indeterminate — it may yet become durable — which is why Run
// still counts the commit while surfacing the deadline class to the caller.
var errDurabilityDeadline = fmt.Errorf("core: commit durability wait: %w", txn.ErrDeadlineExceeded)

// retractInserts undoes index publication for the aborted transaction's
// inserts. Protocol state was already released by Abort (or by the failed
// Commit itself).
func (t *Tx) retractInserts() {
	inner := t.inner
	for i := range inner.Accesses {
		a := &inner.Accesses[i]
		if a.Kind != txn.KindInsert {
			continue
		}
		th := t.eng.tableByID(a.Table.ID())
		if th == nil {
			continue
		}
		th.primary.Delete(a.Key)
		for j := range th.secondaries {
			s := &th.secondaries[j]
			s.idx.Delete(s.extract(th.sch, storage.Row(a.Data), a.Key))
		}
	}
}
