package core

import (
	"fmt"
	"runtime"
	"sync"
	"unsafe"

	"next700/internal/cc"
	"next700/internal/prefetch"
	"next700/internal/storage"
	"next700/internal/wal"
)

// Value replay is the tail stage's apply step under value logging, and it
// runs in parallel. The scanning goroutine (wal.ReplayStreams' callback)
// decodes each commit record, resolves its tables, grows them to cover the
// logged record ids, and routes every entry by (table, key) to one of
// GOMAXPROCS appliers; each applier applies its entries in log order. That
// is exactly the sequential replay, reordered only between different keys:
//
//   - a key's entries all reach one applier, in the order the scan emitted
//     them, and under slot addressing every record id belongs to one key for
//     its whole life (ids are never reused), so the row, live bit, protocol
//     metadata and version slot an entry touches are its applier's alone;
//   - index entries are per key too — secondary keys are unique per primary
//     key by AddIndex's contract — and the indexes are concurrent;
//   - table growth happens in the scanning goroutine, before the entry that
//     needs it is routed, so appliers never allocate slots under slot
//     addressing (key addressing allocates through the atomic Table.Alloc).
//
// Entries of one record land on different appliers, so a record is not
// applied atomically — nothing reads the engine's state in scope until the
// replay has joined its appliers.
//
// An entry's apply is latency-bound: its version slot and the record's
// protocol lines are cold, and a plain loop over a batch takes those misses
// one entry at a time although the entries are independent. Profiled on
// BenchmarkReplayValue's ledger-sized case, it spent about 160 ns per entry
// on the version compare's first load and as much again on SILO's first
// touch of the record's slot. So an applier stages a lookahead over its
// batch, as the deterministic executor does over a queue: before it applies
// op i it hints op i+replayLookahead's version slot and protocol lines, and
// under key addressing, where the record id is known only after the index
// lookup, it hints op i+2·replayLookahead's hash home slot first. The hints
// change no state and the apply order is the log order, so the result is
// the plain loop's.
//
// Applied-if-newer filtering is per applier over a dense version table
// indexed by record id: no hashing, no map growth, no shared cache line.

// applyBatchOps is the entries one batch carries from the scanning goroutine
// to an applier: large enough to amortise the channel hand-off and give the
// applier a long run of independent entries, small enough that the appliers
// start while the scan is still reading.
const applyBatchOps = 1024

// applyBatchesInFlight bounds the batches queued per applier; the scan blocks
// beyond it, so replay memory is bounded by the appliers' pace, not the log.
const applyBatchesInFlight = 4

// valueReplay routes one replay's entries to its appliers.
type valueReplay struct {
	e *Engine
	// partition selects key addressing: apply each after-image to its key's
	// current slot (partition-affinity logs, whose base may sit at fresh
	// record ids) instead of the logged slot.
	partition bool
	appliers  []*applier
	wg        sync.WaitGroup
	records   int
	// last caches the previous entry's table: records name few tables.
	lastID int32
	last   *Table
}

// applyOp is one routed entry; its after-image is data[off:end] of the batch.
type applyOp struct {
	th         *Table
	table      int32
	kind       wal.EntryKind
	rid, key   uint64
	epoch, txn uint64
	off, end   int
}

type applyBatch struct {
	ops  []applyOp
	data []byte
}

// applier owns the keys routed to it for one replay.
type applier struct {
	partition bool
	proto     cc.Protocol
	versions  versionTable
	entries   int
	skipped   int
	cur       *applyBatch
	in, free  chan *applyBatch
}

// newValueReplay starts a replay's appliers. finish must follow, whatever the
// replay returned.
func (e *Engine) newValueReplay(partition bool) *valueReplay {
	vr := &valueReplay{e: e, partition: partition, lastID: -1}
	for i := runtime.GOMAXPROCS(0); i > 0; i-- {
		a := &applier{
			partition: partition,
			proto:     e.proto,
			in:        make(chan *applyBatch, applyBatchesInFlight),
			// Room for every batch that can exist, so an applier never
			// blocks handing one back.
			free: make(chan *applyBatch, applyBatchesInFlight+2),
		}
		vr.appliers = append(vr.appliers, a)
		vr.wg.Add(1)
		go a.run(&vr.wg)
	}
	return vr
}

// record routes the entries of one commit record. part >= 0 keeps only that
// partition's entries — a partition-affinity stream's own — and counts the
// record only if it had any.
func (vr *valueReplay) record(cr *wal.CommitRecord, part int) error {
	kept := false
	for i := range cr.Entries {
		en := &cr.Entries[i]
		th := vr.table(en.Table)
		if th == nil {
			// A structurally valid record naming a table this engine does
			// not have means the log and the schema diverged — classified as
			// log corruption for the caller.
			return fmt.Errorf("core: recovery references unknown table %d: %w", en.Table, wal.ErrCorrupt)
		}
		if part >= 0 && vr.e.partitionOfKey(th.tbl, en.Key) != part {
			continue
		}
		kept = true
		if !vr.partition {
			for th.tbl.NumRows() <= en.RID {
				th.tbl.Alloc()
			}
		}
		op := applyOp{th: th, table: en.Table, kind: en.Kind, rid: en.RID, key: en.Key, epoch: cr.Epoch, txn: cr.TxnID}
		vr.appliers[route(en.Table, en.Key, len(vr.appliers))].queue(&op, en.Data)
	}
	if kept || part < 0 {
		vr.records++
	}
	return nil
}

func (vr *valueReplay) table(id int32) *Table {
	if id != vr.lastID {
		vr.last, vr.lastID = vr.e.tableByID(int(id)), id
	}
	return vr.last
}

// finish hands over the partial batches, joins the appliers and adds what
// they did to rs.
func (vr *valueReplay) finish(rs *RecoveryStats) {
	for _, a := range vr.appliers {
		if a.cur != nil {
			a.in <- a.cur
			a.cur = nil
		}
		close(a.in)
	}
	vr.wg.Wait() // every applier drains a closed channel of at most applyBatchesInFlight batches and exits
	rs.Records += vr.records
	rs.Appliers = len(vr.appliers)
	for _, a := range vr.appliers {
		rs.Entries += a.entries
		rs.Skipped += a.skipped
	}
}

// route maps (table, key) to an applier.
func route(table int32, key uint64, n int) int {
	h := (key ^ uint64(table)<<48) * 0x9e3779b97f4a7c15
	return int((h >> 32) * uint64(n) >> 32)
}

// queue appends one entry to the applier's current batch, handing the batch
// over once it is full.
func (a *applier) queue(op *applyOp, data []byte) {
	b := a.cur
	if b == nil {
		select {
		case b = <-a.free:
			b.ops, b.data = b.ops[:0], b.data[:0]
		default:
			b = &applyBatch{ops: make([]applyOp, 0, applyBatchOps)}
		}
		a.cur = b
	}
	op.off = len(b.data)
	b.data = append(b.data, data...)
	op.end = len(b.data)
	b.ops = append(b.ops, *op)
	if len(b.ops) == applyBatchOps {
		a.in <- b
		a.cur = nil
	}
}

func (a *applier) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for b := range a.in {
		for i := range b.ops {
			a.hintAhead(b.ops, i)
			op := &b.ops[i]
			a.apply(op, b.data[op.off:op.end])
		}
		a.free <- b
	}
}

// replayLookahead is how far ahead of the op it applies, in batch positions,
// an applier hints an op's lines (op i+replayLookahead); under key addressing
// it hints hash home slots twice as far ahead (op i+2·replayLookahead), so the
// lookup that resolves an op's record id finds its slot cached. Picked by a
// sweep (EXPERIMENTS.md, "Staged replay prefetch").
const replayLookahead = 8

// hintAhead stages the lookahead for ops[i]. Every step is a hint, so
// skipping it changes no result.
//
//next700:hotpath
func (a *applier) hintAhead(ops []applyOp, i int) {
	if a.partition {
		if j := i + 2*replayLookahead; j < len(ops) {
			if h := ops[j].th.hash; h != nil {
				h.Prefetch(ops[j].key)
			}
		}
	}
	if j := i + replayLookahead; j < len(ops) {
		a.hint(&ops[j])
	}
}

// hint hints the lines apply reads first for op: its version slot, the
// record's protocol lines and, for an entry that changes the index, its
// key's hash home slot. Under key addressing the record id comes from the
// primary index, whose home slot hintAhead hinted earlier. A hint reads and
// writes no replay or engine state beyond that lookup, and it grows and
// allocates nothing: an op past the version column or past every made
// chunk goes unhinted.
//
//next700:hotpath
func (a *applier) hint(op *applyOp) {
	a.versions.hint(op.table, op.rid)
	th := op.th
	if a.partition {
		if th.hash != nil {
			if rid, ok := th.hash.Lookup(op.key); ok {
				a.proto.Prefetch(th.tbl, rid)
			}
		}
		return
	}
	if op.kind != wal.EntryUpdate && th.hash != nil {
		th.hash.Prefetch(op.key)
	}
	a.proto.Prefetch(th.tbl, storage.RecordID(op.rid))
}

// apply applies one entry with applied-if-newer filtering, maintaining the
// indexes and the protocol's view of the record.
func (a *applier) apply(op *applyOp, data []byte) {
	if !a.versions.newer(op.table, op.rid, op.epoch, op.txn) {
		a.skipped++
		return
	}
	a.entries++
	th := op.th
	rid, present := storage.RecordID(op.rid), true
	if a.partition {
		rid, present = th.primary.Lookup(op.key)
	}
	if op.kind == wal.EntryDelete {
		if !present {
			return // already absent in the replayed base
		}
		if row, ok := a.proto.Committed(th.tbl, rid); ok {
			for j := range th.secondaries {
				s := &th.secondaries[j]
				s.idx.Delete(s.extract(th.sch, row, op.key))
			}
		}
		th.primary.Delete(op.key)
		a.proto.LoadRecord(th.tbl, rid, op.key, nil)
		return
	}
	switch {
	case !present:
		// Key addressing, absent key: any after-image materializes it at a
		// fresh slot — a value-mode entry carries the full image, so the
		// upsert loses nothing.
		rid = th.tbl.Alloc()
		fallthrough
	case op.kind == wal.EntryInsert && !a.partition:
		th.primary.Insert(op.key, rid)
		for j := range th.secondaries {
			s := &th.secondaries[j]
			s.idx.Insert(s.extract(th.sch, storage.Row(data), op.key), rid)
		}
	}
	a.proto.LoadRecord(th.tbl, rid, op.key, data)
}

// versionTable is the newest version one applier applied per (table, logged
// record id), dense by record id. A version is (epoch, txnID), epoch-major:
// transaction ids are only comparable within one engine incarnation, but
// epochs are monotone across the whole manifest history (RaiseEpoch keeps a
// restarted engine's tags above everything already logged), so a record
// written after a restart always supersedes a pre-restart image even though
// its txnID restarted small. Pre-epoch logs leave Epoch zero and reduce to the
// txnID order.
type versionTable [][]recVer

// recVer is one slot: seq is txnID+1, so the zero slot means "nothing applied".
type recVer struct{ epoch, seq uint64 }

// newer records (epoch, txnID) for the slot unless an older version than the
// one already applied: an equal version applies again, because one record
// may write a row twice (an update, then a delete) under its one version.
func (vt *versionTable) newer(table int32, rid, epoch, txnID uint64) bool {
	for int(table) >= len(*vt) {
		*vt = append(*vt, nil)
	}
	col := (*vt)[table]
	if rid >= uint64(len(col)) {
		n := max(2*len(col), int(rid)+1, 1024)
		col = append(col, make([]recVer, n-len(col))...)
		(*vt)[table] = col
	}
	v, seq := &col[rid], txnID+1
	if v.epoch > epoch || (v.epoch == epoch && v.seq > seq) {
		return false
	}
	*v = recVer{epoch: epoch, seq: seq}
	return true
}

// hint hints the line of (table, rid)'s slot when the column already covers
// rid; it never grows the table.
//
//next700:hotpath
func (vt versionTable) hint(table int32, rid uint64) {
	if int(table) < len(vt) {
		if col := vt[table]; rid < uint64(len(col)) {
			prefetch.Line(unsafe.Pointer(&col[rid]))
		}
	}
}
