package cc

import (
	"next700/internal/storage"
	"next700/internal/txn"
)

// qstore is the pass-through protocol for queue-oriented deterministic
// execution (Q-Store). It takes no locks, keeps no per-record metadata, and
// performs no validation: the deterministic scheduler (internal/det +
// core.DetExecutor) guarantees that every access to a record happens on that
// record's home partition, in global priority order, on a single goroutine —
// conflicts are impossible by construction, so the protocol's only job is to
// buffer writes in the access set and install them at commit.
//
// QSTORE is an execution-architecture axis, not a point in the concurrency
// sweep: it is constructed by cc.New but deliberately absent from cc.Names,
// because driving it with free-running interactive workers would be unsound
// (nothing detects the conflicts the scheduler is supposed to have planned
// away).
type qstore struct {
	arenaRows
	arenaPrefetch
	env *Env
}

func newQStore(env *Env) *qstore { return &qstore{env: env} }

func (q *qstore) Name() string { return "QSTORE" }

// DetectsNoConflicts implements PlannerDriven.
func (q *qstore) DetectsNoConflicts() {}

func (q *qstore) Begin(tx *txn.Txn) {}

// Read returns the live row image directly: no copy, no access entry. The
// image is stable for the transaction's lifetime because any later write to
// this record in the batch belongs to a lower-priority transaction on the
// same partition queue, which cannot run until this one commits.
//
//next700:hotpath
func (q *qstore) Read(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, error) {
	if tbl.IsTombstoned(rid) {
		return nil, txn.ErrNotFound
	}
	return tbl.Row(rid), nil
}

// ReadForUpdate buffers an after-image in the transaction arena, exactly
// like the locking protocols but with nothing to acquire.
//
//next700:hotpath
func (q *qstore) ReadForUpdate(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, error) {
	if tbl.IsTombstoned(rid) {
		return nil, txn.ErrNotFound
	}
	row := tbl.Row(rid)
	buf := tx.Buf(len(row))
	copy(buf, row)
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindWrite, Data: buf})
	return buf, nil
}

func (q *qstore) RegisterInsert(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID, key uint64, data []byte) error {
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindInsert, Key: key, Data: data})
	return nil
}

func (q *qstore) RegisterDelete(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID, key uint64) error {
	if tbl.IsTombstoned(rid) {
		return txn.ErrNotFound
	}
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindDelete, Key: key, Data: tbl.Row(rid)})
	return nil
}

// Commit installs the write set. Nothing can fail and nothing is released:
// the transaction ran conflict-free by plan. tx.ID is left untouched — the
// deterministic executor assigns replay-ordered commit IDs before calling
// Commit, so qstore must not overwrite them.
//
//next700:hotpath
func (q *qstore) Commit(tx *txn.Txn) error {
	for i := range tx.Accesses {
		applyWrite(&tx.Accesses[i])
	}
	return nil
}

// Abort drops the buffered writes (the arena is reset by the descriptor).
// Only reachable on non-conflict failures — a dead log device or a canceled
// batch — never for conflicts.
func (q *qstore) Abort(tx *txn.Txn) {}
