package cc

import (
	"sync"

	"next700/internal/storage"
	"next700/internal/txn"
)

// toMeta is the per-record state of basic timestamp ordering: the largest
// read and write timestamps that touched the record, plus a pre-write
// ("dirty") marker set between write access and commit.
type toMeta struct {
	mu    sync.Mutex
	wts   uint64
	rts   uint64
	dirty uint64 // timestamp of the transaction holding a pre-write; 0 = none
}

// timestampOrdering implements basic T/O (the abort-on-violation variant:
// readers and writers that arrive "too late" in timestamp order abort, and
// readers abort rather than wait on dirty pre-writes). Its profile —
// correct, simple, abort-heavy under contention, bottlenecked on the
// central allocator at scale — is exactly the one the design-space
// experiments chart.
type timestampOrdering struct {
	arenaRows
	noPrefetch
	env  *Env
	meta tableMetas[toMeta]
}

func newTO(env *Env) *timestampOrdering {
	return &timestampOrdering{env: env}
}

// Name implements Protocol.
func (p *timestampOrdering) Name() string { return "TIMESTAMP" }

// Begin implements Protocol: draw the serialization timestamp up front.
func (p *timestampOrdering) Begin(tx *txn.Txn) {
	tx.ID = p.env.TS.Next()
	if tx.Priority == 0 {
		tx.Priority = tx.ID
	}
}

// Read implements Protocol.
func (p *timestampOrdering) Read(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, error) {
	m := p.meta.get(tbl, rid)
	m.mu.Lock()
	if m.dirty != 0 && m.dirty != tx.ID {
		m.mu.Unlock()
		return nil, txn.ErrConflict
	}
	if tx.ID < m.wts {
		// A younger write already committed; this read arrived too late.
		m.mu.Unlock()
		return nil, txn.ErrConflict
	}
	if tx.ID > m.rts {
		m.rts = tx.ID
	}
	if tbl.IsTombstoned(rid) {
		m.mu.Unlock()
		return nil, txn.ErrNotFound
	}
	row := tbl.Row(rid)
	buf := tx.Buf(len(row))
	copy(buf, row)
	m.mu.Unlock()
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindRead})
	return buf, nil
}

// preWrite validates timestamp order and takes the dirty marker.
func (p *timestampOrdering) preWrite(tx *txn.Txn, m *toMeta) error {
	if m.dirty != 0 && m.dirty != tx.ID {
		return txn.ErrConflict
	}
	if tx.ID < m.rts || tx.ID < m.wts {
		return txn.ErrConflict
	}
	m.dirty = tx.ID
	return nil
}

// ReadForUpdate implements Protocol.
func (p *timestampOrdering) ReadForUpdate(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, error) {
	m := p.meta.get(tbl, rid)
	m.mu.Lock()
	if err := p.preWrite(tx, m); err != nil {
		m.mu.Unlock()
		return nil, err
	}
	if tbl.IsTombstoned(rid) {
		m.mu.Unlock()
		return nil, txn.ErrNotFound
	}
	row := tbl.Row(rid)
	buf := tx.Buf(len(row))
	copy(buf, row)
	m.mu.Unlock()
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindWrite, Data: buf})
	return buf, nil
}

// RegisterInsert implements Protocol: the dirty marker keeps the record
// invisible until commit.
func (p *timestampOrdering) RegisterInsert(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID, key uint64, data []byte) error {
	m := p.meta.get(tbl, rid)
	m.mu.Lock()
	err := p.preWrite(tx, m)
	m.mu.Unlock()
	if err != nil {
		return err
	}
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindInsert, Key: key, Data: data})
	return nil
}

// RegisterDelete implements Protocol.
func (p *timestampOrdering) RegisterDelete(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID, key uint64) error {
	m := p.meta.get(tbl, rid)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := p.preWrite(tx, m); err != nil {
		return err
	}
	if tbl.IsTombstoned(rid) {
		m.dirty = 0
		return txn.ErrNotFound
	}
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindDelete, Key: key, Data: tbl.Row(rid)})
	return nil
}

// Commit implements Protocol: install pre-writes and stamp wts.
//
// Allocation budget: zero steady-state — pre-write slots were reserved at
// ReadForUpdate time and images install in place; per-record toMeta nodes
// allocate once on first touch only. Pinned by bench/alloc_test.go.
func (p *timestampOrdering) Commit(tx *txn.Txn) error {
	for i := range tx.Accesses {
		a := &tx.Accesses[i]
		if a.Kind == txn.KindRead {
			continue
		}
		m := p.meta.get(a.Table, a.RID)
		m.mu.Lock()
		applyWrite(a)
		if tx.ID > m.wts {
			m.wts = tx.ID
		}
		if m.dirty == tx.ID {
			m.dirty = 0
		}
		m.mu.Unlock()
	}
	return nil
}

// Abort implements Protocol: drop pre-write markers.
func (p *timestampOrdering) Abort(tx *txn.Txn) {
	for i := range tx.Accesses {
		a := &tx.Accesses[i]
		if a.Kind == txn.KindRead {
			continue
		}
		m := p.meta.get(a.Table, a.RID)
		m.mu.Lock()
		if m.dirty == tx.ID {
			m.dirty = 0
		}
		m.mu.Unlock()
	}
}
