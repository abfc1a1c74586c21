package cc

import (
	"runtime"
	"sync"

	"next700/internal/storage"
	"next700/internal/txn"
)

// ttMeta is TicToc's per-record state: the write timestamp of the installed
// version, the read timestamp up to which that version is known valid, and
// a commit-phase write lock.
type ttMeta struct {
	mu       sync.Mutex
	wts, rts uint64
	lockedBy uint64 // priority of the committing writer; 0 = free
}

// ticTocSpinLimit bounds commit-lock spinning before aborting.
const ticTocSpinLimit = 256

// ticToc implements TicToc (Yu et al., SIGMOD'16): each access records the
// version interval [wts, rts] it observed; at commit, a transaction
// timestamp is *computed* from those intervals rather than allocated
// centrally, and read validity is extended lazily ("timestamp extension").
// This removes the central allocator bottleneck and commits many schedules
// 2PL and T/O reject.
type ticToc struct {
	arenaRows
	arenaPrefetch
	env  *Env
	meta tableMetas[ttMeta]
}

func newTicToc(env *Env) *ticToc {
	return &ticToc{env: env}
}

// Name implements Protocol.
func (p *ticToc) Name() string { return "TICTOC" }

// Begin implements Protocol: no timestamp is drawn — that is the point.
func (p *ticToc) Begin(tx *txn.Txn) {
	if tx.Priority == 0 {
		tx.Priority = p.env.TS.Next()
	}
}

// observe copies the record and its [wts, rts] interval. Aborts if the
// record stays commit-locked past the spin budget.
func (p *ticToc) observe(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID, m *ttMeta) ([]byte, uint64, uint64, error) {
	for spin := 0; ; spin++ {
		m.mu.Lock()
		if m.lockedBy != 0 && m.lockedBy != tx.Priority {
			m.mu.Unlock()
			if spin >= ticTocSpinLimit {
				return nil, 0, 0, txn.ErrConflict
			}
			runtime.Gosched()
			continue
		}
		if !tbl.IsLive(rid) {
			wts, rts := m.wts, m.rts
			m.mu.Unlock()
			return nil, wts, rts, txn.ErrNotFound
		}
		row := tbl.Row(rid)
		buf := tx.Buf(len(row))
		copy(buf, row)
		wts, rts := m.wts, m.rts
		m.mu.Unlock()
		return buf, wts, rts, nil
	}
}

// Read implements Protocol.
func (p *ticToc) Read(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, error) {
	m := p.meta.get(tbl, rid)
	buf, wts, rts, err := p.observe(tx, tbl, rid, m)
	if err == txn.ErrNotFound {
		tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindRead, Obs: wts, Obs2: rts})
		return nil, err
	}
	if err != nil {
		return nil, err
	}
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindRead, Obs: wts, Obs2: rts})
	return buf, nil
}

// ReadForUpdate implements Protocol.
func (p *ticToc) ReadForUpdate(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, error) {
	m := p.meta.get(tbl, rid)
	buf, wts, rts, err := p.observe(tx, tbl, rid, m)
	if err != nil {
		return nil, err
	}
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindWrite, Data: buf, Obs: wts, Obs2: rts})
	return buf, nil
}

// RegisterInsert implements Protocol: commit-lock the fresh record so
// readers chasing the index entry spin/abort until the outcome.
func (p *ticToc) RegisterInsert(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID, key uint64, data []byte) error {
	m := p.meta.get(tbl, rid)
	m.mu.Lock()
	m.lockedBy = tx.Priority
	m.mu.Unlock()
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindInsert, Key: key, Data: data})
	return nil
}

// RegisterDelete implements Protocol.
func (p *ticToc) RegisterDelete(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID, key uint64) error {
	m := p.meta.get(tbl, rid)
	img, wts, rts, err := p.observe(tx, tbl, rid, m)
	if err != nil {
		return err
	}
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindDelete, Key: key, Data: img, Obs: wts, Obs2: rts})
	return nil
}

// lockForCommit takes the record's commit lock, failing if the version
// moved past the observation (inserts pass obs=0 and skip that check via
// ownLock).
func (p *ticToc) lockForCommit(tx *txn.Txn, m *ttMeta, a *txn.Access) bool {
	for spin := 0; ; spin++ {
		m.mu.Lock()
		if m.lockedBy == tx.Priority {
			m.mu.Unlock()
			return true // insert-time lock
		}
		if m.lockedBy == 0 {
			if a.Kind != txn.KindInsert && m.wts != a.Obs {
				m.mu.Unlock()
				return false
			}
			m.lockedBy = tx.Priority
			// Refresh the write entry's rts so the commit timestamp
			// computation sees the latest extension.
			a.Obs2 = m.rts
			m.mu.Unlock()
			return true
		}
		m.mu.Unlock()
		if spin >= ticTocSpinLimit {
			return false
		}
		runtime.Gosched()
	}
}

// Commit implements Protocol: lock writes, compute the commit timestamp,
// validate/extend reads, install.
//
// Allocation budget: zero. Installation writes the after-image in place
// under the record lock (readers revalidate by timestamp, so no committed
// copy is needed, unlike SILO), and sortWriteIndices reuses the Txn's
// index scratch. The alloc gate (bench/alloc_test.go) pins this at 0.
func (p *ticToc) Commit(tx *txn.Txn) error {
	writes := sortWriteIndices(tx)

	// Phase 1: lock write set in canonical order.
	locked := 0
	for _, wi := range writes {
		a := &tx.Accesses[wi]
		m := p.meta.get(a.Table, a.RID)
		if !p.lockForCommit(tx, m, a) {
			p.unlockWrites(tx, writes, locked)
			return txn.ErrConflict
		}
		locked++
	}

	// Phase 2: compute commit_ts = max(write rts + 1, read wts).
	commitTS := uint64(0)
	for i := range tx.Accesses {
		a := &tx.Accesses[i]
		if a.Kind == txn.KindRead {
			if a.Obs > commitTS {
				commitTS = a.Obs
			}
		} else {
			if a.Obs2+1 > commitTS {
				commitTS = a.Obs2 + 1
			}
		}
	}

	// Phase 3: validate reads, extending rts where possible.
	for i := range tx.Accesses {
		a := &tx.Accesses[i]
		if a.Kind != txn.KindRead || a.Obs2 >= commitTS {
			continue // version already valid through commitTS
		}
		m := p.meta.get(a.Table, a.RID)
		m.mu.Lock()
		if m.wts != a.Obs {
			m.mu.Unlock()
			p.unlockWrites(tx, writes, locked)
			return txn.ErrConflict
		}
		if m.lockedBy != 0 && m.lockedBy != tx.Priority && m.rts < commitTS {
			// Someone is installing a new version and we cannot extend
			// past their lock.
			m.mu.Unlock()
			p.unlockWrites(tx, writes, locked)
			return txn.ErrConflict
		}
		if m.rts < commitTS {
			m.rts = commitTS // timestamp extension
		}
		m.mu.Unlock()
	}

	// Phase 4: install writes at commitTS.
	for _, wi := range writes {
		a := &tx.Accesses[wi]
		m := p.meta.get(a.Table, a.RID)
		m.mu.Lock()
		applyWrite(a)
		m.wts, m.rts = commitTS, commitTS
		m.lockedBy = 0
		m.mu.Unlock()
	}
	tx.ID = commitTS
	return nil
}

func (p *ticToc) unlockWrites(tx *txn.Txn, writes []int, n int) {
	for k := 0; k < n; k++ {
		a := &tx.Accesses[writes[k]]
		m := p.meta.get(a.Table, a.RID)
		m.mu.Lock()
		if m.lockedBy == tx.Priority {
			m.lockedBy = 0
		}
		m.mu.Unlock()
	}
}

// Abort implements Protocol: release insert-time locks.
func (p *ticToc) Abort(tx *txn.Txn) {
	for i := range tx.Accesses {
		a := &tx.Accesses[i]
		if a.Kind != txn.KindInsert {
			continue
		}
		m := p.meta.get(a.Table, a.RID)
		m.mu.Lock()
		if m.lockedBy == tx.Priority {
			m.lockedBy = 0
		}
		m.mu.Unlock()
	}
}
