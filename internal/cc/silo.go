package cc

import (
	"runtime"
	"sync/atomic"

	"next700/internal/storage"
	"next700/internal/txn"
)

// siloMeta is the per-record state: the TID word (bit 0 is the commit lock,
// upper 63 bits the TID of the last writer) and a pointer to the immutable
// committed row image. Readers load the pointer between two word loads —
// the Go-memory-model-clean equivalent of Silo's seqlock read: because
// writers hold the lock bit across the data-pointer store, two equal
// unlocked word loads bracket an unchanged pointer.
//
// A nil data pointer means the record is absent (never inserted, or
// deleted).
type siloMeta struct {
	word atomic.Uint64
	data atomic.Pointer[[]byte]
}

const siloLockBit = uint64(1)

// siloSpinLimit bounds how long a reader spins on a locked TID word before
// aborting. Writers hold the lock only across the short install phase, so a
// small budget suffices; aborting under heavy contention is part of OCC's
// characteristic profile.
const siloSpinLimit = 256

// silo is Silo-style optimistic concurrency control (Tu et al., SOSP'13):
// invisible reads via TID-word versioning, write locks taken only at commit
// in canonical order, read-set validation, and epoch-based commit TIDs so
// the common case touches no shared counters at all.
//
// Committed row images live behind per-record atomic pointers rather than
// in the table arena, trading one allocation per committed write for reads
// that are free of both latches and torn-read retries.
type silo struct {
	env     *Env
	meta    tableMetas[siloMeta]
	lastTID []atomic.Uint64 // per-thread last commit TID
}

func newSilo(env *Env) *silo {
	return &silo{env: env, lastTID: make([]atomic.Uint64, env.NumThreads)}
}

// Name implements Protocol.
func (p *silo) Name() string { return "SILO" }

// Begin implements Protocol: record the epoch; no shared state is touched.
func (p *silo) Begin(tx *txn.Txn) {
	if tx.Priority == 0 {
		tx.Priority = p.env.TS.Next()
	}
	tx.Epoch = p.env.Epoch.Now()
}

// LoadRecord implements Loader: seed the committed image.
func (p *silo) LoadRecord(tbl *storage.Table, rid storage.RecordID, key uint64, data []byte) {
	m := p.meta.get(tbl, rid)
	cp := make([]byte, len(data))
	copy(cp, data)
	m.data.Store(&cp)
}

// stableRead returns the committed row image and the TID word it belongs
// to. Aborts (ErrConflict) if the word stays locked past the spin budget;
// returns ErrNotFound (with a valid observation) for absent records.
func (p *silo) stableRead(m *siloMeta) ([]byte, uint64, error) {
	for spin := 0; ; spin++ {
		v1 := m.word.Load()
		if v1&siloLockBit != 0 {
			if spin >= siloSpinLimit {
				return nil, 0, txn.ErrConflict
			}
			runtime.Gosched()
			continue
		}
		ptr := m.data.Load()
		if m.word.Load() != v1 {
			continue
		}
		if ptr == nil {
			return nil, v1, txn.ErrNotFound
		}
		return *ptr, v1, nil
	}
}

// Read implements Protocol.
func (p *silo) Read(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, error) {
	m := p.meta.get(tbl, rid)
	buf, obs, err := p.stableRead(m)
	if err != nil && err != txn.ErrNotFound {
		return nil, err
	}
	// Record the observation even for absent records: committing against a
	// record that (re)appears must fail validation.
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindRead, Obs: obs})
	return buf, err
}

// ReadForUpdate implements Protocol: an invisible read that seeds the
// after-image; the record is locked only at commit.
func (p *silo) ReadForUpdate(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, error) {
	m := p.meta.get(tbl, rid)
	cur, obs, err := p.stableRead(m)
	if err != nil {
		return nil, err
	}
	buf := tx.Buf(len(cur))
	copy(buf, cur)
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindWrite, Data: buf, Obs: obs})
	return buf, nil
}

// ownInsertFlag marks accesses whose record lock was taken at insert time.
const ownInsertFlag = 1

// RegisterInsert implements Protocol: lock the fresh record's TID word so
// concurrent readers spin/abort until the outcome.
func (p *silo) RegisterInsert(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID, key uint64, data []byte) error {
	m := p.meta.get(tbl, rid)
	if !m.word.CompareAndSwap(0, siloLockBit) {
		// Only possible if record slots were reused, which they are not.
		return txn.ErrConflict
	}
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindInsert, Key: key, Data: data, Obs2: ownInsertFlag})
	return nil
}

// RegisterDelete implements Protocol: a delete is a write whose install
// clears the data pointer.
func (p *silo) RegisterDelete(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID, key uint64) error {
	if w := tx.FindWrite(tbl, rid); w != nil && w.Obs2 == ownInsertFlag {
		// Inserted by this transaction: the TID word is held since
		// RegisterInsert, and the deleted image is the inserted one.
		tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindDelete, Key: key, Data: w.Data, Obs2: ownInsertFlag})
		return nil
	}
	m := p.meta.get(tbl, rid)
	img, obs, err := p.stableRead(m)
	if err != nil {
		return err
	}
	// The committed image is what the engine's post-commit index retraction
	// extracts secondary keys from: the table arena is not it under SILO.
	// Images are immutable once published, so the alias stays valid.
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindDelete, Key: key, Data: img, Obs: obs})
	return nil
}

// lockWord spin-locks a TID word, verifying the version did not move past
// the observation (early validation, cuts wasted installs).
func (p *silo) lockWord(m *siloMeta, obs uint64) bool {
	for spin := 0; ; spin++ {
		v := m.word.Load()
		if v&siloLockBit == 0 {
			if v != obs {
				return false
			}
			if m.word.CompareAndSwap(v, v|siloLockBit) {
				return true
			}
			continue
		}
		if spin >= siloSpinLimit {
			return false
		}
		runtime.Gosched()
	}
}

// Commit implements Protocol: Silo's three-phase commit.
func (p *silo) Commit(tx *txn.Txn) error {
	writes := sortWriteIndices(tx)

	// Phase 1: lock the write set in canonical order. A record written twice
	// (an update, then a delete) sits in adjacent entries and is locked once.
	locked := 0
	for k, wi := range writes {
		a := &tx.Accesses[wi]
		if a.Obs2 == ownInsertFlag || (k > 0 && sameRecord(a, &tx.Accesses[writes[k-1]])) {
			locked++ // locked since RegisterInsert, or by the entry before
			continue
		}
		m := p.meta.get(a.Table, a.RID)
		if !p.lockWord(m, a.Obs) {
			p.unlockWrites(tx, writes, locked)
			return txn.ErrConflict
		}
		locked++
	}

	// Phase 2: validate the read set against current words.
	for i := range tx.Accesses {
		a := &tx.Accesses[i]
		if a.Kind != txn.KindRead {
			continue
		}
		m := p.meta.get(a.Table, a.RID)
		cur := m.word.Load()
		if cur&siloLockBit != 0 {
			// Locked by us (also in write set) is fine; anyone else fails.
			if tx.FindWrite(a.Table, a.RID) == nil {
				p.unlockWrites(tx, writes, locked)
				return txn.ErrConflict
			}
			cur &^= siloLockBit
		}
		if cur != a.Obs {
			p.unlockWrites(tx, writes, locked)
			return txn.ErrConflict
		}
	}

	if len(writes) == 0 {
		return nil // read-only: validated, done
	}

	// Phase 3: compute the commit TID and install. The data pointer is
	// stored while the word still carries the lock bit; the final word
	// store releases.
	tid := p.commitTID(tx)
	word := tid << 1
	for k, wi := range writes {
		a := &tx.Accesses[wi]
		m := p.meta.get(a.Table, a.RID)
		switch a.Kind {
		case txn.KindDelete:
			m.data.Store(nil)
			a.Table.SetTombstone(a.RID, true)
		default:
			// Allocation budget: this copy is SILO's only steady-state heap
			// traffic — 2 allocations per written record (the image bytes and
			// the slice header escaping into the atomic.Pointer). It is load-
			// bearing: readers hold the previous image lock-free, so the
			// committed image must be freshly owned, never a view of the
			// transaction's arena. The alloc gate (bench/alloc_test.go) pins
			// this budget at exactly 2/write.
			cp := make([]byte, len(a.Data)) //next700:allowalloc(the documented per-write publish copy, pinned by the alloc-gate budget)
			copy(cp, a.Data)
			m.data.Store(&cp)
			if a.Kind == txn.KindInsert {
				a.Table.SetTombstone(a.RID, false)
			}
		}
		if k+1 < len(writes) && sameRecord(a, &tx.Accesses[writes[k+1]]) {
			continue // the record's last entry installs and unlocks
		}
		m.word.Store(word) // install + unlock in one store
	}
	tx.ID = tid
	return nil
}

// sameRecord reports whether two accesses name the same record.
func sameRecord(a, b *txn.Access) bool { return a.Table == b.Table && a.RID == b.RID }

// commitTID returns a TID greater than every observed TID, greater than
// this thread's previous commit TID, and within the transaction's epoch.
func (p *silo) commitTID(tx *txn.Txn) uint64 {
	tid := uint64(0)
	for i := range tx.Accesses {
		if obs := tx.Accesses[i].Obs >> 1; obs > tid {
			tid = obs
		}
	}
	if last := p.lastTID[tx.ThreadID].Load(); last > tid {
		tid = last
	}
	tid++
	if min := tx.Epoch << 32; tid < min {
		tid = min | 1
	}
	p.lastTID[tx.ThreadID].Store(tid)
	return tid
}

// unlockWrites releases the first n locked write-set entries, restoring
// their observed words (or the cleared insert word).
func (p *silo) unlockWrites(tx *txn.Txn, writes []int, n int) {
	for k := 0; k < n; k++ {
		a := &tx.Accesses[writes[k]]
		m := p.meta.get(a.Table, a.RID)
		if a.Obs2 == ownInsertFlag {
			m.word.Store(0)
		} else {
			m.word.Store(a.Obs)
		}
	}
}

// Abort implements Protocol: only insert-time locks are held outside
// commit.
func (p *silo) Abort(tx *txn.Txn) {
	for i := range tx.Accesses {
		a := &tx.Accesses[i]
		if a.Kind == txn.KindInsert && a.Obs2 == ownInsertFlag {
			m := p.meta.get(a.Table, a.RID)
			m.word.Store(0)
		}
	}
}
