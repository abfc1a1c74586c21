package cc

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"unsafe"

	"next700/internal/prefetch"
	"next700/internal/storage"
	"next700/internal/txn"
)

// Each record's SILO state is one slot of atomic words in the table's
// metaTable (stride 1 + ceil(rowSize/8)): word 0 is the TID word — bit 0 the
// commit lock, bit 1 "present", the TID of the last writer above them — and
// the words after it hold the committed row in place, little-endian. A clear
// present bit means the record is absent (never inserted, or deleted).
const (
	siloLockBit    = uint64(1)
	siloPresentBit = uint64(2)
	siloTIDShift   = 2
)

// siloSpinLimit bounds how long a reader spins on a locked TID word before
// aborting. Writers hold the lock only across the short install phase, so a
// small budget suffices; aborting under heavy contention is part of OCC's
// characteristic profile.
const siloSpinLimit = 256

// silo is Silo-style optimistic concurrency control (Tu et al., SOSP'13):
// invisible reads via TID-word versioning, write locks taken only at commit
// in canonical order, read-set validation, and commit TIDs drawn from the
// observed TIDs and the thread's last one, so the common case touches no
// shared counters at all. The log's epochs, not the TIDs, carry group
// commit and recovery order.
//
// Committed rows live in place, in the record's slot, behind Silo's seqlock:
// a writer stores the after-image words while it holds the lock bit and
// releases with the new TID word; a reader copies the words between two
// equal unlocked loads of the TID word. Every word is an atomic.Uint64, so
// the seqlock read is race-free under the Go memory model, and a committed
// write allocates nothing.
type silo struct {
	env     *Env
	slots   tableMetas[atomic.Uint64]
	lastTID []atomic.Uint64 // per-thread last commit TID
}

func newSilo(env *Env) *silo {
	return &silo{
		env:     env,
		slots:   tableMetas[atomic.Uint64]{stride: siloStride},
		lastTID: make([]atomic.Uint64, env.NumThreads),
	}
}

// siloStride is a record's slot width in words: the TID word, then the row.
func siloStride(tbl *storage.Table) int { return 1 + (tbl.Schema().RowSize()+7)/8 }

// Name implements Protocol.
func (p *silo) Name() string { return "SILO" }

// Begin implements Protocol: stamp the priority once per logical
// transaction; a retry touches no shared state.
func (p *silo) Begin(tx *txn.Txn) {
	if tx.Priority == 0 {
		tx.Priority = p.env.TS.Next()
	}
}

// LoadRecord implements Loader: store the committed image and mark the
// record present, or clear the present bit for nil data, keeping its TID
// either way. No transaction touches the record while it is loaded; the
// lock bit is held across the stores all the same, so a stray reader
// retries instead of copying a half-loaded row.
func (p *silo) LoadRecord(tbl *storage.Table, rid storage.RecordID, key uint64, data []byte) {
	s := p.slots.slots(tbl, rid)
	w := s[0].Load() &^ (siloLockBit | siloPresentBit)
	if data == nil {
		s[0].Store(w)
		return
	}
	s[0].Store(w | siloLockBit)
	storeWords(s[1:], data)
	s[0].Store(w | siloPresentBit)
}

// Committed implements Loader: a copy of the slot's words.
func (p *silo) Committed(tbl *storage.Table, rid storage.RecordID) ([]byte, bool) {
	s := p.slots.slots(tbl, rid)
	if s[0].Load()&siloPresentBit == 0 {
		return nil, false
	}
	row := make([]byte, tbl.Schema().RowSize())
	loadWords(row, s[1:])
	return row, true
}

// storeWords stores row bytes into the slot's data words, little-endian.
// A word that already holds its value is not stored: an atomic store is a
// locked instruction on amd64 and a load a plain one, and an update usually
// rewrites a few fields of the row. The caller holds the TID word's lock
// bit, so no other writer can change a word between the load and the store.
func storeWords(words []atomic.Uint64, data []byte) {
	i := 0
	for ; len(data) >= 8; i++ {
		storeWord(&words[i], binary.LittleEndian.Uint64(data))
		data = data[8:]
	}
	if len(data) > 0 {
		var v uint64
		for j, b := range data {
			v |= uint64(b) << (8 * j)
		}
		storeWord(&words[i], v)
	}
}

func storeWord(w *atomic.Uint64, v uint64) {
	if w.Load() != v {
		w.Store(v)
	}
}

// loadWords copies the slot's data words into buf, little-endian.
func loadWords(buf []byte, words []atomic.Uint64) {
	i := 0
	for ; len(buf) >= 8; i++ {
		binary.LittleEndian.PutUint64(buf, words[i].Load())
		buf = buf[8:]
	}
	if len(buf) > 0 {
		v := words[i].Load()
		for j := range buf {
			buf[j] = byte(v >> (8 * j))
		}
	}
}

// siloLineWords is how many slot words share a cache line.
const siloLineWords = prefetch.LineSize / 8

// Prefetch implements Protocol: it hints the slot's lines — the TID word,
// one word in each further cache line and the last word, the lines a Read
// or ReadForUpdate copies next. A slot need not start on a line, so the
// last word covers the line the stepped words can miss.
//
//next700:hotpath
func (p *silo) Prefetch(tbl *storage.Table, rid storage.RecordID) {
	s := p.slots.peek(tbl, rid)
	if s == nil {
		return
	}
	for i := 0; i < len(s); i += siloLineWords {
		prefetch.Line(unsafe.Pointer(&s[i]))
	}
	prefetch.Line(unsafe.Pointer(&s[len(s)-1]))
}

// stableRead copies the committed row into the Tx arena and returns it with
// the TID word it belongs to: Silo's seqlock read. Aborts (ErrConflict) if
// the word stays locked past the spin budget; returns ErrNotFound (with a
// valid observation) for absent records.
func (p *silo) stableRead(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, uint64, error) {
	s := p.slots.slots(tbl, rid)
	var buf []byte
	for spin := 0; ; spin++ {
		v1 := s[0].Load()
		if v1&siloLockBit != 0 {
			if spin >= siloSpinLimit {
				return nil, 0, txn.ErrConflict
			}
			runtime.Gosched()
			continue
		}
		if v1&siloPresentBit == 0 {
			return nil, v1, txn.ErrNotFound
		}
		if buf == nil {
			buf = tx.Buf(tbl.Schema().RowSize())
		}
		loadWords(buf, s[1:])
		if s[0].Load() == v1 {
			return buf, v1, nil
		}
	}
}

// Read implements Protocol.
func (p *silo) Read(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, error) {
	buf, obs, err := p.stableRead(tx, tbl, rid)
	if err != nil && err != txn.ErrNotFound {
		return nil, err
	}
	// Record the observation even for absent records: committing against a
	// record that (re)appears must fail validation.
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindRead, Obs: obs})
	return buf, err
}

// ReadForUpdate implements Protocol: an invisible read whose copy is the
// after-image; the record is locked only at commit.
func (p *silo) ReadForUpdate(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, error) {
	buf, obs, err := p.stableRead(tx, tbl, rid)
	if err != nil {
		return nil, err
	}
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindWrite, Data: buf, Obs: obs})
	return buf, nil
}

// ownInsertFlag marks accesses whose record lock was taken at insert time.
const ownInsertFlag = 1

// RegisterInsert implements Protocol: lock the fresh record's TID word so
// concurrent readers spin/abort until the outcome.
func (p *silo) RegisterInsert(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID, key uint64, data []byte) error {
	if !p.slots.get(tbl, rid).CompareAndSwap(0, siloLockBit) {
		// Only possible if record slots were reused, which they are not.
		return txn.ErrConflict
	}
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindInsert, Key: key, Data: data, Obs2: ownInsertFlag})
	return nil
}

// RegisterDelete implements Protocol: a delete is a write whose install
// clears the present bit.
func (p *silo) RegisterDelete(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID, key uint64) error {
	if w := tx.FindWrite(tbl, rid); w != nil && w.Obs2 == ownInsertFlag {
		// Inserted by this transaction: the TID word is held since
		// RegisterInsert, and the deleted image is the inserted one.
		tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindDelete, Key: key, Data: w.Data, Obs2: ownInsertFlag})
		return nil
	}
	img, obs, err := p.stableRead(tx, tbl, rid)
	if err != nil {
		return err
	}
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindDelete, Key: key, Data: img, Obs: obs})
	return nil
}

// lockWord spin-locks a TID word, verifying the version did not move past
// the observation (early validation, cuts wasted installs).
func (p *silo) lockWord(word *atomic.Uint64, obs uint64) bool {
	for spin := 0; ; spin++ {
		v := word.Load()
		if v&siloLockBit == 0 {
			if v != obs {
				return false
			}
			if word.CompareAndSwap(v, v|siloLockBit) {
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
		if !p.lockWord(p.slots.get(a.Table, a.RID), a.Obs) {
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
		cur := p.slots.get(a.Table, a.RID).Load()
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

	// Phase 3: compute the commit TID and install. The after-image words are
	// stored while the TID word still carries the lock bit; the record's
	// last entry stores the new word, which installs and unlocks at once.
	tid := p.commitTID(tx)
	for k, wi := range writes {
		a := &tx.Accesses[wi]
		s := p.slots.slots(a.Table, a.RID)
		present := siloPresentBit
		if a.Kind == txn.KindDelete {
			present = 0
		} else {
			storeWords(s[1:], a.Data)
		}
		if k+1 < len(writes) && sameRecord(a, &tx.Accesses[writes[k+1]]) {
			continue // the record's last entry installs and unlocks
		}
		s[0].Store(tid<<siloTIDShift | present)
	}
	tx.ID = tid
	return nil
}

// sameRecord reports whether two accesses name the same record.
func sameRecord(a, b *txn.Access) bool { return a.Table == b.Table && a.RID == b.RID }

// commitTID returns a TID greater than every observed TID and greater than
// this thread's previous commit TID, so TIDs rise per record and per thread.
func (p *silo) commitTID(tx *txn.Txn) uint64 {
	tid := uint64(0)
	for i := range tx.Accesses {
		if obs := tx.Accesses[i].Obs >> siloTIDShift; obs > tid {
			tid = obs
		}
	}
	if last := p.lastTID[tx.ThreadID].Load(); last > tid {
		tid = last
	}
	tid++
	p.lastTID[tx.ThreadID].Store(tid)
	return tid
}

// unlockWrites releases the first n locked write-set entries, restoring
// their observed words (or the cleared insert word).
func (p *silo) unlockWrites(tx *txn.Txn, writes []int, n int) {
	for k := 0; k < n; k++ {
		a := &tx.Accesses[writes[k]]
		word := p.slots.get(a.Table, a.RID)
		if a.Obs2 == ownInsertFlag {
			word.Store(0)
		} else {
			word.Store(a.Obs)
		}
	}
}

// Abort implements Protocol: only insert-time locks are held outside
// commit.
func (p *silo) Abort(tx *txn.Txn) {
	for i := range tx.Accesses {
		a := &tx.Accesses[i]
		if a.Kind == txn.KindInsert && a.Obs2 == ownInsertFlag {
			p.slots.get(a.Table, a.RID).Store(0)
		}
	}
}
