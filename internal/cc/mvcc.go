package cc

import (
	"sync"
	"unsafe"

	"next700/internal/prefetch"
	"next700/internal/storage"
	"next700/internal/txn"
)

// Isolation levels supported by the MVCC protocol (E14 ablation).
const (
	// IsoSerializable is multi-version timestamp ordering: reads stamp rts,
	// writes validate against rts and newer versions.
	IsoSerializable = "serializable"
	// IsoSnapshot reads a begin-time snapshot and enforces
	// first-committer-wins on write-write conflicts only (write skew is
	// permitted).
	IsoSnapshot = "snapshot"
	// IsoReadCommitted reads the newest committed version with no read
	// tracking at all.
	IsoReadCommitted = "read-committed"
)

// mvVersion is one entry of a record's newest-first version chain. Versions
// are immutable once installed, so readers may hold their data without
// copies or latches.
type mvVersion struct {
	begin   uint64 // timestamp from which this version is visible
	deleted bool
	data    []byte
	next    *mvVersion
}

// mvMeta is the per-record state: the chain head, the largest read
// timestamp (serializable only), the write-intent marker, and a freelist of
// pruned version nodes recycled by later commits.
type mvMeta struct {
	mu      sync.Mutex
	rts     uint64
	pending uint64 // timestamp of the transaction holding write intent
	head    *mvVersion
	free    *mvVersion
}

// mvFreeLimit bounds the per-record freelist so a burst of versions on a hot
// record does not pin memory forever.
const mvFreeLimit = 4

// allocVersion pops a recycled node (or allocates). Caller holds m.mu.
func (m *mvMeta) allocVersion() *mvVersion {
	v := m.free
	if v == nil {
		return &mvVersion{} //next700:allowalloc(freelist miss: version nodes are recycled on GC; the alloc gate pins the budget)
	}
	m.free = v.next
	v.next = nil
	v.deleted = false
	return v
}

// setData fills v with a copy of data, reusing the node's retained buffer
// when it is large enough.
func (v *mvVersion) setData(data []byte) {
	if cap(v.data) >= len(data) {
		v.data = v.data[:len(data)]
	} else {
		v.data = make([]byte, len(data)) //next700:allowalloc(version payload growth; retained capacity absorbs the steady state)
	}
	copy(v.data, data)
}

// mvcc is multi-version concurrency control with timestamp ordering,
// version-chain storage and active-transaction-watermark garbage
// collection. All data lives in version chains seeded by LoadRecord.
type mvcc struct {
	env   *Env
	level string
	meta  tableMetas[mvMeta]
}

func newMVCC(env *Env) *mvcc {
	level := env.IsolationLevel
	if level == "" {
		level = IsoSerializable
	}
	return &mvcc{env: env, level: level}
}

// Prefetch implements Protocol: it hints the record's metadata (its
// mutex, timestamps and chain head), which every access locks and reads
// first. The chain itself is reached through the head, a plain pointer
// under the mutex, so it is not hinted.
//
//next700:hotpath
func (p *mvcc) Prefetch(tbl *storage.Table, rid storage.RecordID) {
	s := p.meta.peek(tbl, rid)
	if s == nil {
		return
	}
	m := unsafe.Pointer(&s[0])
	prefetch.Line(m)
	prefetch.Line(unsafe.Add(m, unsafe.Sizeof(s[0])-1))
}

// Name implements Protocol.
func (p *mvcc) Name() string { return "MVCC" }

// Begin implements Protocol: draw the begin timestamp and register it for
// GC visibility. A lower bound is published before the draw: a committer
// that reads the watermark between the draw and the registration would
// otherwise see no trace of this transaction, cut every version older than
// the one it installs, and leave this snapshot nothing to read.
func (p *mvcc) Begin(tx *txn.Txn) {
	p.env.Active.Enter(tx.ThreadID, p.env.TS.Last())
	tx.ID = p.env.TS.Next()
	if tx.Priority == 0 {
		tx.Priority = tx.ID
	}
	p.env.Active.Enter(tx.ThreadID, tx.ID)
}

// LoadRecord implements Loader: install the initial version, visible to
// every transaction, or empty the chain for nil data.
func (p *mvcc) LoadRecord(tbl *storage.Table, rid storage.RecordID, key uint64, data []byte) {
	m := p.meta.get(tbl, rid)
	// Build the version outside the critical section; the lock only covers
	// the head-pointer install.
	var v *mvVersion
	if data != nil {
		v = &mvVersion{begin: 0, data: append([]byte(nil), data...)}
	}
	m.mu.Lock()
	m.head = v
	m.mu.Unlock()
}

// Committed implements Loader: the chain head's image unless it is a
// deletion.
func (p *mvcc) Committed(tbl *storage.Table, rid storage.RecordID) ([]byte, bool) {
	m := p.meta.get(tbl, rid)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.head == nil || m.head.deleted {
		return nil, false
	}
	return m.head.data, true
}

// visible returns the newest version with begin <= ts (nil if none).
func visibleVersion(head *mvVersion, ts uint64) *mvVersion {
	for v := head; v != nil; v = v.next {
		if v.begin <= ts {
			return v
		}
	}
	return nil
}

// Read implements Protocol.
func (p *mvcc) Read(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, error) {
	m := p.meta.get(tbl, rid)
	m.mu.Lock()
	var v *mvVersion
	switch p.level {
	case IsoReadCommitted:
		v = m.head
	default:
		// A pending writer with a smaller timestamp may commit a version
		// this read should have observed: abort rather than read around it.
		if m.pending != 0 && m.pending != tx.ID && m.pending < tx.ID {
			m.mu.Unlock()
			return nil, txn.ErrConflict
		}
		v = visibleVersion(m.head, tx.ID)
		if p.level == IsoSerializable && tx.ID > m.rts {
			m.rts = tx.ID
		}
	}
	m.mu.Unlock()
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindRead})
	if v == nil || v.deleted {
		return nil, txn.ErrNotFound
	}
	return v.data, nil
}

// preWrite validates and takes the write intent per the isolation level.
// Caller holds m.mu.
func (p *mvcc) preWrite(tx *txn.Txn, m *mvMeta) error {
	if m.pending != 0 && m.pending != tx.ID {
		return txn.ErrConflict
	}
	switch p.level {
	case IsoSerializable:
		if tx.ID < m.rts {
			return txn.ErrConflict
		}
		if m.head != nil && m.head.begin > tx.ID {
			return txn.ErrConflict
		}
	case IsoSnapshot:
		// First-committer-wins: a version committed after our snapshot
		// began means a concurrent writer beat us.
		if m.head != nil && m.head.begin > tx.ID {
			return txn.ErrConflict
		}
	}
	m.pending = tx.ID
	return nil
}

// ReadForUpdate implements Protocol.
func (p *mvcc) ReadForUpdate(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, error) {
	m := p.meta.get(tbl, rid)
	m.mu.Lock()
	if err := p.preWrite(tx, m); err != nil {
		m.mu.Unlock()
		return nil, err
	}
	var v *mvVersion
	if p.level == IsoReadCommitted {
		v = m.head
	} else {
		v = visibleVersion(m.head, tx.ID)
	}
	if v == nil || v.deleted {
		m.pending = 0
		m.mu.Unlock()
		return nil, txn.ErrNotFound
	}
	buf := tx.Buf(len(v.data))
	copy(buf, v.data)
	m.mu.Unlock()
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindWrite, Data: buf})
	return buf, nil
}

// RegisterInsert implements Protocol: write intent on a chain with no
// committed versions keeps the record invisible until commit.
func (p *mvcc) RegisterInsert(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID, key uint64, data []byte) error {
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

// RegisterDelete implements Protocol: a delete is a tombstone version.
func (p *mvcc) RegisterDelete(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID, key uint64) error {
	m := p.meta.get(tbl, rid)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := p.preWrite(tx, m); err != nil {
		return err
	}
	v := visibleVersion(m.head, tx.ID)
	if v == nil || v.deleted {
		m.pending = 0
		return txn.ErrNotFound
	}
	// The deleted image, copied: pruning may recycle the version once this
	// transaction leaves.
	img := tx.Buf(len(v.data))
	copy(img, v.data)
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindDelete, Key: key, Data: img})
	return nil
}

// Commit implements Protocol: install versions and prune garbage.
func (p *mvcc) Commit(tx *txn.Txn) error {
	if !tx.HasWrites() {
		p.env.Active.Leave(tx.ThreadID)
		return nil
	}
	// Serializable MV-TO installs at the begin timestamp; snapshot and
	// read-committed stamp a fresh commit timestamp so that versions appear
	// in commit order.
	installTS := tx.ID
	if p.level != IsoSerializable {
		installTS = p.env.TS.Next()
	}
	watermark := p.env.Active.Min()

	for i := range tx.Accesses {
		a := &tx.Accesses[i]
		if a.Kind == txn.KindRead {
			continue
		}
		m := p.meta.get(a.Table, a.RID)
		m.mu.Lock()
		if p.level == IsoSnapshot && m.head != nil && m.head.begin > tx.ID && m.pending != tx.ID {
			// Should not happen (pending guards us), defensive only.
			m.mu.Unlock()
			p.Abort(tx)
			return txn.ErrConflict
		}
		v := m.allocVersion()
		v.begin = installTS
		v.next = m.head
		switch a.Kind {
		case txn.KindDelete:
			v.deleted = true
			v.data = v.data[:0]
		default:
			v.setData(a.Data)
		}
		m.head = v
		m.pending = 0
		pruneVersions(m, watermark)
		m.mu.Unlock()
	}
	// Expose the version timestamp so value-log replay can order entries.
	tx.ID = installTS
	p.env.Active.Leave(tx.ThreadID)
	return nil
}

// pruneVersions drops chain entries that no active transaction can reach —
// everything past the newest version with begin <= watermark — and recycles
// the cut nodes into the record's freelist. Recycling is safe: a pruned
// version is strictly older than the newest version visible at the
// watermark, and under every isolation level a version installed while a
// reader was active carries a begin timestamp the reader cannot see past,
// so no still-running transaction can hold a pruned node's data. That
// argument needs the watermark to bound every begin timestamp still to be
// used, including one drawn but not yet registered: Begin publishes
// TS.Last() before it draws, so a committer either sees that bound, or read
// the watermark before it was stored — then its own begin timestamp (its
// slot caps the watermark) was drawn before the newcomer's. Either way the
// version kept at the watermark is visible to the newcomer. Caller holds
// m.mu.
func pruneVersions(m *mvMeta, watermark uint64) {
	for v := m.head; v != nil; v = v.next {
		if v.begin <= watermark {
			cut := v.next
			v.next = nil
			freeCount := 0
			for f := m.free; f != nil; f = f.next {
				freeCount++
			}
			for cut != nil && freeCount < mvFreeLimit {
				next := cut.next
				cut.next = m.free
				m.free = cut
				freeCount++
				cut = next
			}
			return
		}
	}
}

// Abort implements Protocol: release write intents.
func (p *mvcc) Abort(tx *txn.Txn) {
	for i := range tx.Accesses {
		a := &tx.Accesses[i]
		if a.Kind == txn.KindRead {
			continue
		}
		m := p.meta.get(a.Table, a.RID)
		m.mu.Lock()
		if m.pending == tx.ID {
			m.pending = 0
		}
		m.mu.Unlock()
	}
	p.env.Active.Leave(tx.ThreadID)
}
