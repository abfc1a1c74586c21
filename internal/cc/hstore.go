package cc

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"next700/internal/storage"
	"next700/internal/txn"
)

// hstoreState is the per-transaction scratch: which partition locks are
// held, sorted ascending, plus a reusable staging slice for
// DeclarePartitions so steady-state declaration allocates nothing.
type hstoreState struct {
	held []int
	decl []int
}

func (s *hstoreState) holds(p int) bool {
	for _, h := range s.held {
		if h == p {
			return true
		}
	}
	return false
}

// hstore implements H-Store-style partition-level concurrency control
// (Stonebraker et al., VLDB'07): the database is split into partitions,
// each logically owned by one execution site; a transaction locks every
// partition it touches for its whole duration and then runs without any
// record-level coordination at all. Single-partition transactions are
// nearly free; multi-partition transactions serialize whole partitions,
// which is the cliff experiment E10 charts.
type hstore struct {
	arenaRows
	arenaPrefetch
	env   *Env
	locks []sync.Mutex
	// partOf tags each record with its partition, set by LoadRecord and
	// RegisterInsert. Value is partition+1 so zero means "untagged".
	partOf tableMetas[int32]
}

func newHStore(env *Env) *hstore {
	n := env.NumPartitions
	if n < 1 {
		n = 1
	}
	return &hstore{env: env, locks: make([]sync.Mutex, n)}
}

// Name implements Protocol.
func (p *hstore) Name() string { return "HSTORE" }

// Begin implements Protocol.
func (p *hstore) Begin(tx *txn.Txn) {
	if tx.Priority == 0 {
		tx.Priority = p.env.TS.Next()
	}
	st, _ := tx.Scratch.(*hstoreState)
	if st == nil {
		st = &hstoreState{}
		tx.Scratch = st
	}
	st.held = st.held[:0]
}

// DeclarePartitions implements PartitionAware: blocking acquisition in
// ascending order is deadlock-free.
func (p *hstore) DeclarePartitions(tx *txn.Txn, parts []int) error {
	st := tx.Scratch.(*hstoreState)
	sorted := append(st.decl[:0], parts...)
	sort.Ints(sorted)
	st.decl = sorted
	prev := -1
	for _, part := range sorted {
		if part == prev {
			continue
		}
		prev = part
		if part < 0 || part >= len(p.locks) {
			return txn.ErrConflict
		}
		if st.holds(part) {
			continue
		}
		if err := p.acquireOrdered(tx, st, part); err != nil {
			return err
		}
	}
	return nil
}

// acquireOrdered takes a partition lock. If the partition id is above every
// held lock the acquisition blocks (safe); otherwise it must try-lock to
// stay deadlock-free and the transaction aborts on failure. A transaction
// with a deadline never parks on the mutex: it polls with backoff so a
// stalled partition owner cannot strand it past its budget.
func (p *hstore) acquireOrdered(tx *txn.Txn, st *hstoreState, part int) error {
	if len(st.held) == 0 || part > st.held[len(st.held)-1] {
		if dl := tx.Deadline; dl != 0 {
			if err := lockWithDeadline(&p.locks[part], dl); err != nil {
				return err
			}
		} else {
			// Transaction-duration partition lock, released by release():
			// deadline-free transactions block behind the owner by design
			// (H-Store's single-owner partition model).
			p.locks[part].Lock() //next700:allowwait(deadline-free transactions opt out; ascending partition order keeps this deadlock-free and release() frees it at txn end)
		}
	} else if !p.locks[part].TryLock() {
		return txn.ErrConflict
	}
	st.held = append(st.held, part)
	sort.Ints(st.held)
	return nil
}

// lockWithDeadline acquires mu or gives up at the absolute deadline (Unix
// nanoseconds). Contended acquisition spins with escalating sleeps — the
// partition lock is mutex-based with no waiter queue to time out of, and
// polling at ≤100µs granularity bounds both the overshoot and the wasted
// spin.
//
//next700:allowalloc(contended path only: the TryLock fast path costs nothing; polling while blocked needs the clock)
func lockWithDeadline(mu *sync.Mutex, deadline int64) error {
	backoff := time.Microsecond
	for !mu.TryLock() {
		if time.Now().UnixNano() >= deadline {
			return txn.ErrDeadlineExceeded
		}
		runtime.Gosched()
		time.Sleep(backoff)
		if backoff < 100*time.Microsecond {
			backoff *= 2
		}
	}
	return nil
}

// LoadRecord implements Loader: tag the record's partition, then install
// the row in the arena.
func (p *hstore) LoadRecord(tbl *storage.Table, rid storage.RecordID, key uint64, data []byte) {
	*p.partOf.get(tbl, rid) = int32(p.partitionOfKey(tbl, key)) + 1
	p.arenaRows.LoadRecord(tbl, rid, key, data)
}

func (p *hstore) partitionOfKey(tbl *storage.Table, key uint64) int {
	if p.env.PartitionOf != nil {
		part := p.env.PartitionOf(tbl, key)
		if part >= 0 && part < len(p.locks) {
			return part
		}
	}
	return int(key % uint64(len(p.locks)))
}

// ensure makes sure the transaction holds the record's partition lock,
// lazily acquiring it (try-lock when out of order) for transactions that
// did not pre-declare.
func (p *hstore) ensure(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) error {
	tag := *p.partOf.get(tbl, rid)
	part := int(tag) - 1
	if tag == 0 {
		part = int(uint64(rid) % uint64(len(p.locks)))
	}
	st := tx.Scratch.(*hstoreState)
	if st.holds(part) {
		return nil
	}
	if err := p.acquireOrdered(tx, st, part); err != nil {
		if tx.Counter != nil {
			tx.Counter.Waits++
		}
		return err
	}
	return nil
}

// Read implements Protocol: with the partition lock held the row is stable.
func (p *hstore) Read(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, error) {
	if err := p.ensure(tx, tbl, rid); err != nil {
		return nil, err
	}
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindRead})
	if !tbl.IsLive(rid) {
		return nil, txn.ErrNotFound
	}
	return tbl.Row(rid), nil
}

// ReadForUpdate implements Protocol.
func (p *hstore) ReadForUpdate(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, error) {
	if err := p.ensure(tx, tbl, rid); err != nil {
		return nil, err
	}
	if !tbl.IsLive(rid) {
		return nil, txn.ErrNotFound
	}
	row := tbl.Row(rid)
	buf := tx.Buf(len(row))
	copy(buf, row)
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindWrite, Data: buf})
	return buf, nil
}

// RegisterInsert implements Protocol.
func (p *hstore) RegisterInsert(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID, key uint64, data []byte) error {
	*p.partOf.get(tbl, rid) = int32(p.partitionOfKey(tbl, key)) + 1
	if err := p.ensure(tx, tbl, rid); err != nil {
		return err
	}
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindInsert, Key: key, Data: data})
	return nil
}

// RegisterDelete implements Protocol.
func (p *hstore) RegisterDelete(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID, key uint64) error {
	if err := p.ensure(tx, tbl, rid); err != nil {
		return err
	}
	if !tbl.IsLive(rid) {
		return txn.ErrNotFound
	}
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindDelete, Key: key, Data: tbl.Row(rid)})
	return nil
}

// Commit implements Protocol: install writes, draw tx.ID while the
// partitions are still held (see twoPL.Commit), release partitions.
func (p *hstore) Commit(tx *txn.Txn) error {
	for i := range tx.Accesses {
		a := &tx.Accesses[i]
		if a.Kind != txn.KindRead {
			applyWrite(a)
		}
	}
	tx.ID = p.env.TS.Next()
	p.releaseAll(tx)
	return nil
}

// Abort implements Protocol.
func (p *hstore) Abort(tx *txn.Txn) {
	p.releaseAll(tx)
}

func (p *hstore) releaseAll(tx *txn.Txn) {
	st, _ := tx.Scratch.(*hstoreState)
	if st == nil {
		return
	}
	for _, part := range st.held {
		p.locks[part].Unlock()
	}
	st.held = st.held[:0]
}
