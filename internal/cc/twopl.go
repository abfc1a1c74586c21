package cc

import (
	"sync"
	"time"

	"next700/internal/storage"
	"next700/internal/txn"
)

// twoPLVariant selects the conflict-resolution policy of the 2PL family.
type twoPLVariant uint8

const (
	// variantNoWait aborts the requester immediately on any conflict.
	variantNoWait twoPLVariant = iota
	// variantWaitDie lets older transactions wait for younger holders and
	// kills younger requesters ("die"), which is deadlock-free and
	// starvation-free because aborted transactions retain their age.
	variantWaitDie
	// variantDLDetect always waits but maintains a global waits-for graph
	// and kills the requester when its wait would close a cycle.
	variantDLDetect
)

func (v twoPLVariant) name() string {
	switch v {
	case variantNoWait:
		return "NO_WAIT"
	case variantWaitDie:
		return "WAIT_DIE"
	default:
		return "DL_DETECT"
	}
}

// lockState is the per-record lock word of the 2PL family: one exclusive
// holder or a set of shared holders, identified by transaction priority
// stamps (unique, monotone — smaller is older).
type lockState struct {
	mu      sync.Mutex
	cond    *sync.Cond
	writer  uint64   // priority of exclusive holder; 0 = none
	readers []uint64 // priorities of shared holders
}

func (st *lockState) broadcast() {
	if st.cond != nil {
		st.cond.Broadcast()
	}
}

// wait parks the caller until a holder releases or aborts (broadcast).
// Deadline-free transactions opt out of bounded waiting by contract; their
// progress is bounded by policy instead — WAIT_DIE wound-ordering kills
// younger waiters, DL_DETECT clears its waits-for edges on every exit path.
//
//next700:allowwait(deadline-free transactions opt out; WAIT_DIE/DL_DETECT policies bound progress, deadline path uses waitDeadline)
func (st *lockState) wait() {
	if st.cond == nil {
		st.cond = sync.NewCond(&st.mu)
	}
	st.cond.Wait()
}

// waitDeadline is wait with an absolute deadline (Unix nanoseconds): a
// timer broadcasts the condition at the deadline so a waiter whose holder
// never releases still wakes. Returns false when the deadline has already
// passed (no wait happened). Spurious wakeups of co-waiters on the same
// record are possible and harmless — they re-check and wait again. The
// timer allocation happens only on the blocked (slow) path; deadline-free
// waits take the allocation-free wait() above.
//
//next700:allowalloc(the audited timed-wait timer: allocation happens only on the blocked path, documented above)
func (st *lockState) waitDeadline(deadline int64) bool {
	remaining := deadline - time.Now().UnixNano()
	if remaining <= 0 {
		return false
	}
	if st.cond == nil {
		st.cond = sync.NewCond(&st.mu)
	}
	t := time.AfterFunc(time.Duration(remaining), func() {
		st.mu.Lock()
		st.cond.Broadcast()
		st.mu.Unlock()
	})
	st.cond.Wait() //next700:allowwait(the AfterFunc broadcast above bounds this wait at the deadline)
	t.Stop()
	return true
}

func (st *lockState) hasReader(id uint64) bool {
	for _, r := range st.readers {
		if r == id {
			return true
		}
	}
	return false
}

func (st *lockState) removeReader(id uint64) {
	for i, r := range st.readers {
		if r == id {
			st.readers[i] = st.readers[len(st.readers)-1]
			st.readers = st.readers[:len(st.readers)-1]
			return
		}
	}
}

// conflictHolders appends to dst the ids currently blocking a request by me
// in the given mode (exclusive or shared).
func (st *lockState) conflictHolders(dst []uint64, me uint64, exclusive bool) []uint64 {
	if st.writer != 0 && st.writer != me {
		dst = append(dst, st.writer)
	}
	if exclusive {
		for _, r := range st.readers {
			if r != me {
				dst = append(dst, r)
			}
		}
	}
	return dst
}

// waitsFor is the global waits-for graph used by DL_DETECT. All mutation
// and cycle checks take one mutex — deliberately: the shared graph is the
// scalability bottleneck the design-space experiments quantify.
type waitsFor struct {
	mu    sync.Mutex
	edges map[uint64]map[uint64]struct{}
}

func newWaitsFor() *waitsFor {
	return &waitsFor{edges: make(map[uint64]map[uint64]struct{})}
}

// addWouldCycle installs edges me->holders and reports whether doing so
// closes a cycle through me. If it does, the edges are removed again and
// true is returned (the caller must die rather than wait).
//
//next700:allowalloc(deadlock-detection bookkeeping runs only on the conflict path, never on uncontended acquires)
//next700:locked(waitsFor.mu: deadlock-detection bookkeeping runs only on the conflict path, never on uncontended acquires)
func (w *waitsFor) addWouldCycle(me uint64, holders []uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	m := w.edges[me]
	if m == nil {
		m = make(map[uint64]struct{}, len(holders))
		w.edges[me] = m
	}
	for _, h := range holders {
		m[h] = struct{}{}
	}
	// DFS from me; cycle iff me is reachable from one of its targets.
	if w.reaches(me, me, make(map[uint64]bool)) {
		delete(w.edges, me)
		return true
	}
	return false
}

// reaches reports whether target is reachable from any successor of from.
func (w *waitsFor) reaches(from, target uint64, seen map[uint64]bool) bool {
	for next := range w.edges[from] {
		if next == target {
			return true
		}
		if !seen[next] {
			seen[next] = true
			if w.reaches(next, target, seen) {
				return true
			}
		}
	}
	return false
}

// clear removes all outgoing edges of me (called when its wait ends).
func (w *waitsFor) clear(me uint64) {
	w.mu.Lock()
	delete(w.edges, me)
	w.mu.Unlock()
}

// twoPL implements the three lock-based protocols over shared machinery.
type twoPL struct {
	arenaRows
	arenaPrefetch
	env     *Env
	variant twoPLVariant
	meta    tableMetas[lockState]
	graph   *waitsFor // DL_DETECT only
}

func newTwoPL(env *Env, v twoPLVariant) *twoPL {
	p := &twoPL{env: env, variant: v}
	if v == variantDLDetect {
		p.graph = newWaitsFor()
	}
	return p
}

// Name implements Protocol.
func (p *twoPL) Name() string { return p.variant.name() }

// Begin implements Protocol. The priority stamp doubles as the lock-holder
// identity; retries keep it so WAIT_DIE cannot starve.
func (p *twoPL) Begin(tx *txn.Txn) {
	if tx.Priority == 0 {
		tx.Priority = p.env.TS.Next()
	}
	tx.ID = tx.Priority
}

// acquire takes the record lock in the requested mode, applying the
// variant's conflict policy. Returns txn.ErrConflict when the requester
// must die.
func (p *twoPL) acquire(tx *txn.Txn, st *lockState, exclusive bool) error {
	me := tx.Priority
	var holders []uint64

	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if st.writer == me {
			return nil // already exclusive; covers shared too
		}
		if exclusive {
			if st.writer == 0 && (len(st.readers) == 0 ||
				(len(st.readers) == 1 && st.readers[0] == me)) {
				st.removeReader(me) // upgrade
				st.writer = me
				return nil
			}
		} else {
			if st.writer == 0 {
				if !st.hasReader(me) {
					st.readers = append(st.readers, me)
				}
				return nil
			}
		}

		// Conflict.
		switch p.variant {
		case variantNoWait:
			return txn.ErrConflict
		case variantWaitDie:
			holders = st.conflictHolders(holders[:0], me, exclusive)
			for _, h := range holders {
				if me > h {
					// Someone older holds the lock: die.
					return txn.ErrConflict
				}
			}
			if tx.Counter != nil {
				tx.Counter.Waits++
			}
			if dl := tx.Deadline; dl != 0 {
				if !st.waitDeadline(dl) {
					// Expired while blocked: no lock request is queued
					// (waiters re-poll), so simply stop waiting. Locks
					// acquired earlier are released by the engine's Abort.
					return txn.ErrDeadlineExceeded
				}
			} else {
				st.wait()
			}
		case variantDLDetect:
			holders = st.conflictHolders(holders[:0], me, exclusive)
			if p.graph.addWouldCycle(me, holders) {
				return txn.ErrConflict
			}
			if tx.Counter != nil {
				tx.Counter.Waits++
			}
			if dl := tx.Deadline; dl != 0 {
				waited := st.waitDeadline(dl)
				// The waits-for edges must come out whether the wait ended
				// by grant, by broadcast, or by deadline — an expired waiter
				// must never leave dangling edges that strand later cycle
				// checks.
				p.graph.clear(me)
				if !waited {
					return txn.ErrDeadlineExceeded
				}
			} else {
				st.wait()
				p.graph.clear(me)
			}
		}
	}
}

// release drops whatever me holds on st and wakes waiters.
func (st *lockState) release(me uint64) {
	st.mu.Lock()
	if st.writer == me {
		st.writer = 0
	}
	st.removeReader(me)
	st.broadcast()
	st.mu.Unlock()
}

// Read implements Protocol: S-lock then return the row in place (stable
// while the S lock is held, since writers install only under X).
func (p *twoPL) Read(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, error) {
	st := p.meta.get(tbl, rid)
	if err := p.acquire(tx, st, false); err != nil {
		return nil, err
	}
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindRead})
	if tbl.IsTombstoned(rid) {
		return nil, txn.ErrNotFound
	}
	return tbl.Row(rid), nil
}

// ReadForUpdate implements Protocol: X-lock, buffer an after-image.
func (p *twoPL) ReadForUpdate(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, error) {
	st := p.meta.get(tbl, rid)
	if err := p.acquire(tx, st, true); err != nil {
		return nil, err
	}
	if tbl.IsTombstoned(rid) {
		tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindRead})
		return nil, txn.ErrNotFound
	}
	row := tbl.Row(rid)
	buf := tx.Buf(len(row))
	copy(buf, row)
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindWrite, Data: buf})
	return buf, nil
}

// RegisterInsert implements Protocol: X-lock the fresh record (uncontended)
// so readers chasing the index entry block or die until the outcome.
func (p *twoPL) RegisterInsert(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID, key uint64, data []byte) error {
	st := p.meta.get(tbl, rid)
	if err := p.acquire(tx, st, true); err != nil {
		return err
	}
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindInsert, Key: key, Data: data})
	return nil
}

// RegisterDelete implements Protocol: X-lock and tombstone at commit.
func (p *twoPL) RegisterDelete(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID, key uint64) error {
	st := p.meta.get(tbl, rid)
	if err := p.acquire(tx, st, true); err != nil {
		return err
	}
	if tbl.IsTombstoned(rid) {
		return txn.ErrNotFound
	}
	tx.AddAccess(txn.Access{Table: tbl, RID: rid, Kind: txn.KindDelete, Key: key, Data: tbl.Row(rid)})
	return nil
}

// Commit implements Protocol. SS2PL: by this point every access is locked,
// so installation cannot fail. tx.ID is drawn after every write is installed
// and before any lock is released, so conflicting transactions' IDs follow
// their serialization order, which value-log replay relies on.
//
// Allocation budget: zero steady-state for all three variants — images
// install in place under the held exclusive locks, and each lockState's
// reader/waiter slices grow to a contention high-water mark on first use,
// then are reused. Pinned by bench/alloc_test.go.
func (p *twoPL) Commit(tx *txn.Txn) error {
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
func (p *twoPL) Abort(tx *txn.Txn) {
	if p.variant == variantDLDetect {
		p.graph.clear(tx.Priority)
	}
	p.releaseAll(tx)
}

func (p *twoPL) releaseAll(tx *txn.Txn) {
	me := tx.Priority
	// release is idempotent per lockState, so duplicate accesses to the
	// same record are harmless.
	for i := range tx.Accesses {
		a := &tx.Accesses[i]
		p.meta.get(a.Table, a.RID).release(me)
	}
}
