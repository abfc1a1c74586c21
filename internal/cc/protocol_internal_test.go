package cc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"next700/internal/storage"
	"next700/internal/txn"
	"next700/internal/xrand"
)

func mkTxn(thread int, prio uint64) *txn.Txn {
	tx := txn.NewTxn(thread, xrand.New(uint64(thread+1)), nil)
	tx.Priority = prio
	tx.ID = prio
	return tx
}

func TestLockStateSharedCompatibility(t *testing.T) {
	p := newTwoPL(NewEnv(2), variantNoWait)
	st := &lockState{}
	t1, t2 := mkTxn(0, 1), mkTxn(1, 2)
	if err := p.acquire(t1, st, false); err != nil {
		t.Fatal(err)
	}
	if err := p.acquire(t2, st, false); err != nil {
		t.Fatal("shared locks must be compatible:", err)
	}
	// Exclusive conflicts with both readers.
	t3 := mkTxn(0, 3)
	if err := p.acquire(t3, st, true); !errors.Is(err, txn.ErrConflict) {
		t.Fatal("X over S must conflict under NO_WAIT")
	}
	st.release(t1.Priority)
	st.release(t2.Priority)
	if err := p.acquire(t3, st, true); err != nil {
		t.Fatal("X after release failed:", err)
	}
	// Re-entrant: X holder may read and write again.
	if err := p.acquire(t3, st, false); err != nil {
		t.Fatal("reentrant S under X failed:", err)
	}
	if err := p.acquire(t3, st, true); err != nil {
		t.Fatal("reentrant X failed:", err)
	}
}

func TestLockStateUpgrade(t *testing.T) {
	p := newTwoPL(NewEnv(2), variantNoWait)
	st := &lockState{}
	t1 := mkTxn(0, 1)
	if err := p.acquire(t1, st, false); err != nil {
		t.Fatal(err)
	}
	// Sole reader upgrades in place.
	if err := p.acquire(t1, st, true); err != nil {
		t.Fatal("sole-reader upgrade failed:", err)
	}
	if st.writer != t1.Priority || len(st.readers) != 0 {
		t.Fatalf("upgrade state wrong: writer=%d readers=%v", st.writer, st.readers)
	}
	// With a second reader present, upgrade conflicts.
	st.release(t1.Priority)
	t2 := mkTxn(1, 2)
	p.acquire(t1, st, false)
	p.acquire(t2, st, false)
	if err := p.acquire(t1, st, true); !errors.Is(err, txn.ErrConflict) {
		t.Fatal("upgrade with other readers must conflict under NO_WAIT")
	}
}

func TestWaitDieYoungerDies(t *testing.T) {
	p := newTwoPL(NewEnv(2), variantWaitDie)
	st := &lockState{}
	older := mkTxn(0, 1) // smaller priority = older
	younger := mkTxn(1, 2)
	if err := p.acquire(older, st, true); err != nil {
		t.Fatal(err)
	}
	// Younger requester must die immediately.
	if err := p.acquire(younger, st, true); !errors.Is(err, txn.ErrConflict) {
		t.Fatal("younger must die under WAIT_DIE")
	}
}

func TestWaitDieOlderWaits(t *testing.T) {
	p := newTwoPL(NewEnv(2), variantWaitDie)
	st := &lockState{}
	younger := mkTxn(1, 10)
	older := mkTxn(0, 5)
	if err := p.acquire(younger, st, true); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- p.acquire(older, st, true) // should block, then acquire
	}()
	// Release from the younger holder; the older waiter must proceed.
	st.release(younger.Priority)
	if err := <-done; err != nil {
		t.Fatal("older waiter should acquire after release:", err)
	}
	if st.writer != older.Priority {
		t.Fatal("older did not take the lock")
	}
}

func TestWaitsForCycleDetection(t *testing.T) {
	w := newWaitsFor()
	if w.addWouldCycle(1, []uint64{2}) {
		t.Fatal("1->2 is no cycle")
	}
	if w.addWouldCycle(2, []uint64{3}) {
		t.Fatal("2->3 is no cycle")
	}
	if !w.addWouldCycle(3, []uint64{1}) {
		t.Fatal("3->1 closes a cycle and must be detected")
	}
	// The rejected edge must have been rolled back: 3 can wait on 4.
	if w.addWouldCycle(3, []uint64{4}) {
		t.Fatal("edge rollback failed")
	}
	w.clear(1)
	// With 1's edges gone, 3->1 no longer cycles.
	if w.addWouldCycle(1, []uint64{3}) {
		t.Fatal("cleared graph must not cycle")
	}
}

func TestWaitsForSelfEdgeIgnored(t *testing.T) {
	w := newWaitsFor()
	// A direct self-edge is a degenerate cycle.
	if !w.addWouldCycle(7, []uint64{7}) {
		t.Fatal("self edge must be a cycle")
	}
}

func TestDLDetectTwoTxnDeadlock(t *testing.T) {
	// T1 holds A wants B; T2 holds B wants A. Exactly one must die; the
	// other completes.
	p := newTwoPL(NewEnv(2), variantDLDetect)
	stA, stB := &lockState{}, &lockState{}
	t1, t2 := mkTxn(0, 1), mkTxn(1, 2)
	if err := p.acquire(t1, stA, true); err != nil {
		t.Fatal(err)
	}
	if err := p.acquire(t2, stB, true); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = p.acquire(t1, stB, true)
		if errs[0] != nil {
			stA.release(t1.Priority)
			p.graph.clear(t1.Priority)
		}
	}()
	go func() {
		defer wg.Done()
		errs[1] = p.acquire(t2, stA, true)
		if errs[1] != nil {
			stB.release(t2.Priority)
			p.graph.clear(t2.Priority)
		}
	}()
	wg.Wait()
	dead := 0
	for _, e := range errs {
		if errors.Is(e, txn.ErrConflict) {
			dead++
		}
	}
	if dead != 1 {
		t.Fatalf("expected exactly one deadlock victim, got %d (errs=%v)", dead, errs)
	}
}

func TestMVCCVersionChain(t *testing.T) {
	env := NewEnv(2)
	p := newMVCC(env)
	sch := storage.MustSchema("t", storage.I64("v"))
	tbl := storage.NewTable(sch, 0)
	rid := tbl.Alloc()
	init := make([]byte, sch.RowSize())
	sch.SetInt64(init, 0, 100)
	p.LoadRecord(tbl, rid, 0, init)

	// An old reader begins first (smaller timestamp, registered as active
	// so GC keeps its snapshot), then a writer updates to 200.
	old := mkTxn(1, 0)
	old.Reset()
	p.Begin(old)

	w := mkTxn(0, 0)
	w.Reset()
	p.Begin(w)
	buf, err := p.ReadForUpdate(w, tbl, rid)
	if err != nil {
		t.Fatal(err)
	}
	sch.SetInt64(buf, 0, 200)
	if err := p.Commit(w); err != nil {
		t.Fatal(err)
	}

	// The old reader must still see the pre-update version.
	data, err := p.Read(old, tbl, rid)
	if err != nil {
		t.Fatal(err)
	}
	if got := sch.GetInt64(data, 0); got != 100 {
		t.Fatalf("old reader saw %d, want 100", got)
	}
	p.Abort(old)

	// A fresh reader sees the new version.
	fresh := mkTxn(1, 0)
	fresh.Reset()
	p.Begin(fresh)
	data, err = p.Read(fresh, tbl, rid)
	if err != nil {
		t.Fatal(err)
	}
	if got := sch.GetInt64(data, 0); got != 200 {
		t.Fatalf("fresh reader saw %d, want 200", got)
	}
	p.Commit(fresh)
}

func TestMVCCGarbageCollection(t *testing.T) {
	env := NewEnv(1)
	p := newMVCC(env)
	sch := storage.MustSchema("t", storage.I64("v"))
	tbl := storage.NewTable(sch, 0)
	rid := tbl.Alloc()
	init := make([]byte, sch.RowSize())
	p.LoadRecord(tbl, rid, 0, init)

	// With no concurrent readers, repeated updates must keep the chain
	// pruned to a handful of versions.
	for i := 0; i < 100; i++ {
		w := mkTxn(0, 0)
		w.Reset()
		p.Begin(w)
		buf, err := p.ReadForUpdate(w, tbl, rid)
		if err != nil {
			t.Fatal(err)
		}
		sch.SetInt64(buf, 0, int64(i))
		if err := p.Commit(w); err != nil {
			t.Fatal(err)
		}
	}
	m := p.meta.get(tbl, rid)
	depth := 0
	for v := m.head; v != nil; v = v.next {
		depth++
	}
	if depth > 3 {
		t.Fatalf("version chain not pruned: depth=%d", depth)
	}
}

// TestMVCCBeginRacesPrune is the regression test for "txn: key not found"
// on a loaded key. Begin used to draw its timestamp and only then register
// it in the active table; a writer that began, committed and pruned inside
// that gap saw a watermark above the reader's timestamp and cut the only
// version the reader could see. There is no seam to park a goroutine between
// two atomic operations, so this is a bounded stress loop: one reader and
// one writer on one row, where the gap is a few percent of the reader's
// loop and every asynchronous preemption that lands in it trips the fault
// (20 of 20 runs on the commit before the fix, the latest at iteration
// 377 200 of 2 000 000; -short runs an eighth of that and is only a smoke
// test). A correct Begin makes the failure impossible, not unlikely.
func TestMVCCBeginRacesPrune(t *testing.T) {
	env := NewEnv(2)
	p := newMVCC(env)
	sch := storage.MustSchema("t", storage.I64("v"))
	tbl := storage.NewTable(sch, 0)
	rid := tbl.Alloc()
	p.LoadRecord(tbl, rid, 0, make([]byte, sch.RowSize()))

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := mkTxn(0, 0)
		for i := int64(0); !stop.Load(); i++ {
			w.Reset()
			p.Begin(w)
			buf, err := p.ReadForUpdate(w, tbl, rid)
			if err != nil {
				p.Abort(w) // a later reader got there first
				continue
			}
			sch.SetInt64(buf, 0, i)
			p.Commit(w)
		}
	}()
	defer wg.Wait()
	defer stop.Store(true)

	iters := 2_000_000
	if testing.Short() {
		iters = 250_000
	}
	r := mkTxn(1, 0)
	for i := 0; i < iters; i++ {
		r.Reset()
		p.Begin(r)
		_, err := p.Read(r, tbl, rid)
		if errors.Is(err, txn.ErrNotFound) {
			t.Fatalf("iteration %d: reader at ts %d found no version of a loaded row", i, r.ID)
		}
		if err != nil {
			p.Abort(r) // an older writer is pending
			continue
		}
		p.Commit(r)
	}
}

func TestMVCCSnapshotAllowsWriteSkew(t *testing.T) {
	// Write skew: T1 reads A writes B, T2 reads B writes A. Serializable
	// MVCC must reject one; snapshot isolation commits both.
	run := func(level string) (commits int) {
		env := NewEnv(2)
		env.IsolationLevel = level
		p := newMVCC(env)
		sch := storage.MustSchema("t", storage.I64("v"))
		tbl := storage.NewTable(sch, 0)
		ridA, ridB := tbl.Alloc(), tbl.Alloc()
		init := make([]byte, sch.RowSize())
		p.LoadRecord(tbl, ridA, 0, init)
		p.LoadRecord(tbl, ridB, 1, init)

		t1, t2 := mkTxn(0, 0), mkTxn(1, 0)
		t1.Reset()
		t2.Reset()
		p.Begin(t1)
		p.Begin(t2)
		// Interleave: both read their peer's record, then write their own.
		if _, err := p.Read(t1, tbl, ridA); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Read(t2, tbl, ridB); err != nil {
			t.Fatal(err)
		}
		ok1, ok2 := true, true
		if _, err := p.ReadForUpdate(t1, tbl, ridB); err != nil {
			ok1 = false
		}
		if _, err := p.ReadForUpdate(t2, tbl, ridA); err != nil {
			ok2 = false
		}
		if ok1 {
			if err := p.Commit(t1); err != nil {
				ok1 = false
			}
		} else {
			p.Abort(t1)
		}
		if ok2 {
			if err := p.Commit(t2); err != nil {
				ok2 = false
			}
		} else {
			p.Abort(t2)
		}
		if ok1 {
			commits++
		}
		if ok2 {
			commits++
		}
		return commits
	}
	if got := run(IsoSerializable); got > 1 {
		t.Fatalf("serializable committed both write-skew txns (%d)", got)
	}
	if got := run(IsoSnapshot); got != 2 {
		t.Fatalf("snapshot should commit both write-skew txns, got %d", got)
	}
}

func TestSiloCommitTIDMonotone(t *testing.T) {
	env := NewEnv(1)
	p := newSilo(env)
	sch := storage.MustSchema("t", storage.I64("v"))
	tbl := storage.NewTable(sch, 0)
	rid := tbl.Alloc()
	init := make([]byte, sch.RowSize())
	p.LoadRecord(tbl, rid, 0, init)

	prev := uint64(0)
	for i := 0; i < 50; i++ {
		tx := mkTxn(0, 0)
		tx.Reset()
		p.Begin(tx)
		buf, err := p.ReadForUpdate(tx, tbl, rid)
		if err != nil {
			t.Fatal(err)
		}
		sch.SetInt64(buf, 0, int64(i))
		if err := p.Commit(tx); err != nil {
			t.Fatal(err)
		}
		if tx.ID <= prev {
			t.Fatalf("commit TID not monotone: %d after %d", tx.ID, prev)
		}
		prev = tx.ID
	}
	// A record this thread never touched still gets a TID above the
	// thread's last one.
	rid2 := tbl.Alloc()
	p.LoadRecord(tbl, rid2, 1, init)
	tx := mkTxn(0, 0)
	tx.Reset()
	p.Begin(tx)
	buf, err := p.ReadForUpdate(tx, tbl, rid2)
	if err != nil {
		t.Fatal(err)
	}
	sch.SetInt64(buf, 0, 999)
	if err := p.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if tx.ID <= prev {
		t.Fatalf("commit TID not monotone per thread: %d after %d", tx.ID, prev)
	}
}

func TestSiloValidationAbortsStaleRead(t *testing.T) {
	env := NewEnv(2)
	p := newSilo(env)
	sch := storage.MustSchema("t", storage.I64("v"))
	tbl := storage.NewTable(sch, 0)
	rid := tbl.Alloc()
	init := make([]byte, sch.RowSize())
	p.LoadRecord(tbl, rid, 0, init)
	rid2 := tbl.Alloc()
	p.LoadRecord(tbl, rid2, 1, init)

	reader := mkTxn(0, 0)
	reader.Reset()
	p.Begin(reader)
	if _, err := p.Read(reader, tbl, rid); err != nil {
		t.Fatal(err)
	}
	// Make the read-only reader also a writer of another record so commit
	// exercises the full path.
	if _, err := p.ReadForUpdate(reader, tbl, rid2); err != nil {
		t.Fatal(err)
	}

	// Concurrent writer commits a new version of rid.
	writer := mkTxn(1, 0)
	writer.Reset()
	p.Begin(writer)
	buf, err := p.ReadForUpdate(writer, tbl, rid)
	if err != nil {
		t.Fatal(err)
	}
	sch.SetInt64(buf, 0, 42)
	if err := p.Commit(writer); err != nil {
		t.Fatal(err)
	}

	// Reader's validation must now fail.
	if err := p.Commit(reader); !errors.Is(err, txn.ErrConflict) {
		t.Fatalf("stale read passed validation: %v", err)
	}
}

func TestTicTocExtensionCommitsReadOnly(t *testing.T) {
	// TicToc's hallmark: a reader that overlapped a writer can still commit
	// by computing a timestamp below the writer's, provided its read
	// versions were not overwritten before validation.
	env := NewEnv(2)
	p := newTicToc(env)
	sch := storage.MustSchema("t", storage.I64("v"))
	tbl := storage.NewTable(sch, 0)
	ridA, ridB := tbl.Alloc(), tbl.Alloc()
	for i, rid := range []storage.RecordID{ridA, ridB} {
		row := sch.NewRow()
		sch.SetInt64(row, 0, int64(i+1))
		p.LoadRecord(tbl, rid, uint64(rid), row)
	}

	reader := mkTxn(0, 0)
	reader.Reset()
	p.Begin(reader)
	if _, err := p.Read(reader, tbl, ridA); err != nil {
		t.Fatal(err)
	}

	// Writer commits to a DIFFERENT record; reader then reads it and can
	// still commit (its timestamp straddles both versions).
	writer := mkTxn(1, 0)
	writer.Reset()
	p.Begin(writer)
	buf, err := p.ReadForUpdate(writer, tbl, ridB)
	if err != nil {
		t.Fatal(err)
	}
	sch.SetInt64(buf, 0, 20)
	if err := p.Commit(writer); err != nil {
		t.Fatal(err)
	}

	if _, err := p.Read(reader, tbl, ridB); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(reader); err != nil {
		t.Fatalf("TicToc reader should commit via extension: %v", err)
	}
	if reader.ID < writer.ID {
		// Reader serialized before writer is also acceptable; either way
		// it must have committed. Nothing to assert beyond success.
		_ = reader.ID
	}
}

func TestTicTocWriteWriteConflictAborts(t *testing.T) {
	env := NewEnv(2)
	p := newTicToc(env)
	sch := storage.MustSchema("t", storage.I64("v"))
	tbl := storage.NewTable(sch, 0)
	rid := tbl.Alloc()
	p.LoadRecord(tbl, rid, uint64(rid), sch.NewRow())

	t1, t2 := mkTxn(0, 0), mkTxn(1, 0)
	t1.Reset()
	t2.Reset()
	p.Begin(t1)
	p.Begin(t2)
	if _, err := p.ReadForUpdate(t1, tbl, rid); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadForUpdate(t2, tbl, rid); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(t1); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(t2); !errors.Is(err, txn.ErrConflict) {
		t.Fatalf("second writer must abort: %v", err)
	}
	p.Abort(t2)
}

func TestTOOrderingRules(t *testing.T) {
	env := NewEnv(2)
	p := newTO(env)
	sch := storage.MustSchema("t", storage.I64("v"))
	tbl := storage.NewTable(sch, 0)
	rid := tbl.Alloc()
	p.LoadRecord(tbl, rid, uint64(rid), sch.NewRow())

	// Newer reader bumps rts; an older writer must then abort.
	newer := mkTxn(0, 0)
	newer.Reset()
	p.Begin(newer)
	older := mkTxn(1, 0)
	older.Reset()
	p.Begin(older) // drawn later => larger ts; swap roles below

	// env.TS is monotonic: 'newer' got ts1 < ts2 of 'older'. Use the larger
	// one as the reader.
	reader, writer := older, newer // reader.ts > writer.ts
	if _, err := p.Read(reader, tbl, rid); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadForUpdate(writer, tbl, rid); !errors.Is(err, txn.ErrConflict) {
		t.Fatalf("write below rts must abort: %v", err)
	}
	p.Abort(writer)
	if err := p.Commit(reader); err != nil {
		t.Fatal(err)
	}
}

func TestTODirtyReadAborts(t *testing.T) {
	env := NewEnv(2)
	p := newTO(env)
	sch := storage.MustSchema("t", storage.I64("v"))
	tbl := storage.NewTable(sch, 0)
	rid := tbl.Alloc()
	p.LoadRecord(tbl, rid, uint64(rid), sch.NewRow())

	w := mkTxn(0, 0)
	w.Reset()
	p.Begin(w)
	if _, err := p.ReadForUpdate(w, tbl, rid); err != nil {
		t.Fatal(err)
	}
	// A later reader hits the dirty pre-write and aborts.
	r := mkTxn(1, 0)
	r.Reset()
	p.Begin(r)
	if _, err := p.Read(r, tbl, rid); !errors.Is(err, txn.ErrConflict) {
		t.Fatalf("dirty read must abort: %v", err)
	}
	p.Abort(r)
	if err := p.Commit(w); err != nil {
		t.Fatal(err)
	}
}

func TestHStoreSinglePartitionNoInterference(t *testing.T) {
	env := NewEnv(2)
	env.NumPartitions = 4
	p := newHStore(env)
	sch := storage.MustSchema("t", storage.I64("v"))
	tbl := storage.NewTable(sch, 0)
	// Keys 0 and 1 land in partitions 0 and 1.
	rid0, rid1 := tbl.Alloc(), tbl.Alloc()
	p.LoadRecord(tbl, rid0, 0, tbl.Row(rid0))
	p.LoadRecord(tbl, rid1, 1, tbl.Row(rid1))

	t1, t2 := mkTxn(0, 0), mkTxn(1, 0)
	t1.Reset()
	t2.Reset()
	p.Begin(t1)
	p.Begin(t2)
	if err := p.DeclarePartitions(t1, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := p.DeclarePartitions(t2, []int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadForUpdate(t1, tbl, rid0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadForUpdate(t2, tbl, rid1); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(t1); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(t2); err != nil {
		t.Fatal(err)
	}
}

func TestHStoreLazyOutOfOrderAborts(t *testing.T) {
	env := NewEnv(2)
	env.NumPartitions = 4
	p := newHStore(env)
	sch := storage.MustSchema("t", storage.I64("v"))
	tbl := storage.NewTable(sch, 0)
	// partition 2 and 1.
	ridHi, ridLo := tbl.Alloc(), tbl.Alloc()
	p.LoadRecord(tbl, ridHi, 2, tbl.Row(ridHi))
	p.LoadRecord(tbl, ridLo, 1, tbl.Row(ridLo))

	// T2 holds partition 1.
	t2 := mkTxn(1, 0)
	t2.Reset()
	p.Begin(t2)
	if err := p.DeclarePartitions(t2, []int{1}); err != nil {
		t.Fatal(err)
	}

	// T1 grabs partition 2, then lazily needs partition 1 (out of order):
	// must try-lock and abort because T2 holds it.
	t1 := mkTxn(0, 0)
	t1.Reset()
	p.Begin(t1)
	if _, err := p.Read(t1, tbl, ridHi); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(t1, tbl, ridLo); !errors.Is(err, txn.ErrConflict) {
		t.Fatalf("out-of-order busy partition must conflict: %v", err)
	}
	p.Abort(t1)
	if err := p.Commit(t2); err != nil {
		t.Fatal(err)
	}
}

func TestMetaTableGrowth(t *testing.T) {
	mt := newMetaTable[uint64](1)
	big := storage.RecordID(metaChunkSize*3 + 5)
	*mt.get(big) = 42
	if *mt.get(big) != 42 {
		t.Fatal("value lost after growth")
	}
	if *mt.get(0) != 0 {
		t.Fatal("other slots not zero")
	}
	// Concurrent growth.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				rid := storage.RecordID(w*metaChunkSize + i*17)
				*mt.get(rid) = uint64(rid)
			}
		}(w)
	}
	wg.Wait()

	// With a stride each record owns its own run of slots, across chunks.
	st := newMetaTable[uint64](3)
	rids := []storage.RecordID{0, 1, metaChunkSize - 1, metaChunkSize, big}
	for _, rid := range rids {
		s := st.slots(rid)
		if len(s) != 3 || st.get(rid) != &s[0] {
			t.Fatalf("rid %d: %d slots, get not the first", rid, len(s))
		}
		for i := range s {
			s[i] = uint64(rid)*3 + uint64(i)
		}
	}
	for _, rid := range rids {
		for i, v := range st.slots(rid) {
			if v != uint64(rid)*3+uint64(i) {
				t.Fatalf("rid %d slot %d = %d: runs overlap", rid, i, v)
			}
		}
	}
}

func TestActiveTable(t *testing.T) {
	at := NewActiveTable(3)
	if at.Min() != ^uint64(0) {
		t.Fatal("empty table min should be max")
	}
	at.Enter(0, 100)
	at.Enter(1, 50)
	if at.Min() != 50 {
		t.Fatalf("min %d", at.Min())
	}
	at.Leave(1)
	if at.Min() != 100 {
		t.Fatalf("min after leave %d", at.Min())
	}
	// Out-of-range thread ids are ignored, not panics.
	at.Enter(99, 1)
	at.Leave(99)
}

func TestSortWriteIndices(t *testing.T) {
	s := storage.MustSchema("t", storage.I64("v"))
	tblA := storage.NewTable(s, 1)
	tblB := storage.NewTable(s, 0)
	tx := mkTxn(0, 1)
	tx.Accesses = append(tx.Accesses,
		txn.Access{Table: tblA, RID: 5, Kind: txn.KindWrite},
		txn.Access{Table: tblB, RID: 9, Kind: txn.KindWrite},
		txn.Access{Table: tblA, RID: 2, Kind: txn.KindRead}, // excluded
		txn.Access{Table: tblA, RID: 1, Kind: txn.KindDelete},
	)
	got := sortWriteIndices(tx)
	if len(got) != 3 {
		t.Fatalf("want 3 writes, got %d", len(got))
	}
	// Order: tblB(id0) rid9, tblA(id1) rid1, tblA rid5.
	want := []int{1, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestTableMetasConcurrentFirstTouch: the metadata directory is copy-on-write
// behind one atomic pointer; goroutines touching many tables for the first
// time at once must all resolve each table to the one metaTable installed
// for it, and a slot written through one resolution is seen through another.
func TestTableMetasConcurrentFirstTouch(t *testing.T) {
	const tables, workers = 40, 8
	var tm tableMetas[atomic.Uint64]
	tbls := make([]*storage.Table, tables)
	for i := range tbls {
		tbls[i] = storage.NewTable(storage.MustSchema(fmt.Sprint("t", i), storage.I64("v")), i)
	}
	got := make([][]*metaTable[atomic.Uint64], workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*metaTable[atomic.Uint64], tables)
			for j := range tbls {
				i := (j*7 + w) % tables // every worker in its own order
				got[w][i] = tm.forTable(tbls[i])
				tm.get(tbls[i], storage.RecordID(w)).Store(uint64(i + 1))
			}
		}(w)
	}
	wg.Wait()
	for i := range tbls {
		for w := 0; w < workers; w++ {
			if got[w][i] != got[0][i] {
				t.Fatalf("table %d resolved to two metaTables", i)
			}
			if v := tm.get(tbls[i], storage.RecordID(w)).Load(); v != uint64(i+1) {
				t.Fatalf("table %d rid %d = %d, a write went to a lost metaTable", i, w, v)
			}
		}
	}
}
