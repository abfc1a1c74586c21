package cc

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"next700/internal/stats"
	"next700/internal/storage"
	"next700/internal/txn"
	"next700/internal/xrand"
)

// fixture is a tiny engine stand-in: one table of int64 counters, loaded
// through the protocol's Loader, plus a retrying
// transaction runner with own-write visibility — the same discipline the
// real engine uses.
type fixture struct {
	p     Protocol
	env   *Env
	tbl   *storage.Table
	sch   *storage.Schema
	nrows int
}

func newFixture(t testing.TB, name string, threads, nrows int) *fixture {
	t.Helper()
	env := NewEnv(threads)
	env.NumPartitions = 4
	p, err := New(name, env)
	if err != nil {
		t.Fatal(err)
	}
	sch := storage.MustSchema("counters", storage.I64("v"))
	tbl := storage.NewTable(sch, 0)
	for i := 0; i < nrows; i++ {
		p.LoadRecord(tbl, tbl.Alloc(), uint64(i), sch.NewRow())
	}
	return &fixture{p: p, env: env, tbl: tbl, sch: sch, nrows: nrows}
}

// read returns the value of row rid with own-write visibility.
func (f *fixture) read(tx *txn.Txn, rid storage.RecordID) (int64, error) {
	if w := tx.FindWrite(f.tbl, rid); w != nil {
		if w.Kind == txn.KindDelete {
			return 0, txn.ErrNotFound
		}
		return f.sch.GetInt64(w.Data, 0), nil
	}
	data, err := f.p.Read(tx, f.tbl, rid)
	if err != nil {
		return 0, err
	}
	return f.sch.GetInt64(data, 0), nil
}

// add increments row rid by delta.
func (f *fixture) add(tx *txn.Txn, rid storage.RecordID, delta int64) error {
	if w := tx.FindWrite(f.tbl, rid); w != nil && w.Kind != txn.KindDelete {
		f.sch.SetInt64(w.Data, 0, f.sch.GetInt64(w.Data, 0)+delta)
		return nil
	}
	buf, err := f.p.ReadForUpdate(tx, f.tbl, rid)
	if err != nil {
		return err
	}
	f.sch.SetInt64(buf, 0, f.sch.GetInt64(buf, 0)+delta)
	return nil
}

// run executes body as a transaction with retry-on-conflict and randomized
// backoff (the same discipline the engine uses; without backoff NO_WAIT
// style protocols livelock under adversarial interleavings).
func (f *fixture) run(tx *txn.Txn, body func(tx *txn.Txn) error) error {
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			runtime.Gosched()
			if attempt > 4 {
				backoff := tx.RNG.Intn(1 << uint(min(attempt, 12)))
				time.Sleep(time.Duration(backoff) * time.Microsecond)
			}
		}
		tx.Reset()
		f.p.Begin(tx)
		err := body(tx)
		if err == nil {
			err = f.p.Commit(tx)
			if err == nil {
				tx.ClearPriority()
				if tx.Counter != nil {
					tx.Counter.Commits++
				}
				return nil
			}
		} else if !errors.Is(err, txn.ErrConflict) {
			f.p.Abort(tx)
			tx.ClearPriority()
			return err
		} else {
			f.p.Abort(tx)
		}
		if tx.Counter != nil {
			tx.Counter.Aborts++
		}
		if attempt > 100000 {
			return fmt.Errorf("%s: livelock after %d attempts", f.p.Name(), attempt)
		}
	}
}

func newTxnFor(thread int) *txn.Txn {
	return txn.NewTxn(thread, xrand.New(uint64(thread+1)), &stats.Counter{})
}

func allProtocols(t *testing.T, f func(t *testing.T, name string)) {
	t.Helper()
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) { f(t, name) })
	}
}

func TestNames(t *testing.T) {
	if len(Names()) != 8 {
		t.Fatalf("expected 8 protocols, got %d", len(Names()))
	}
	for _, n := range Names() {
		p, err := New(n, NewEnv(1))
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != n {
			t.Fatalf("New(%q).Name() = %q", n, p.Name())
		}
	}
	if _, err := New("bogus", NewEnv(1)); err == nil {
		t.Fatal("unknown protocol must error")
	}
}

func TestSingleThreadReadWrite(t *testing.T) {
	allProtocols(t, func(t *testing.T, name string) {
		f := newFixture(t, name, 1, 10)
		tx := newTxnFor(0)
		// Write then read back in a later transaction.
		if err := f.run(tx, func(tx *txn.Txn) error {
			return f.add(tx, 3, 42)
		}); err != nil {
			t.Fatal(err)
		}
		var got int64
		if err := f.run(tx, func(tx *txn.Txn) error {
			v, err := f.read(tx, 3)
			got = v
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if got != 42 {
			t.Fatalf("read %d want 42", got)
		}
	})
}

func TestOwnWriteVisibility(t *testing.T) {
	allProtocols(t, func(t *testing.T, name string) {
		f := newFixture(t, name, 1, 10)
		tx := newTxnFor(0)
		if err := f.run(tx, func(tx *txn.Txn) error {
			if err := f.add(tx, 1, 7); err != nil {
				return err
			}
			v, err := f.read(tx, 1)
			if err != nil {
				return err
			}
			if v != 7 {
				t.Fatalf("own write invisible: %d", v)
			}
			return f.add(tx, 1, 3)
		}); err != nil {
			t.Fatal(err)
		}
		tx2 := newTxnFor(0)
		f.run(tx2, func(tx *txn.Txn) error {
			v, err := f.read(tx, 1)
			if err != nil {
				return err
			}
			if v != 10 {
				t.Fatalf("accumulated write wrong: %d", v)
			}
			return nil
		})
	})
}

func TestAbortRollsBack(t *testing.T) {
	allProtocols(t, func(t *testing.T, name string) {
		f := newFixture(t, name, 1, 10)
		tx := newTxnFor(0)
		err := f.run(tx, func(tx *txn.Txn) error {
			if err := f.add(tx, 5, 99); err != nil {
				return err
			}
			return txn.ErrUserAbort
		})
		if !errors.Is(err, txn.ErrUserAbort) {
			t.Fatalf("got %v", err)
		}
		f.run(tx, func(tx *txn.Txn) error {
			v, err := f.read(tx, 5)
			if err != nil {
				return err
			}
			if v != 0 {
				t.Fatalf("aborted write leaked: %d", v)
			}
			return nil
		})
	})
}

// TestLostUpdate hammers a single counter from many goroutines; the final
// value must equal the number of committed increments for every protocol.
func TestLostUpdate(t *testing.T) {
	allProtocols(t, func(t *testing.T, name string) {
		const workers = 8
		const perWorker = 500
		f := newFixture(t, name, workers, 4)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tx := newTxnFor(w)
				for i := 0; i < perWorker; i++ {
					if err := f.run(tx, func(tx *txn.Txn) error {
						return f.add(tx, 0, 1)
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		tx := newTxnFor(0)
		f.run(tx, func(tx *txn.Txn) error {
			v, err := f.read(tx, 0)
			if err != nil {
				return err
			}
			if v != workers*perWorker {
				t.Fatalf("lost updates: %d want %d", v, workers*perWorker)
			}
			return nil
		})
	})
}

// TestBankInvariant runs random transfers between accounts; the total must
// be conserved in every committed state — the classic serializability
// smoke test.
func TestBankInvariant(t *testing.T) {
	allProtocols(t, func(t *testing.T, name string) {
		const workers = 8
		const accounts = 16
		const initial = 1000
		const perWorker = 400
		f := newFixture(t, name, workers, accounts)
		// Fund the accounts.
		tx0 := newTxnFor(0)
		if err := f.run(tx0, func(tx *txn.Txn) error {
			for a := 0; a < accounts; a++ {
				if err := f.add(tx, storage.RecordID(a), initial); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}

		stop := make(chan struct{})
		var transfers sync.WaitGroup
		for w := 0; w < workers-1; w++ {
			transfers.Add(1)
			go func(w int) {
				defer transfers.Done()
				tx := newTxnFor(w)
				rng := xrand.New(uint64(w + 100))
				for i := 0; i < perWorker; i++ {
					from := storage.RecordID(rng.Intn(accounts))
					to := storage.RecordID(rng.Intn(accounts))
					if from == to {
						continue
					}
					amount := int64(rng.Intn(50) + 1)
					if err := f.run(tx, func(tx *txn.Txn) error {
						if err := f.add(tx, from, -amount); err != nil {
							return err
						}
						return f.add(tx, to, amount)
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		// Auditor thread: every committed snapshot must conserve the total.
		var auditor sync.WaitGroup
		auditor.Add(1)
		go func() {
			defer auditor.Done()
			tx := newTxnFor(workers - 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				var total int64
				if err := f.run(tx, func(tx *txn.Txn) error {
					total = 0
					for a := 0; a < accounts; a++ {
						v, err := f.read(tx, storage.RecordID(a))
						if err != nil {
							return err
						}
						total += v
					}
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				if total != accounts*initial {
					t.Errorf("%s: invariant broken: total=%d want %d", name, total, accounts*initial)
					return
				}
			}
		}()
		// Let the auditor overlap the whole transfer phase, then stop it.
		transfers.Wait()
		close(stop)
		auditor.Wait()

		// Final audit.
		tx := newTxnFor(0)
		var total int64
		if err := f.run(tx, func(tx *txn.Txn) error {
			total = 0
			for a := 0; a < accounts; a++ {
				v, err := f.read(tx, storage.RecordID(a))
				if err != nil {
					return err
				}
				total += v
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if total != accounts*initial {
			t.Fatalf("%s: final invariant broken: total=%d want %d", name, total, accounts*initial)
		}
	})
}

// TestInsertVisibility checks that inserted records appear only after
// commit and vanish on abort.
func TestInsertVisibility(t *testing.T) {
	allProtocols(t, func(t *testing.T, name string) {
		f := newFixture(t, name, 2, 4)
		loaderDone := f.tbl.NumRows()

		// Aborted insert: record stays invisible.
		tx := newTxnFor(0)
		rid := f.tbl.Alloc()
		f.tbl.SetTombstone(rid, true)
		tx.Reset()
		f.p.Begin(tx)
		data := make([]byte, f.sch.RowSize())
		f.sch.SetInt64(data, 0, 123)
		if err := f.p.RegisterInsert(tx, f.tbl, rid, uint64(rid), data); err != nil {
			t.Fatal(err)
		}
		f.p.Abort(tx)

		tx2 := newTxnFor(1)
		if err := f.run(tx2, func(tx *txn.Txn) error {
			_, err := f.read(tx, rid)
			if !errors.Is(err, txn.ErrNotFound) {
				t.Fatalf("aborted insert visible: %v", err)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}

		// Committed insert: record becomes visible with its data.
		rid2 := f.tbl.Alloc()
		f.tbl.SetTombstone(rid2, true)
		tx.Reset()
		tx.ClearPriority()
		f.p.Begin(tx)
		data2 := tx.Buf(f.sch.RowSize())
		f.sch.SetInt64(data2, 0, 456)
		if err := f.p.RegisterInsert(tx, f.tbl, rid2, uint64(rid2), data2); err != nil {
			t.Fatal(err)
		}
		if err := f.p.Commit(tx); err != nil {
			t.Fatal(err)
		}
		if err := f.run(tx2, func(tx *txn.Txn) error {
			v, err := f.read(tx, rid2)
			if err != nil {
				return err
			}
			if v != 456 {
				t.Fatalf("insert data wrong: %d", v)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		_ = loaderDone
	})
}

// TestDelete checks delete-at-commit semantics.
func TestDelete(t *testing.T) {
	allProtocols(t, func(t *testing.T, name string) {
		f := newFixture(t, name, 1, 8)
		tx := newTxnFor(0)
		if err := f.run(tx, func(tx *txn.Txn) error {
			return f.p.RegisterDelete(tx, f.tbl, 2, 2)
		}); err != nil {
			t.Fatal(err)
		}
		if err := f.run(tx, func(tx *txn.Txn) error {
			_, err := f.read(tx, 2)
			if !errors.Is(err, txn.ErrNotFound) {
				t.Fatalf("deleted record readable: %v", err)
			}
			// Double delete must report not-found.
			err = f.p.RegisterDelete(tx, f.tbl, 2, 2)
			if !errors.Is(err, txn.ErrNotFound) {
				t.Fatalf("double delete: %v", err)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReadOnlyNoConflictSingleThread ensures read-only transactions commit
// cleanly.
func TestReadOnly(t *testing.T) {
	allProtocols(t, func(t *testing.T, name string) {
		f := newFixture(t, name, 1, 8)
		tx := newTxnFor(0)
		if err := f.run(tx, func(tx *txn.Txn) error {
			for i := 0; i < 8; i++ {
				if _, err := f.read(tx, storage.RecordID(i)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLockingCommitOrdersIDs: a lock-based protocol's Commit draws tx.ID
// while its writes are still protected, so conflicting commits leave IDs in
// commit order — value-log replay orders a record's entries by them. The
// transaction that began first commits second here, so an ID fixed at Begin
// would come out inverted.
func TestLockingCommitOrdersIDs(t *testing.T) {
	for _, name := range []string{"NO_WAIT", "WAIT_DIE", "DL_DETECT", "HSTORE"} {
		t.Run(name, func(t *testing.T) {
			f := newFixture(t, name, 2, 1)
			began, first := newTxnFor(0), newTxnFor(1)
			for _, tx := range []*txn.Txn{began, first} {
				tx.Reset()
				f.p.Begin(tx)
			}
			for _, tx := range []*txn.Txn{first, began} {
				if err := f.add(tx, 0, 1); err != nil {
					t.Fatal(err)
				}
				if err := f.p.Commit(tx); err != nil {
					t.Fatal(err)
				}
			}
			if first.ID == 0 || began.ID <= first.ID {
				t.Fatalf("commit IDs %d then %d, want increasing", first.ID, began.ID)
			}
		})
	}
}
