package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"next700/internal/fault"
	"next700/internal/testutil"
	"next700/internal/txn"
	"next700/internal/wal"
)

// deadlineSlack is how far past its deadline a transaction may plausibly
// take to surface the abort on a loaded CI machine. The product guarantee
// under test is "bounded, and bounded near the deadline" — not a hard
// real-time bound.
const deadlineSlack = 2 * time.Second

// withEngine opens an engine, runs fn, closes the engine, and then asserts
// no goroutine survived the close. Close happens inside the leak-checked
// region (unlike openEngine's t.Cleanup), which is the point: expired
// waiters, broadcast timers, and the WAL flusher must all be gone.
func withEngine(t *testing.T, cfg Config, fn func(e *Engine)) {
	t.Helper()
	defer testutil.CheckGoroutines(t)()
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fn(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlineBoundsRetryBackoff is the all-protocols half of the
// conformance matrix: a transaction that only ever conflicts must stop
// retrying — charging its backoff sleeps against the budget — and abort
// with the deadline class close to the deadline, under every protocol.
func TestDeadlineBoundsRetryBackoff(t *testing.T) {
	forAllProtocols(t, func(t *testing.T, protocol string) {
		withEngine(t, Config{Protocol: protocol, Threads: 1}, func(e *Engine) {
			tx := e.NewTx(0, 1)
			const deadline = 50 * time.Millisecond
			tx.SetDeadlineAfter(deadline)
			start := time.Now()
			err := tx.Run(func(*Tx) error { return txn.ErrConflict })
			elapsed := time.Since(start)
			if !errors.Is(err, ErrDeadlineExceeded) {
				t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
			}
			if elapsed > deadline+deadlineSlack {
				t.Fatalf("deadline abort took %v, want ~%v", elapsed, deadline)
			}
			c := tx.Counter()
			if c.DeadlineAborts != 1 || c.Commits != 0 {
				t.Fatalf("counters: deadline_aborts=%d commits=%d", c.DeadlineAborts, c.Commits)
			}
		})
	})
}

// testBlockedAcquireDeadline stages the blocking half of the matrix: a
// holder transaction sits on key 0 for longer than the victim's deadline,
// and the victim — begun earlier, so it is the older transaction where age
// matters (WAIT_DIE) — must come back with a deadline abort instead of
// waiting out the holder. The holder must then commit untouched: the
// victim's expiry may not corrupt lock or waits-for state.
func testBlockedAcquireDeadline(t *testing.T, protocol string) {
	withEngine(t, Config{Protocol: protocol, Threads: 2}, func(e *Engine) {
		tbl := kvTable(t, e, "kv", IndexHash, 4)

		victimBegan := make(chan struct{})
		holderHasLock := make(chan struct{})
		release := make(chan struct{})
		holderDone := make(chan error, 1)
		var beganOnce, lockedOnce sync.Once

		go func() {
			// Begin only after the victim's attempt has begun, so the victim
			// holds the older (smaller) priority stamp.
			<-victimBegan
			txH := e.NewTx(1, 2)
			holderDone <- txH.Run(func(tx *Tx) error {
				row, err := tx.Update(tbl, 0)
				if err != nil {
					return err
				}
				setV(tbl, row, 7)
				lockedOnce.Do(func() { close(holderHasLock) })
				<-release
				return nil
			})
		}()

		txV := e.NewTx(0, 1)
		const deadline = 60 * time.Millisecond
		txV.SetDeadlineAfter(deadline)
		start := time.Now()
		err := txV.Run(func(tx *Tx) error {
			beganOnce.Do(func() { close(victimBegan) })
			<-holderHasLock
			_, uerr := tx.Update(tbl, 0)
			return uerr
		})
		elapsed := time.Since(start)
		close(release)

		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("victim err = %v, want ErrDeadlineExceeded", err)
		}
		if elapsed > deadline+deadlineSlack {
			t.Fatalf("victim aborted after %v, want ~%v", elapsed, deadline)
		}
		if c := txV.Counter(); c.DeadlineAborts != 1 {
			t.Fatalf("victim deadline_aborts = %d, want 1", c.DeadlineAborts)
		}
		if herr := <-holderDone; herr != nil {
			t.Fatalf("holder err = %v", herr)
		}
		// The victim's expiry left the lock table sane: its slot can run
		// again and sees the holder's committed write.
		txV.ClearDeadline()
		if err := txV.Run(func(tx *Tx) error {
			row, rerr := tx.Read(tbl, 0)
			if rerr != nil {
				return rerr
			}
			if v := getV(tbl, row); v != 7 {
				t.Errorf("post-expiry read = %d, want 7", v)
			}
			return nil
		}); err != nil {
			t.Fatalf("post-expiry txn: %v", err)
		}
	})
}

// TestDeadlineBlockedAcquire covers every configuration that can actually
// park or spin on a held lock: the three 2PL variants and HSTORE's
// partition mutex. (The OCC and timestamp protocols never block on
// acquisition; their conformance path is the retry/backoff matrix above.)
func TestDeadlineBlockedAcquire(t *testing.T) {
	for _, protocol := range []string{"NO_WAIT", "WAIT_DIE", "DL_DETECT", "HSTORE"} {
		t.Run(protocol, func(t *testing.T) { testBlockedAcquireDeadline(t, protocol) })
	}
}

// TestDeadlineBoundsDurabilityWait pins the commit-wait-timeout semantics:
// with the log device stalled (gray failure: hung, not erroring), a
// deadline transaction comes back near its deadline with the deadline
// class, but the commit is still counted — it is memory-committed and its
// record stays staged, so the outcome is indeterminate, and indeed becomes
// durable once the device recovers.
func TestDeadlineBoundsDurabilityWait(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	mem := &fault.MemDevice{}
	dev := fault.NewDevice(mem, fault.Plan{StallSyncAt: 1})
	e, err := Open(Config{Protocol: "SILO", Threads: 1, LogMode: wal.ModeValue, LogDevice: dev})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl := kvTable(t, e, "kv", IndexHash, 4)

	tx := e.NewTx(0, 1)
	const deadline = 40 * time.Millisecond
	tx.SetDeadlineAfter(deadline)
	start := time.Now()
	err = tx.Run(func(tx *Tx) error {
		row, uerr := tx.Update(tbl, 0)
		if uerr != nil {
			return uerr
		}
		setV(tbl, row, 9)
		return nil
	})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed > deadline+deadlineSlack {
		t.Fatalf("durability wait returned after %v, want ~%v", elapsed, deadline)
	}
	c := tx.Counter()
	if c.Commits != 1 || c.DeadlineAborts != 0 {
		t.Fatalf("counters: commits=%d deadline_aborts=%d (indeterminate commit must count as a commit)", c.Commits, c.DeadlineAborts)
	}
	// Recover the device: the staged record drains and durability lands.
	dev.Release()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if mem.SyncedLen() == 0 {
		t.Fatal("record never reached the device after the stall cleared")
	}
}

// TestDeadlineClearedAndZeroIsNone: a cleared or never-set deadline must
// never abort, and a deadline in the future must not perturb a fast
// transaction.
func TestDeadlineFutureAndClearedAreHarmless(t *testing.T) {
	withEngine(t, Config{Protocol: "SILO", Threads: 1}, func(e *Engine) {
		tbl := kvTable(t, e, "kv", IndexHash, 4)
		tx := e.NewTx(0, 1)
		tx.SetDeadlineAfter(10 * time.Second)
		if err := tx.Run(func(tx *Tx) error {
			_, err := tx.Read(tbl, 1)
			return err
		}); err != nil {
			t.Fatalf("fast txn under future deadline: %v", err)
		}
		tx.ClearDeadline()
		if got := tx.DeadlineNanos(); got != 0 {
			t.Fatalf("DeadlineNanos after clear = %d", got)
		}
		if err := tx.Run(func(tx *Tx) error {
			_, err := tx.Read(tbl, 2)
			return err
		}); err != nil {
			t.Fatalf("txn after ClearDeadline: %v", err)
		}
		if c := tx.Counter(); c.Commits != 2 || c.DeadlineAborts != 0 {
			t.Fatalf("counters: commits=%d deadline_aborts=%d", c.Commits, c.DeadlineAborts)
		}
	})
}

// TestDeadlineAlreadyExpired: a deadline in the past aborts before the body
// ever runs.
func TestDeadlineAlreadyExpired(t *testing.T) {
	withEngine(t, Config{Protocol: "SILO", Threads: 1}, func(e *Engine) {
		tx := e.NewTx(0, 1)
		tx.SetDeadlineNanos(time.Now().Add(-time.Millisecond).UnixNano())
		ran := false
		err := tx.Run(func(*Tx) error { ran = true; return nil })
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
		}
		if ran {
			t.Fatal("body ran despite an expired deadline")
		}
		if c := tx.Counter(); c.DeadlineAborts != 1 {
			t.Fatalf("deadline_aborts = %d, want 1", c.DeadlineAborts)
		}
	})
}
