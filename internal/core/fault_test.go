package core

import (
	"errors"
	"testing"
	"time"

	"next700/internal/fault"
	"next700/internal/txn"
	"next700/internal/wal"
	"next700/internal/xrand"
)

// TestLogFailureDegradesToCleanAborts: once the log device dies, every
// subsequent commit must come back promptly as a clean abort carrying
// ErrLogFailed — no hangs, no panics, and no memory state mutated by the
// failed transactions.
func TestLogFailureDegradesToCleanAborts(t *testing.T) {
	for _, protocol := range []string{"SILO", "NO_WAIT", "MVCC", "TICTOC"} {
		t.Run(protocol, func(t *testing.T) {
			mem := &fault.MemDevice{}
			dev := fault.NewDevice(mem, fault.Plan{CrashAtByte: 1})
			e := openEngine(t, Config{
				Protocol: protocol, Threads: 1,
				LogMode: wal.ModeValue, LogDevice: dev,
			})
			tbl := kvTable(t, e, "kv", IndexHash, 10)
			tx := e.NewTx(0, 1)

			update := func(key uint64, v int64) error {
				return tx.Run(func(tx *Tx) error {
					row, err := tx.Update(tbl, key)
					if err != nil {
						return err
					}
					setV(tbl, row, v)
					return nil
				})
			}

			// The first durable commit hits the crash. Depending on flusher
			// timing it surfaces on this or the next transaction, but it must
			// surface as ErrLogFailed, not hang.
			done := make(chan error, 1)
			go func() { done <- update(0, 100) }()
			var first error
			select {
			case first = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("commit hung on dead log device")
			}
			if !errors.Is(first, wal.ErrLogFailed) || !errors.Is(first, fault.ErrCrashed) {
				t.Fatalf("first commit err=%v, want ErrLogFailed wrapping ErrCrashed", first)
			}

			// From here on the writer is marked failed: commits degrade to
			// clean aborts via the pre-commit check.
			for i := 1; i <= 3; i++ {
				err := update(uint64(i), 500+int64(i))
				if !errors.Is(err, wal.ErrLogFailed) {
					t.Fatalf("commit %d after log death err=%v", i, err)
				}
			}
			c := e.TotalCounter()
			if c.FatalAborts < 3 {
				t.Fatalf("FatalAborts=%d, want >= 3", c.FatalAborts)
			}

			// Clean abort means no memory mutation: keys 1..3 keep their
			// loaded value.
			if err := tx.Run(func(tx *Tx) error {
				for i := 1; i <= 3; i++ {
					row, err := tx.Read(tbl, uint64(i))
					if err != nil {
						return err
					}
					if got := getV(tbl, row); got != 0 {
						t.Fatalf("key %d = %d after failed commit, want 0", i, got)
					}
				}
				return nil
			}); err != nil && !errors.Is(err, wal.ErrLogFailed) {
				t.Fatal(err)
			}
			// Close surfaces the loss instead of pretending a clean shutdown.
			if err := e.Close(); !errors.Is(err, wal.ErrLogFailed) {
				t.Fatalf("Close err=%v, want ErrLogFailed", err)
			}
		})
	}
}

// TestFatalAbortAccounting: a non-retryable application error is counted as
// a fatal abort, not a conflict abort and not a user abort.
func TestFatalAbortAccounting(t *testing.T) {
	e := openEngine(t, Config{Protocol: "SILO", Threads: 1})
	tbl := kvTable(t, e, "kv", IndexHash, 2)
	tx := e.NewTx(0, 1)
	boom := errors.New("application failure")
	if err := tx.Run(func(tx *Tx) error {
		if _, err := tx.Update(tbl, 0); err != nil {
			return err
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
	if err := tx.Run(func(tx *Tx) error { return txn.ErrUserAbort }); !errors.Is(err, txn.ErrUserAbort) {
		t.Fatalf("err=%v", err)
	}
	c := e.TotalCounter()
	if c.FatalAborts != 1 || c.UserAborts != 1 || c.Aborts != 0 {
		t.Fatalf("fatal=%d user=%d transient=%d, want 1/1/0", c.FatalAborts, c.UserAborts, c.Aborts)
	}
}

func TestRetryPolicyDelay(t *testing.T) {
	rng := xrand.New(7)
	// Spin attempts sleep zero.
	for a := 1; a <= retrySpinAttempts; a++ {
		if d := retryDelay(rng, a); d != 0 {
			t.Fatalf("attempt %d delay %v, want 0", a, d)
		}
	}
	// The jitter ceiling doubles per attempt and is capped at
	// retryMaxDelay, including far past any representable shift.
	for a := retrySpinAttempts + 1; a < 70; a++ {
		ceil := retryMaxDelay
		if shift := a - retrySpinAttempts - 1; shift < 30 {
			if c := retryBaseDelay << uint(shift); c < ceil {
				ceil = c
			}
		}
		for i := 0; i < 50; i++ {
			if d := retryDelay(rng, a); d < 0 || d >= ceil {
				t.Fatalf("attempt %d delay %v outside [0, %v)", a, d, ceil)
			}
		}
	}
	// Deterministic given the RNG seed.
	a, b := xrand.New(42), xrand.New(42)
	for i := 1; i < 32; i++ {
		if retryDelay(a, i) != retryDelay(b, i) {
			t.Fatalf("delay diverged at attempt %d", i)
		}
	}
}

// TestRetryDelayAllocFree: computing a backoff must not allocate — the
// retry loop runs on the transaction hot path.
func TestRetryDelayAllocFree(t *testing.T) {
	rng := xrand.New(1)
	attempt := 0
	allocs := testing.AllocsPerRun(1000, func() {
		attempt++
		_ = retryDelay(rng, attempt%64+1)
	})
	if allocs != 0 {
		t.Fatalf("Delay allocates %.1f per call, want 0", allocs)
	}
}
