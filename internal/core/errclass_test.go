package core

// Regression tests for the abort-class taxonomy the abortclass analyzer
// enforces statically: every error the engine mints must be classifiable
// with errors.Is against a package sentinel, so harness workers and retry
// policies can tell misuse from conflict from corruption. Terminal classes
// must also reach the caller after one attempt, without a retry.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"next700/internal/stats"
	"next700/internal/storage"
	"next700/internal/txn"
	"next700/internal/wal"
)

func TestInvalidUsageClass(t *testing.T) {
	// Config validation: a logging mode without a device.
	if _, err := Open(Config{Protocol: "SILO", Threads: 1, LogMode: wal.ModeValue}); !errors.Is(err, ErrInvalidUsage) {
		t.Fatalf("Open with LogMode but no LogDevice = %v, want ErrInvalidUsage", err)
	}

	e := openEngine(t, Config{Protocol: "SILO", Threads: 1})
	tbl := kvTable(t, e, "kv", IndexHash, 4)

	if err := e.NewTx(0, 1).RunProc(99, nil); !errors.Is(err, ErrInvalidUsage) {
		t.Fatalf("unknown proc = %v, want ErrInvalidUsage", err)
	}
	if err := e.NewTx(0, 2).Run(func(tx *Tx) error {
		bad := make(storage.Row, tbl.Schema().RowSize()+1)
		return tx.Insert(tbl, 100, bad)
	}); !errors.Is(err, ErrInvalidUsage) {
		t.Fatalf("insert with wrong row size = %v, want ErrInvalidUsage", err)
	}
	if err := e.NewTx(0, 3).Run(func(tx *Tx) error {
		_, err := tx.LookupIndex(tbl, "nope", 1)
		return err
	}); !errors.Is(err, ErrInvalidUsage) {
		t.Fatalf("lookup on missing index = %v, want ErrInvalidUsage", err)
	}
	if err := e.RegisterProc(0, func(tx *Tx, params []byte) error { return nil }); !errors.Is(err, ErrInvalidUsage) {
		t.Fatalf("proc id 0 = %v, want ErrInvalidUsage", err)
	}

	// A frontier query on an engine without PartitionWAL has no error to
	// return and answers "no frontier".
	if got := e.PartitionFrontier(0); got != 0 {
		t.Fatalf("PartitionFrontier without PartitionWAL = %d, want 0", got)
	}
}

// TestInvalidUsageTable checks every ErrInvalidUsage return of the setup
// API — Config validation, the checkpointer, the partition-fault calls and
// the deterministic executor — with errors.Is: a message that formats the
// class with %v instead of wrapping it with %w fails here.
func TestInvalidUsageTable(t *testing.T) {
	devs := func(n int) []wal.Device {
		out := make([]wal.Device, n)
		for i := range out {
			out[i] = &memDevice{}
		}
		return out
	}
	// partitioned is a valid PartitionWAL configuration each case may bend.
	partitioned := func() Config {
		return Config{Protocol: "SILO", Threads: 2, Partitions: 2, LogMode: wal.ModeValue,
			WALStreams: 2, LogDevices: devs(2), PartitionWAL: true}
	}
	plain := openEngine(t, Config{Protocol: "SILO", Threads: 1})
	logged := openEngine(t, Config{Protocol: "SILO", Threads: 1, LogMode: wal.ModeValue, LogDevice: &memDevice{}})
	part := openEngine(t, partitioned())
	openDet := func(t *testing.T, cfg Config) error {
		e := openEngine(t, cfg)
		x, err := NewDetExecutor(e, nil)
		if err == nil {
			x.Close()
		}
		return err
	}

	cases := []struct {
		name string
		run  func(t *testing.T) error
	}{
		{"normalize/WALStreams without a log", func(*testing.T) error {
			return (&Config{WALStreams: 2}).normalize()
		}},
		{"normalize/LogMode without a device", func(*testing.T) error {
			return (&Config{LogMode: wal.ModeValue}).normalize()
		}},
		{"normalize/WALStreams != LogDevices", func(*testing.T) error {
			return (&Config{LogMode: wal.ModeValue, WALStreams: 3, LogDevices: devs(2)}).normalize()
		}},
		{"normalize/PartitionWAL on one stream", func(*testing.T) error {
			return (&Config{LogMode: wal.ModeValue, LogDevice: &memDevice{}, PartitionWAL: true}).normalize()
		}},
		{"normalize/PartitionWAL with command logging", func(*testing.T) error {
			c := partitioned()
			c.LogMode = wal.ModeCommand
			return c.normalize()
		}},
		{"normalize/PartitionWAL streams != partitions", func(*testing.T) error {
			c := partitioned()
			c.Partitions = 3
			return c.normalize()
		}},
		{"normalize/PartitionWAL over 64 partitions", func(*testing.T) error {
			c := partitioned()
			c.Partitions, c.WALStreams, c.LogDevices = 65, 65, devs(65)
			return c.normalize()
		}},
		{"NewCheckpointer/no log", func(*testing.T) error {
			_, err := plain.NewCheckpointer(nil, 0, nil)
			return err
		}},
		{"NewCheckpointer/device count", func(*testing.T) error {
			_, err := logged.NewCheckpointer(nil, 0, devs(2))
			return err
		}},
		{"RecoverPartition/no PartitionWAL", func(*testing.T) error {
			_, err := (&Checkpointer{e: plain}).RecoverPartition(0, nil)
			return err
		}},
		{"RecoverPartition/out of range", func(*testing.T) error {
			_, err := (&Checkpointer{e: part}).RecoverPartition(2, nil)
			return err
		}},
		{"RecoverPartition/negative", func(*testing.T) error {
			_, err := (&Checkpointer{e: part}).RecoverPartition(-1, nil)
			return err
		}},
		{"RecoverPartition/not quarantined", func(*testing.T) error {
			_, err := (&Checkpointer{e: part}).RecoverPartition(0, nil)
			return err
		}},
		{"QuarantinePartition/no PartitionWAL", func(*testing.T) error {
			return plain.QuarantinePartition(0)
		}},
		{"QuarantinePartition/out of range", func(*testing.T) error {
			return part.QuarantinePartition(2)
		}},
		{"QuarantinePartition/negative", func(*testing.T) error {
			return part.QuarantinePartition(-1)
		}},
		{"NewDetExecutor/not QSTORE", func(t *testing.T) error {
			return openDet(t, Config{Protocol: "SILO", Threads: 1})
		}},
		{"NewDetExecutor/too many partitions", func(t *testing.T) error {
			return openDet(t, Config{Protocol: "QSTORE", Threads: 1, Partitions: maxDetPartitions + 1})
		}},
		{"NewDetExecutor/fewer threads than partitions", func(t *testing.T) error {
			return openDet(t, Config{Protocol: "QSTORE", Threads: 1, Partitions: 2})
		}},
		{"NewDetExecutor/command logging", func(t *testing.T) error {
			return openDet(t, Config{Protocol: "QSTORE", Threads: 1, LogMode: wal.ModeCommand, LogDevice: &memDevice{}})
		}},
		{"NewDetExecutor/PartitionWAL", func(t *testing.T) error {
			c := partitioned()
			c.Protocol = "QSTORE"
			return openDet(t, c)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(t); !errors.Is(err, ErrInvalidUsage) {
				t.Fatalf("err = %v, want ErrInvalidUsage", err)
			}
		})
	}
}

// TestTerminalAbortsRunOnce checks the retry loop's accounting for each
// terminal abort class: Run returns the class after at most one attempt of
// the body, Counter.Aborts (retried transient aborts) does not move, and
// the class's own counter rises by exactly one. A loop that retried a
// terminal class would show here as a second attempt or as one abort too
// many, even where the next attempt's expiry check hides it otherwise.
func TestTerminalAbortsRunOnce(t *testing.T) {
	errAgain := errors.New("terminal abort retried: body ran a second time")
	check := func(t *testing.T, tx *Tx, want error, class func(*stats.Counter) uint64, body func(tx *Tx) error) {
		t.Helper()
		c := tx.Counter()
		aborts, classBefore := c.Aborts, class(c)
		attempts := 0
		err := tx.Run(func(tx *Tx) error {
			attempts++
			if attempts > 1 {
				return errAgain
			}
			return body(tx)
		})
		if !errors.Is(err, want) {
			t.Fatalf("Run = %v, want %v", err, want)
		}
		if attempts > 1 {
			t.Fatalf("body ran %d times, want at most 1", attempts)
		}
		if got := c.Aborts - aborts; got != 0 {
			t.Fatalf("Counter.Aborts rose by %d, want 0 (terminal aborts are not retried)", got)
		}
		if got := class(c) - classBefore; got != 1 {
			t.Fatalf("class counter rose by %d, want 1", got)
		}
	}
	deadlineAborts := func(c *stats.Counter) uint64 { return c.DeadlineAborts }

	t.Run("DeadlinePast", func(t *testing.T) {
		e := openEngine(t, Config{Protocol: "SILO", Threads: 1})
		tx := e.NewTx(0, 1)
		tx.SetDeadline(time.Now().Add(-time.Second))
		check(t, tx, ErrDeadlineExceeded, deadlineAborts, func(*Tx) error { return nil })
	})

	t.Run("DeadlineBlockedAcquire", func(t *testing.T) {
		// DL_DETECT parks a waiter behind any holder while no cycle forms, so
		// the victim's deadline expires inside the blocked acquire.
		e := openEngine(t, Config{Protocol: "DL_DETECT", Threads: 2})
		tbl := kvTable(t, e, "kv", IndexHash, 4)
		holding, release := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			var once sync.Once
			if err := e.NewTx(1, 2).Run(func(tx *Tx) error {
				if _, err := tx.Update(tbl, 0); err != nil {
					return err
				}
				once.Do(func() { close(holding) })
				<-release
				return nil
			}); err != nil {
				t.Errorf("holder: %v", err)
			}
		}()
		<-holding
		tx := e.NewTx(0, 1)
		tx.SetDeadlineAfter(20 * time.Millisecond)
		check(t, tx, ErrDeadlineExceeded, deadlineAborts, func(tx *Tx) error {
			_, err := tx.Update(tbl, 0)
			return err
		})
		close(release)
		wg.Wait()
	})

	t.Run("UserAbort", func(t *testing.T) {
		e := openEngine(t, Config{Protocol: "SILO", Threads: 1})
		check(t, e.NewTx(0, 1), txn.ErrUserAbort,
			func(c *stats.Counter) uint64 { return c.UserAborts },
			func(*Tx) error { return txn.ErrUserAbort })
	})

	t.Run("PartitionUnavailable", func(t *testing.T) {
		e, _, tbl := partEngine(t, 2, 8, nil)
		if err := e.QuarantinePartition(1); err != nil {
			t.Fatal(err)
		}
		// Key 1 lives in partition 1.
		check(t, e.NewTx(0, 1), ErrPartitionUnavailable,
			func(c *stats.Counter) uint64 { return c.PartitionAborts },
			func(tx *Tx) error {
				_, err := tx.Update(tbl, 1)
				return err
			})
	})
}

func TestLoadDuplicateClass(t *testing.T) {
	e := openEngine(t, Config{Protocol: "SILO", Threads: 1})
	tbl := kvTable(t, e, "kv", IndexHash, 4) // loads keys 0..3
	if err := e.Load(tbl, 0, tbl.Schema().NewRow()); !errors.Is(err, txn.ErrDuplicate) {
		t.Fatalf("duplicate load = %v, want txn.ErrDuplicate", err)
	}
}

// TestRecoveryUnknownTableIsCorruption replays a healthy log into an engine
// whose schema lost the logged table: the log and the schema diverged, which
// is classified as log corruption.
func TestRecoveryUnknownTableIsCorruption(t *testing.T) {
	dev := &memDevice{}
	e := openEngine(t, Config{Protocol: "SILO", Threads: 1, LogMode: wal.ModeValue, LogDevice: dev})
	tbl := kvTable(t, e, "kv", IndexHash, 2)
	if err := e.NewTx(0, 1).Run(func(tx *Tx) error {
		row, err := tx.Update(tbl, 0)
		if err != nil {
			return err
		}
		setV(tbl, row, 42)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	e.Close()

	e2 := openEngine(t, Config{Protocol: "SILO", Threads: 1, LogMode: wal.ModeValue, LogDevice: &memDevice{}})
	if _, err := e2.Recover(dev.reader()); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("recovery with missing table = %v, want wal.ErrCorrupt", err)
	}
}
