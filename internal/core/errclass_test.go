package core

// Regression tests for the abort-class taxonomy the abortclass analyzer
// enforces statically: every error the engine mints must be classifiable
// with errors.Is against a package sentinel, so harness workers and retry
// policies can tell misuse from conflict from corruption.

import (
	"errors"
	"testing"

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

	// The partition-fault API on an engine without PartitionWAL (here: no
	// log at all) is misuse, never a nil dereference; a frontier query has no
	// error to return and answers "no frontier".
	if err := e.QuarantinePartition(0); !errors.Is(err, ErrInvalidUsage) {
		t.Fatalf("QuarantinePartition without PartitionWAL = %v, want ErrInvalidUsage", err)
	}
	if _, err := (&Checkpointer{e: e}).RecoverPartition(0, nil); !errors.Is(err, ErrInvalidUsage) {
		t.Fatalf("RecoverPartition without PartitionWAL = %v, want ErrInvalidUsage", err)
	}
	if got := e.PartitionFrontier(0); got != 0 {
		t.Fatalf("PartitionFrontier without PartitionWAL = %d, want 0", got)
	}
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
