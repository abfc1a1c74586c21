package core

import (
	"testing"
	"time"

	"next700/internal/wal"
)

// TestQuiesceGateOnlyWhereWritten: an engine takes the attempt gate only
// where a writer of it can exist. With no log (and with value logging on
// one stream set) nothing ever takes the write side, so a transaction
// commits while the write side is held; under PartitionWAL RecoverPartition
// drains through it, so a transaction waits behind it and commits once it
// is released.
func TestQuiesceGateOnlyWhereWritten(t *testing.T) {
	for _, c := range []struct {
		cfg   Config
		gated bool
	}{
		{Config{}, false},
		{Config{LogMode: wal.ModeValue, LogDevice: &memDevice{}}, false},
		{Config{LogMode: wal.ModeCommand, LogDevice: &memDevice{}}, true},
		{Config{LogMode: wal.ModeValue, Partitions: 2, WALStreams: 2,
			LogDevices: []wal.Device{&memDevice{}, &memDevice{}}, PartitionWAL: true}, true},
	} {
		if e := openEngine(t, c.cfg); e.gated != c.gated {
			t.Errorf("LogMode %v, PartitionWAL %v: gated %v, want %v", c.cfg.LogMode, c.cfg.PartitionWAL, e.gated, c.gated)
		}
	}

	// commitBehind runs one transaction while the test holds the write side
	// and reports whether it committed before wait ran out; the write side
	// is then released and the transaction must commit.
	commitBehind := func(t *testing.T, e *Engine, tbl *Table, wait time.Duration) bool {
		t.Helper()
		done := make(chan error, 1)
		e.quiesce.Lock()
		go func() { done <- setKey(e.NewTx(0, 1), tbl, 0, 7) }()
		var early bool
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			early = true
		case <-time.After(wait):
		}
		e.quiesce.Unlock()
		if !early {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		return early
	}

	t.Run("none", func(t *testing.T) {
		e := openEngine(t, Config{Protocol: "SILO"})
		if !commitBehind(t, e, kvTable(t, e, "kv", IndexHash, 4), 10*time.Second) {
			t.Fatal("an ungated engine's transaction waited for the quiesce gate")
		}
	})
	t.Run("PartitionWAL", func(t *testing.T) {
		e, _, tbl := partEngine(t, 2, 4, nil)
		if commitBehind(t, e, tbl, 100*time.Millisecond) {
			t.Fatal("a PartitionWAL transaction committed while the quiesce gate was held")
		}
	})
}
