package core

import (
	"testing"

	"next700/internal/wal"
)

// TestStateDigestSeesCommittedState: the digest reads each record's
// committed image from the protocol that owns it, so a committed update,
// insert and delete each move it, and value-log recovery reproduces it.
func TestStateDigestSeesCommittedState(t *testing.T) {
	forAllProtocols(t, func(t *testing.T, protocol string) {
		dev := &memDevice{}
		build := func() (*Engine, *Table) {
			e := openEngine(t, Config{Protocol: protocol, Threads: 1, LogMode: wal.ModeValue, LogDevice: dev})
			return e, kvTable(t, e, "kv", IndexHash, 8)
		}
		e, tbl := build()
		steps := []struct {
			name string
			body func(tx *Tx) error
		}{
			{"update", func(tx *Tx) error {
				row, err := tx.Update(tbl, 3)
				if err != nil {
					return err
				}
				setV(tbl, row, 42)
				return nil
			}},
			{"insert", func(tx *Tx) error {
				row := tbl.Schema().NewRow()
				setV(tbl, row, 7)
				return tx.Insert(tbl, 100, row)
			}},
			{"delete", func(tx *Tx) error { return tx.Delete(tbl, 5) }},
		}
		tx := e.NewTx(0, 1)
		digest := e.StateDigest()
		for _, st := range steps {
			if err := tx.Run(st.body); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			next := e.StateDigest()
			if next == digest {
				t.Fatalf("committed %s left the digest unchanged", st.name)
			}
			digest = next
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}

		e2, _ := build()
		if _, err := e2.Recover(dev.reader()); err != nil {
			t.Fatal(err)
		}
		if got := e2.StateDigest(); got != digest {
			t.Fatalf("recovered digest %x, want the source's %x", got[:8], digest[:8])
		}
	})
}
