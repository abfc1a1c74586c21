package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"next700/internal/storage"
	"next700/internal/txn"
)

// TestAddIndexBackfill: AddIndex after Load must index the existing rows
// (it used to come up silently empty), skipping tombstones.
func TestAddIndexBackfill(t *testing.T) {
	e := openEngine(t, Config{Protocol: "SILO", Threads: 1})
	tbl := kvTable(t, e, "bf", IndexHash, 10)
	tx := e.NewTx(0, 1)
	if err := tx.Run(func(tx *Tx) error { return tx.Delete(tbl, 3) }); err != nil {
		t.Fatal(err)
	}

	if err := e.AddIndex(tbl, "mirror", IndexBTree,
		func(_ *storage.Schema, _ storage.Row, pk uint64) uint64 { return pk + 100 }); err != nil {
		t.Fatal(err)
	}
	if err := tx.Run(func(tx *Tx) error {
		for k := uint64(0); k < 10; k++ {
			row, err := tx.LookupIndex(tbl, "mirror", k+100)
			if k == 3 {
				if !errors.Is(err, txn.ErrNotFound) {
					return fmt.Errorf("deleted pk 3 present in backfilled index: %v", err)
				}
				continue
			}
			if err != nil {
				return fmt.Errorf("pk %d missing from backfilled index: %v", k, err)
			}
			_ = row
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// A unique-key conflict during backfill must surface as an error, not a
	// silently partial index.
	err := e.AddIndex(tbl, "collide", IndexHash,
		func(_ *storage.Schema, _ storage.Row, _ uint64) uint64 { return 7 })
	if err == nil {
		t.Fatal("duplicate-key backfill succeeded; want error")
	}
}

// TestAddIndexBackfillCommittedImage: the backfill indexes each row under
// the key of its committed image, so a row updated and a row inserted by
// committed transactions are both found.
func TestAddIndexBackfillCommittedImage(t *testing.T) {
	forAllProtocols(t, func(t *testing.T, protocol string) {
		e := openEngine(t, Config{Protocol: protocol, Threads: 1, Partitions: 2})
		tbl := kvTable(t, e, "kv", IndexHash, 4)
		tx := e.NewTx(0, 1)
		if err := setKey(tx, tbl, 2, 5); err != nil {
			t.Fatal(err)
		}
		if err := tx.Run(func(tx *Tx) error {
			row := tbl.Schema().NewRow()
			setV(tbl, row, 9)
			return tx.Insert(tbl, 10, row)
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.AddIndex(tbl, "by_v", IndexBTree, func(_ *storage.Schema, row storage.Row, pk uint64) uint64 {
			return uint64(getV(tbl, row))<<32 | pk
		}); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			pk uint64
			v  int64
		}{{0, 0}, {2, 5}, {10, 9}} {
			if err := tx.Run(func(tx *Tx) error {
				row, err := tx.LookupIndex(tbl, "by_v", uint64(c.v)<<32|c.pk)
				if err != nil {
					return err
				}
				if got := getV(tbl, row); got != c.v {
					return fmt.Errorf("v = %d, want %d", got, c.v)
				}
				return nil
			}); err != nil {
				t.Fatalf("pk %d by_v %d: %v", c.pk, c.v, err)
			}
		}
	})
}

// TestScanScratchBounded: a scan collects one chunk of index entries at a
// time, so however many rows it visits, in either direction, the scratch the
// Tx keeps stays within one chunk, and small scans keep reusing it.
func TestScanScratchBounded(t *testing.T) {
	e := openEngine(t, Config{Protocol: "SILO", Threads: 1})
	const rows = 5000 + scanChunk/2
	tbl := kvTable(t, e, "big", IndexBTree, rows)
	tx := e.NewTx(0, 1)
	var scratch *uint64

	for _, desc := range []bool{false, true} {
		n, prev := 0, uint64(0)
		if err := tx.Run(func(tx *Tx) error {
			n = 0
			return tx.scan(tbl, 0, rows, desc, func(key uint64, _ storage.Row) bool {
				if n > 0 && (key > prev) != !desc {
					t.Fatalf("desc=%v: key %d after %d", desc, key, prev)
				}
				n, prev = n+1, key
				return true
			})
		}); err != nil {
			t.Fatal(err)
		}
		if n != rows {
			t.Fatalf("desc=%v: scan saw %d rows, want %d", desc, n, rows)
		}
		if cap(tx.scanKeys) > scanChunk || cap(tx.scanRIDs) > scanChunk {
			t.Fatalf("desc=%v: scan scratch caps %d/%d, want <= %d",
				desc, cap(tx.scanKeys), cap(tx.scanRIDs), scanChunk)
		}
		if scratch == nil {
			scratch = &tx.scanKeys[:1][0]
		} else if &tx.scanKeys[:1][0] != scratch {
			t.Fatalf("desc=%v: scan scratch reallocated", desc)
		}
	}
}

// TestTxReuseImageStability: a row image handed to the transaction body
// must stay intact for the whole body even though the reused Tx recycles
// its arena and access slots across transactions — later reads and writes
// within the same transaction must not scribble over it.
func TestTxReuseImageStability(t *testing.T) {
	forAllProtocols(t, func(t *testing.T, protocol string) {
		e := openEngine(t, Config{Protocol: protocol, Threads: 1})
		tbl := kvTable(t, e, "alias", IndexHash, 16)
		tx := e.NewTx(0, 99)
		for round := int64(1); round <= 50; round++ {
			if err := tx.Run(func(tx *Tx) error {
				row, err := tx.Read(tbl, 0)
				if err != nil {
					return err
				}
				if got := getV(tbl, row); got != round-1 {
					return fmt.Errorf("round %d: key 0 reads %d", round, got)
				}
				snap := append([]byte(nil), row...)
				// Churn the arena: read and update every other key.
				for k := uint64(1); k < 16; k++ {
					r, err := tx.Update(tbl, k)
					if err != nil {
						return err
					}
					setV(tbl, r, round*100+int64(k))
				}
				if !bytes.Equal([]byte(row), snap) {
					return fmt.Errorf("round %d: key 0 image mutated under the body", round)
				}
				// Finally write key 0 so the next round observes the bump.
				r, err := tx.Update(tbl, 0)
				if err != nil {
					return err
				}
				setV(tbl, r, round)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		// Committed state reflects the last round for every key.
		if err := tx.Run(func(tx *Tx) error {
			for k := uint64(1); k < 16; k++ {
				row, err := tx.Read(tbl, k)
				if err != nil {
					return err
				}
				if got := getV(tbl, row); got != 50*100+int64(k) {
					return fmt.Errorf("key %d committed %d", k, got)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}
