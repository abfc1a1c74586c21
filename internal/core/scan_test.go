package core

import (
	"testing"

	"next700/internal/storage"
	"next700/internal/txn"
)

// TestScanEarlyStopReadsOneRow: a scan whose fn stops at the first row it
// sees reads that row and no other — exactly one read access — however long
// the range, because rows are read one at a time after each chunk is
// collected, not all before fn runs.
func TestScanEarlyStopReadsOneRow(t *testing.T) {
	forAllProtocols(t, func(t *testing.T, protocol string) {
		e := openEngine(t, Config{Protocol: protocol, Threads: 1})
		tbl := kvTable(t, e, "kv", IndexBTree, 4*scanChunk)
		tx := e.NewTx(0, 1)
		for _, desc := range []bool{false, true} {
			if err := tx.Run(func(tx *Tx) error {
				before := len(tx.inner.Accesses)
				var seen []uint64
				if err := tx.scan(tbl, 0, 4*scanChunk, desc, func(key uint64, _ storage.Row) bool {
					seen = append(seen, key)
					return false
				}); err != nil {
					return err
				}
				want := uint64(0)
				if desc {
					want = 4*scanChunk - 1
				}
				if len(seen) != 1 || seen[0] != want {
					t.Fatalf("desc=%v: fn saw %v, want [%d]", desc, seen, want)
				}
				added := tx.inner.Accesses[before:]
				if len(added) != 1 || added[0].Kind != txn.KindRead {
					t.Fatalf("desc=%v: early-stopped scan added %d accesses, want one read", desc, len(added))
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestScanAcrossChunks: a scan over more than three chunks of live rows,
// with every third row deleted before it and a row inserted by the scanning
// transaction into a later chunk's range while the first chunk is being
// read, returns every live key exactly once and in order, ascending and
// descending.
func TestScanAcrossChunks(t *testing.T) {
	const rows = 5 * scanChunk
	// Loaded keys are even, so the scanning transaction can insert an odd
	// one ahead of the scan: near the top ascending, near the bottom
	// descending.
	key := func(i int) uint64 { return uint64(2 * i) }
	forAllProtocols(t, func(t *testing.T, protocol string) {
		for _, desc := range []bool{false, true} {
			e := openEngine(t, Config{Protocol: protocol, Threads: 1})
			tbl := kvTable(t, e, "kv", IndexBTree, 0)
			row := tbl.Schema().NewRow()
			for i := 0; i < rows; i++ {
				if err := e.Load(tbl, key(i), row); err != nil {
					t.Fatal(err)
				}
			}
			tx := e.NewTx(0, 1)
			if err := tx.Run(func(tx *Tx) error {
				for i := 0; i < rows; i += 3 {
					if err := tx.Delete(tbl, key(i)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			inserted := key(rows-3) + 1
			if desc {
				inserted = key(1) + 1
			}
			var want []uint64
			for i := 0; i < rows; i++ {
				if i%3 != 0 {
					want = append(want, key(i))
				}
				if key(i)+1 == inserted {
					want = append(want, inserted)
				}
			}
			if desc {
				for i, j := 0, len(want)-1; i < j; i, j = i+1, j-1 {
					want[i], want[j] = want[j], want[i]
				}
			}
			var got []uint64
			if err := tx.Run(func(tx *Tx) error {
				got = got[:0]
				return tx.scan(tbl, 0, key(rows), desc, func(k uint64, _ storage.Row) bool {
					if len(got) == 0 {
						if err := tx.Insert(tbl, inserted, row); err != nil {
							t.Fatalf("insert between chunks: %v", err)
						}
					}
					got = append(got, k)
					return true
				})
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("desc=%v: scan returned %d keys, want %d", desc, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("desc=%v: key %d is %d, want %d", desc, i, got[i], want[i])
				}
			}
		}
	})
}
