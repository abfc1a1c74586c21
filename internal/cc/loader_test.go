package cc

import (
	"bytes"
	"testing"

	"next700/internal/storage"
	"next700/internal/txn"
)

// TestLoaderContract: every protocol owns its records' committed images
// through Loader. A loaded image reads back, a nil load reads as absent,
// and Committed follows a committed update and a committed delete, whose
// access carries the deleted image.
func TestLoaderContract(t *testing.T) {
	for _, name := range append(Names(), "QSTORE") {
		t.Run(name, func(t *testing.T) {
			p, err := New(name, NewEnv(1))
			if err != nil {
				t.Fatal(err)
			}
			sch := storage.MustSchema("rows", storage.I64("a"), storage.Str("s", 13))
			tbl := storage.NewTable(sch, 0)
			image := func(a int64) []byte {
				row := sch.NewRow()
				sch.SetInt64(row, 0, a)
				sch.SetString(row, 1, []byte("committed"))
				return row
			}
			committed := func(rid storage.RecordID, want []byte) {
				t.Helper()
				got, ok := p.Committed(tbl, rid)
				switch {
				case want == nil && ok:
					t.Fatalf("rid %d: Committed = %x, want absent", rid, got)
				case want != nil && !ok:
					t.Fatalf("rid %d: Committed reads absent, want %x", rid, want)
				case want != nil && !bytes.Equal(got, want):
					t.Fatalf("rid %d: Committed = %x, want %x", rid, got, want)
				}
			}

			live, gone := tbl.Alloc(), tbl.Alloc()
			p.LoadRecord(tbl, live, 0, image(1))
			p.LoadRecord(tbl, gone, 1, image(2))
			committed(live, image(1))
			committed(gone, image(2))
			p.LoadRecord(tbl, gone, 1, nil)
			committed(gone, nil)

			tx := newTxnFor(0)
			p.Begin(tx)
			buf, err := p.ReadForUpdate(tx, tbl, live)
			if err != nil {
				t.Fatal(err)
			}
			copy(buf, image(3))
			if err := p.Commit(tx); err != nil {
				t.Fatal(err)
			}
			committed(live, image(3))

			tx.Reset()
			tx.ClearPriority()
			p.Begin(tx)
			if err := p.RegisterDelete(tx, tbl, live, 0); err != nil {
				t.Fatal(err)
			}
			if w := tx.FindWrite(tbl, live); w == nil || w.Kind != txn.KindDelete || !bytes.Equal(w.Data, image(3)) {
				t.Fatalf("delete access = %+v, want the deleted image %x", w, image(3))
			}
			if err := p.Commit(tx); err != nil {
				t.Fatal(err)
			}
			committed(live, nil)
		})
	}
}
