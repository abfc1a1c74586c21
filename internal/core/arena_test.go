package core

import (
	"testing"
)

// TestArenaOnlyUnderInPlaceProtocols: the table arena belongs to the
// protocols that install writes in place. Under SILO (slot words) and MVCC
// (version chains) no path of the engine — load, insert, delete, checkpoint,
// partition clear, checkpoint apply and log replay, live or at reboot —
// makes an arena chunk; under every other protocol each chunk the record ids
// span exists, and the recovered engine reaches the source's state.
func TestArenaOnlyUnderInPlaceProtocols(t *testing.T) {
	const parts, n, chunkRows = 2, 1 << 17, 1 << 16
	forAllProtocols(t, func(t *testing.T, protocol string) {
		inPlace := protocol != "SILO" && protocol != "MVCC"
		tweak := func(cfg *Config) { cfg.Protocol = protocol }
		wantChunks := func(tbl *Table, stage string) {
			t.Helper()
			want := 0
			if inPlace {
				want = int((tbl.NumRows() + chunkRows - 1) / chunkRows)
			}
			if got := tbl.tbl.ArenaChunks(); got != want {
				t.Fatalf("after %s: %d arena chunks over %d record ids, want %d", stage, got, tbl.NumRows(), want)
			}
		}
		e, store, ck, tbl := partStore(t, parts, n, tweak)
		wantChunks(tbl, "load")

		tx := e.NewTx(0, 1)
		churn := func(base uint64) {
			t.Helper()
			for i := uint64(0); i < 8; i++ {
				if err := tx.Run(func(tx *Tx) error {
					row := tbl.Schema().NewRow()
					setV(tbl, row, int64(base+i))
					if err := tx.Insert(tbl, n+base+i, row); err != nil {
						return err
					}
					upd, err := tx.Update(tbl, base+i+100)
					if err != nil {
						return err
					}
					setV(tbl, upd, int64(i))
					return tx.Delete(tbl, base+i)
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		churn(0)
		wantChunks(tbl, "insert, update and delete")
		if err := ck.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
		churn(8)
		if err := e.QuarantinePartition(1); err != nil {
			t.Fatal(err)
		}
		if _, err := ck.RecoverPartition(1, nil); err != nil {
			t.Fatal(err)
		}
		wantChunks(tbl, "partition clear, checkpoint apply and tail replay")
		want := e.StateDigest()

		surv := crash(t, e, store)
		att, err := AttachCheckpointLog(surv)
		if err != nil {
			t.Fatal(err)
		}
		r, rtbl := partOpen(t, att, parts, 0, tweak)
		if _, err := r.RecoverFromStore(surv, att, partZeroLoad(r, rtbl, parts, n, -1)); err != nil {
			t.Fatal(err)
		}
		wantChunks(rtbl, "reboot from checkpoint and log")
		if r.StateDigest() != want {
			t.Fatal("recovered state digest differs from the source's")
		}
	})
}
