package core

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"next700/internal/wal"
)

// TestRecoverEntryPointsAgree: Recover(r) and RecoverStreams([r]) are the
// same pipeline, so the same one-stream image must yield the identical
// state digest and RecoveryStats through either — for value and command
// logging, over an image the engine's own log wrote (epoch tags and markers)
// and over a hand-encoded marker-free one (the pre-epoch single-writer
// format, every Epoch zero), which must still replay in full.
func TestRecoverEntryPointsAgree(t *testing.T) {
	const keys, txns = 4, 10
	for _, mode := range []wal.Mode{wal.ModeValue, wal.ModeCommand} {
		build := func(d wal.Device) (*Engine, *Table) {
			e := openEngine(t, Config{Protocol: "NO_WAIT", Threads: 1, LogMode: mode, LogDevice: d})
			tbl := kvTable(t, e, "kv", IndexHash, keys)
			registerAddProc(t, e, tbl)
			return e, tbl
		}

		// The live image: ten committed increments, logged by the engine.
		dev := &memDevice{}
		e, tbl := build(dev)
		tx := e.NewTx(0, 1)
		for i := 0; i < txns; i++ {
			var err error
			if mode == wal.ModeCommand {
				err = tx.RunProc(1, addProcParams(uint64(i%keys), 10))
			} else {
				err = tx.Run(func(tx *Tx) error {
					row, err := tx.Update(tbl, uint64(i%keys))
					if err == nil {
						setV(tbl, row, getV(tbl, row)+10)
					}
					return err
				})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		e.Close()

		// The legacy image: the same ten increments, framed by hand with no
		// epoch tag and no marker.
		var legacy []byte
		row := tbl.Schema().NewRow()
		for i := 0; i < txns; i++ {
			k := uint64(i % keys)
			cr := wal.CommitRecord{TxnID: uint64(i + 1)}
			if mode == wal.ModeCommand {
				cr.Proc, cr.Params = 1, addProcParams(k, 10)
			} else {
				setV(tbl, row, int64(i/keys+1)*10)
				cr.Entries = []wal.Entry{{Kind: wal.EntryUpdate, Table: 0, RID: k, Key: k, Data: row}}
			}
			legacy = append(legacy, cr.Encode(nil)...)
		}

		for name, image := range map[string][]byte{"live": dev.bytes(), "legacy": legacy} {
			t.Run(mode.String()+"/"+name, func(t *testing.T) {
				e1, _ := build(&memDevice{})
				rs1, err := e1.Recover(bytes.NewReader(image))
				if err != nil {
					t.Fatal(err)
				}
				e2, _ := build(&memDevice{})
				rs2, err := e2.RecoverStreams([]io.Reader{bytes.NewReader(image)})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rs1, rs2) {
					t.Fatalf("stats differ:\nRecover        %+v\nRecoverStreams %+v", rs1, rs2)
				}
				if rs1.Records != txns || rs1.TruncatedRecords != 0 || rs1.SkippedOldEpoch != 0 {
					t.Fatalf("replayed %d of %d records (truncated %d, skipped %d)",
						rs1.Records, txns, rs1.TruncatedRecords, rs1.SkippedOldEpoch)
				}
				if d1, d2, want := e1.StateDigest(), e2.StateDigest(), e.StateDigest(); d1 != d2 || d1 != want {
					t.Fatalf("digests differ: Recover %x, RecoverStreams %x, source %x", d1, d2, want)
				}
			})
		}
	}
}
