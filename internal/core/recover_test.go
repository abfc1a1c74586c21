package core

import (
	"bytes"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"next700/internal/fault"
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

// TestRecoverRaisesEpoch: an engine that recovers a log and then appends to
// it must tag its commits above every replayed epoch. Otherwise a commit
// after the first recovery sorts below the writes it overwrote when both
// incarnations are recovered together, and an acknowledged commit is lost.
func TestRecoverRaisesEpoch(t *testing.T) {
	forAllProtocols(t, func(t *testing.T, protocol string) {
		const keys = 5
		dev := &memDevice{}
		build := func(d wal.Device) (*Engine, *Table) {
			e := openEngine(t, Config{Protocol: protocol, Threads: 1, LogMode: wal.ModeValue, LogDevice: d})
			return e, kvTable(t, e, "kv", IndexHash, keys)
		}
		set := func(e *Engine, tbl *Table, k uint64, v int64) {
			t.Helper()
			if err := e.NewTx(0, 1).Run(func(tx *Tx) error {
				row, err := tx.Update(tbl, k)
				if err == nil {
					setV(tbl, row, v)
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		want := make([]int64, keys)
		recoverInto := func(d wal.Device) (*Engine, *Table, RecoveryStats) {
			t.Helper()
			e, tbl := build(d)
			rs, err := e.Recover(dev.reader())
			if err != nil {
				t.Fatal(err)
			}
			if err := e.NewTx(0, 2).Run(func(tx *Tx) error {
				for k, v := range want {
					row, err := tx.Read(tbl, uint64(k))
					if err != nil {
						return err
					}
					if got := getV(tbl, row); got != v {
						t.Fatalf("key %d = %d after recovery, want %d", k, got, v)
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			return e, tbl, rs
		}

		e, tbl := build(dev)
		for n := 0; n < 50; n++ {
			want[n%keys] = int64(1000 + n)
			set(e, tbl, uint64(n%keys), want[n%keys])
		}
		e.Close()

		// The second incarnation appends to the log it recovered.
		e, tbl, first := recoverInto(dev)
		want[4] = 7000
		set(e, tbl, 4, want[4])
		e.Close()

		// Both incarnations, recovered together.
		_, _, both := recoverInto(&memDevice{})
		if both.Records != first.Records+1 || both.MaxEpoch <= first.MaxEpoch {
			t.Fatalf("second recovery %+v after first %+v", both, first)
		}
	})
}

// TestStoreRecoveryCountsTornTail: store-based recovery ends an active
// segment at its torn tail and reports the discarded bytes in TornBytes, as
// reader-based recovery does.
func TestStoreRecoveryCountsTornTail(t *testing.T) {
	store := fault.NewMemStore(fault.StoreChaos{})
	e, att := sliceEngine(t, store, "SILO", 0, true)
	tbl := kvTable(t, e, "kv", IndexHash, 4)
	if err := setKey(e.NewTx(0, 1), tbl, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Half a frame header: the crash cut the next record off mid-write.
	if _, err := att.Devices[0].Write([]byte{9, 0, 0}); err != nil {
		t.Fatal(err)
	}
	r, att2 := sliceEngine(t, store, "SILO", 0, false)
	rtbl := kvTable(t, r, "kv", IndexHash, 4)
	rs, err := r.RecoverFromStore(store, att2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.TornBytes != 3 {
		t.Fatalf("TornBytes = %d, want the 3 trimmed bytes", rs.TornBytes)
	}
	wantValues(t, r, rtbl, map[uint64]int64{0: 0, 1: 5, 2: 0, 3: 0})
}

// TestEpochGateOrdersDependentCommits pins why the commit fence is the log's
// epoch gate (SetEpochGate in Open). Two workers on two thread-affinity
// streams increment one SILO counter, so each commit reads the value the
// other's last commit published, and their commit waits drive the epoch
// bumps. Value replay orders a record's after-images by (epoch, txnID),
// epoch-major. If a bump could land between a commit's publication and its
// append, a later increment could tag below the one it read, replay would
// apply the older image last, and the recovered count would fall short.
func TestEpochGateOrdersDependentCommits(t *testing.T) {
	const workers = 2
	open := func(devs []wal.Device) (*Engine, *Table) {
		e := openEngine(t, Config{Protocol: "SILO", Threads: workers, LogMode: wal.ModeValue, WALStreams: workers, LogDevices: devs})
		return e, kvTable(t, e, "ctr", IndexHash, 1)
	}
	mems := []*memDevice{{}, {}}
	e, tbl := open([]wal.Device{mems[0], mems[1]})
	incr := func(tx *Tx) error {
		row, err := tx.Update(tbl, 0)
		if err != nil {
			return err
		}
		setV(tbl, row, getV(tbl, row)+1)
		return nil
	}
	var committed [workers]int64
	var errs [workers]error
	var wg sync.WaitGroup
	deadline := time.Now().Add(500 * time.Millisecond)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx := e.NewTx(w, uint64(w)+1)
			for time.Now().Before(deadline) {
				if errs[w] = tx.Run(incr); errs[w] != nil {
					return
				}
				committed[w]++
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	epochs := e.DurableEpoch()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	want := committed[0] + committed[1]

	r, rtbl := open([]wal.Device{&memDevice{}, &memDevice{}})
	if _, err := r.RecoverStreams([]io.Reader{mems[0].reader(), mems[1].reader()}); err != nil {
		t.Fatal(err)
	}
	if err := r.NewTx(0, 1).Run(func(tx *Tx) error {
		row, err := tx.Read(rtbl, 0)
		if err != nil {
			return err
		}
		if got := getV(rtbl, row); got != want {
			t.Errorf("recovered count %d, want the %d committed increments", got, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d committed increments over %d epochs", want, epochs)
}
