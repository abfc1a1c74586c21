package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"next700/internal/cc"
	"next700/internal/storage"
	"next700/internal/testutil"
	"next700/internal/txn"
	"next700/internal/wal"
)

// memDevice is an in-memory wal.Device for recovery tests.
type memDevice struct {
	mu   sync.Mutex
	data []byte
}

func (d *memDevice) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.data = append(d.data, p...)
	return len(p), nil
}

func (d *memDevice) Sync() error { return nil }

func (d *memDevice) bytes() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]byte(nil), d.data...)
}

func (d *memDevice) reader() *bytes.Reader {
	d.mu.Lock()
	defer d.mu.Unlock()
	return bytes.NewReader(append([]byte(nil), d.data...))
}

func openEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// kvTable creates a simple key->int64 table loaded with n zero rows.
func kvTable(t testing.TB, e *Engine, name string, kind IndexKind, n int) *Table {
	t.Helper()
	sch := storage.MustSchema(name, storage.I64("v"))
	tbl, err := e.CreateTable(sch, kind)
	if err != nil {
		t.Fatal(err)
	}
	row := sch.NewRow()
	for i := 0; i < n; i++ {
		sch.SetInt64(row, 0, 0)
		if err := e.Load(tbl, uint64(i), row); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func getV(tbl *Table, row storage.Row) int64    { return tbl.Schema().GetInt64(row, 0) }
func setV(tbl *Table, row storage.Row, v int64) { tbl.Schema().SetInt64(row, 0, v) }

func forAllProtocols(t *testing.T, fn func(t *testing.T, protocol string)) {
	for _, p := range cc.Names() {
		t.Run(p, func(t *testing.T) { fn(t, p) })
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Open(Config{Protocol: "NOPE"}); err == nil {
		t.Fatal("bad protocol accepted")
	}
	if _, err := Open(Config{LogMode: wal.ModeValue}); err == nil {
		t.Fatal("logging without device accepted")
	}
	// A stall threshold does nothing without a partition-scope log.
	if _, err := Open(Config{LogMode: wal.ModeValue, LogDevice: &memDevice{}, QuarantineStall: time.Second}); !errors.Is(err, ErrInvalidUsage) {
		t.Fatalf("QuarantineStall without PartitionWAL: err=%v, want ErrInvalidUsage", err)
	}
	e := openEngine(t, Config{})
	if e.Protocol() != "SILO" {
		t.Fatalf("default protocol %q", e.Protocol())
	}
	if e.Config().Threads != 1 {
		t.Fatal("default threads")
	}
}

func TestEngineCRUD(t *testing.T) {
	forAllProtocols(t, func(t *testing.T, protocol string) {
		e := openEngine(t, Config{Protocol: protocol, Threads: 2, Partitions: 4})
		tbl := kvTable(t, e, "kv", IndexHash, 10)
		tx := e.NewTx(0, 1)

		// Update.
		if err := tx.Run(func(tx *Tx) error {
			row, err := tx.Update(tbl, 3)
			if err != nil {
				return err
			}
			setV(tbl, row, 42)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// Read back.
		if err := tx.Run(func(tx *Tx) error {
			row, err := tx.Read(tbl, 3)
			if err != nil {
				return err
			}
			if getV(tbl, row) != 42 {
				t.Fatalf("read %d", getV(tbl, row))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// Insert + read.
		if err := tx.Run(func(tx *Tx) error {
			row := tbl.Schema().NewRow()
			setV(tbl, row, 77)
			return tx.Insert(tbl, 100, row)
		}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Run(func(tx *Tx) error {
			row, err := tx.Read(tbl, 100)
			if err != nil {
				return err
			}
			if getV(tbl, row) != 77 {
				t.Fatalf("inserted value %d", getV(tbl, row))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// Duplicate insert fails.
		err := tx.Run(func(tx *Tx) error {
			return tx.Insert(tbl, 100, tbl.Schema().NewRow())
		})
		if !errors.Is(err, txn.ErrDuplicate) {
			t.Fatalf("duplicate insert: %v", err)
		}
		// Delete, then reads miss.
		if err := tx.Run(func(tx *Tx) error { return tx.Delete(tbl, 100) }); err != nil {
			t.Fatal(err)
		}
		err = tx.Run(func(tx *Tx) error {
			_, err := tx.Read(tbl, 100)
			return err
		})
		if !errors.Is(err, txn.ErrNotFound) {
			t.Fatalf("deleted key read: %v", err)
		}
		// Missing key.
		err = tx.Run(func(tx *Tx) error {
			_, err := tx.Read(tbl, 9999)
			return err
		})
		if !errors.Is(err, txn.ErrNotFound) {
			t.Fatalf("missing key read: %v", err)
		}
	})
}

func TestEngineBankInvariant(t *testing.T) {
	forAllProtocols(t, func(t *testing.T, protocol string) {
		const workers = 6
		const accounts = 20
		const initial = 500
		e := openEngine(t, Config{Protocol: protocol, Threads: workers, Partitions: 4})
		tbl := kvTable(t, e, "acct", IndexHash, 0)
		sch := tbl.Schema()
		row := sch.NewRow()
		for i := 0; i < accounts; i++ {
			sch.SetInt64(row, 0, initial)
			if err := e.Load(tbl, uint64(i), row); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tx := e.NewTx(w, uint64(w+1))
				for i := 0; i < 300; i++ {
					from := tx.RNG().Uint64n(accounts)
					to := tx.RNG().Uint64n(accounts)
					if from == to {
						continue
					}
					amt := int64(tx.RNG().Intn(20) + 1)
					if err := tx.Run(func(tx *Tx) error {
						fr, err := tx.Update(tbl, from)
						if err != nil {
							return err
						}
						tr, err := tx.Update(tbl, to)
						if err != nil {
							return err
						}
						setV(tbl, fr, getV(tbl, fr)-amt)
						setV(tbl, tr, getV(tbl, tr)+amt)
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		tx := e.NewTx(0, 99)
		var total int64
		if err := tx.Run(func(tx *Tx) error {
			total = 0
			for i := 0; i < accounts; i++ {
				row, err := tx.Read(tbl, uint64(i))
				if err != nil {
					return err
				}
				total += getV(tbl, row)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if total != accounts*initial {
			t.Fatalf("invariant broken: %d != %d", total, accounts*initial)
		}
	})
}

func TestEngineScan(t *testing.T) {
	forAllProtocols(t, func(t *testing.T, protocol string) {
		e := openEngine(t, Config{Protocol: protocol, Threads: 1, Partitions: 2})
		tbl := kvTable(t, e, "kv", IndexBTree, 0)
		sch := tbl.Schema()
		row := sch.NewRow()
		for i := 0; i < 100; i++ {
			sch.SetInt64(row, 0, int64(i*10))
			if err := e.Load(tbl, uint64(i), row); err != nil {
				t.Fatal(err)
			}
		}
		tx := e.NewTx(0, 1)
		// Ascending scan with values.
		if err := tx.Run(func(tx *Tx) error {
			var keys []uint64
			err := tx.Scan(tbl, 10, 20, func(key uint64, row storage.Row) bool {
				keys = append(keys, key)
				if getV(tbl, row) != int64(key*10) {
					t.Fatalf("key %d has value %d", key, getV(tbl, row))
				}
				return true
			})
			if err != nil {
				return err
			}
			if len(keys) != 11 || keys[0] != 10 || keys[10] != 20 {
				t.Fatalf("scan keys %v", keys)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// Descending.
		if err := tx.Run(func(tx *Tx) error {
			var keys []uint64
			err := tx.ScanDesc(tbl, 95, 200, func(key uint64, _ storage.Row) bool {
				keys = append(keys, key)
				return len(keys) < 3
			})
			if err != nil {
				return err
			}
			if len(keys) != 3 || keys[0] != 99 || keys[2] != 97 {
				t.Fatalf("desc scan keys %v", keys)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// Deleted rows are skipped.
		if err := tx.Run(func(tx *Tx) error { return tx.Delete(tbl, 15) }); err != nil {
			t.Fatal(err)
		}
		if err := tx.Run(func(tx *Tx) error {
			count := 0
			err := tx.Scan(tbl, 10, 20, func(uint64, storage.Row) bool {
				count++
				return true
			})
			if count != 10 {
				t.Fatalf("deleted row not skipped: %d", count)
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSecondaryIndex(t *testing.T) {
	e := openEngine(t, Config{Protocol: "SILO", Threads: 1})
	sch := storage.MustSchema("users", storage.I64("group"), storage.Str("name", 8))
	tbl, err := e.CreateTable(sch, IndexHash)
	if err != nil {
		t.Fatal(err)
	}
	// Secondary: by (group, pk) — a non-unique index modeled with pk in
	// the low bits.
	if err := e.AddIndex(tbl, "by_group", IndexBTree,
		func(s *storage.Schema, row storage.Row, pk uint64) uint64 {
			return uint64(s.GetInt64(row, 0))<<32 | pk
		}); err != nil {
		t.Fatal(err)
	}
	row := sch.NewRow()
	for i := 0; i < 10; i++ {
		sch.SetInt64(row, 0, int64(i%3)) // groups 0,1,2
		sch.SetString(row, 1, []byte("u"))
		if err := e.Load(tbl, uint64(i), row); err != nil {
			t.Fatal(err)
		}
	}
	tx := e.NewTx(0, 1)
	// Scan group 1: keys 1, 4, 7.
	if err := tx.Run(func(tx *Tx) error {
		var pks []uint64
		err := tx.ScanIndex(tbl, "by_group", 1<<32, 2<<32-1, false,
			func(ik uint64, _ storage.Row) bool {
				pks = append(pks, ik&0xFFFFFFFF)
				return true
			})
		if err != nil {
			return err
		}
		if len(pks) != 3 || pks[0] != 1 || pks[1] != 4 || pks[2] != 7 {
			t.Fatalf("group scan pks %v", pks)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Insert into group 1, rescan includes it; delete removes it.
	if err := tx.Run(func(tx *Tx) error {
		sch.SetInt64(row, 0, 1)
		sch.SetString(row, 1, []byte("new"))
		return tx.Insert(tbl, 50, row)
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Run(func(tx *Tx) error { return tx.Delete(tbl, 4) }); err != nil {
		t.Fatal(err)
	}
	if err := tx.Run(func(tx *Tx) error {
		var pks []uint64
		tx.ScanIndex(tbl, "by_group", 1<<32, 2<<32-1, false,
			func(ik uint64, _ storage.Row) bool {
				pks = append(pks, ik&0xFFFFFFFF)
				return true
			})
		if len(pks) != 3 || pks[0] != 1 || pks[1] != 7 || pks[2] != 50 {
			t.Fatalf("after insert+delete: %v", pks)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// LookupIndex point access.
	if err := tx.Run(func(tx *Tx) error {
		row, err := tx.LookupIndex(tbl, "by_group", 1<<32|50)
		if err != nil {
			return err
		}
		if string(sch.GetString(row, 1)) != "new" {
			t.Fatalf("lookup wrong row")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Unknown index errors.
	if err := tx.Run(func(tx *Tx) error {
		_, err := tx.LookupIndex(tbl, "nope", 1)
		return err
	}); err == nil {
		t.Fatal("unknown index accepted")
	}
}

func TestAbortedInsertInvisibleAndKeyReusable(t *testing.T) {
	forAllProtocols(t, func(t *testing.T, protocol string) {
		e := openEngine(t, Config{Protocol: protocol, Threads: 1, Partitions: 2})
		tbl := kvTable(t, e, "kv", IndexHash, 2)
		tx := e.NewTx(0, 1)
		err := tx.Run(func(tx *Tx) error {
			row := tbl.Schema().NewRow()
			setV(tbl, row, 5)
			if err := tx.Insert(tbl, 55, row); err != nil {
				return err
			}
			return txn.ErrUserAbort
		})
		if !errors.Is(err, txn.ErrUserAbort) {
			t.Fatal(err)
		}
		// Key is free again.
		if err := tx.Run(func(tx *Tx) error {
			_, err := tx.Read(tbl, 55)
			if !errors.Is(err, txn.ErrNotFound) {
				t.Fatalf("aborted insert visible: %v", err)
			}
			row := tbl.Schema().NewRow()
			setV(tbl, row, 7)
			return tx.Insert(tbl, 55, row)
		}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Run(func(tx *Tx) error {
			row, err := tx.Read(tbl, 55)
			if err != nil {
				return err
			}
			if getV(tbl, row) != 7 {
				t.Fatalf("reinserted value %d", getV(tbl, row))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestValueLoggingRecovery(t *testing.T) {
	for _, protocol := range []string{"SILO", "NO_WAIT", "MVCC", "TICTOC"} {
		t.Run(protocol, func(t *testing.T) {
			dev := &memDevice{}
			build := func() (*Engine, *Table) {
				e := openEngine(t, Config{
					Protocol: protocol, Threads: 2,
					LogMode: wal.ModeValue, LogDevice: dev,
				})
				return e, kvTable(t, e, "kv", IndexHash, 10)
			}
			e, tbl := build()
			tx := e.NewTx(0, 1)
			// A mix of updates, an insert, and a delete.
			for i := 0; i < 5; i++ {
				if err := tx.Run(func(tx *Tx) error {
					row, err := tx.Update(tbl, uint64(i))
					if err != nil {
						return err
					}
					setV(tbl, row, int64(100+i))
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Run(func(tx *Tx) error {
				row := tbl.Schema().NewRow()
				setV(tbl, row, 999)
				return tx.Insert(tbl, 77, row)
			}); err != nil {
				t.Fatal(err)
			}
			if err := tx.Run(func(tx *Tx) error { return tx.Delete(tbl, 9) }); err != nil {
				t.Fatal(err)
			}
			e.Close()

			// "Crash": rebuild a fresh engine from the deterministic load,
			// then replay the log.
			e2, tbl2 := build()
			rs, err := e2.Recover(dev.reader())
			if err != nil {
				t.Fatal(err)
			}
			if rs.Records != 7 {
				t.Fatalf("replayed %d records, want 7", rs.Records)
			}
			tx2 := e2.NewTx(0, 2)
			if err := tx2.Run(func(tx *Tx) error {
				for i := 0; i < 5; i++ {
					row, err := tx.Read(tbl2, uint64(i))
					if err != nil {
						return err
					}
					if getV(tbl2, row) != int64(100+i) {
						t.Fatalf("key %d = %d after recovery", i, getV(tbl2, row))
					}
				}
				row, err := tx.Read(tbl2, 77)
				if err != nil {
					return err
				}
				if getV(tbl2, row) != 999 {
					t.Fatalf("recovered insert value %d", getV(tbl2, row))
				}
				if _, err := tx.Read(tbl2, 9); !errors.Is(err, txn.ErrNotFound) {
					t.Fatalf("recovered delete still present: %v", err)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// addProc encodes (key, delta) and adds delta to the key's value.
func addProcParams(key uint64, delta int64) []byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:], key)
	binary.LittleEndian.PutUint64(b[8:], uint64(delta))
	return b[:]
}

func registerAddProc(t *testing.T, e *Engine, tbl *Table) {
	t.Helper()
	err := e.RegisterProc(1, func(tx *Tx, params []byte) error {
		key := binary.LittleEndian.Uint64(params[0:])
		delta := int64(binary.LittleEndian.Uint64(params[8:]))
		row, err := tx.Update(tbl, key)
		if err != nil {
			return err
		}
		tbl.Schema().SetInt64(row, 0, tbl.Schema().GetInt64(row, 0)+delta)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommandLoggingRecovery(t *testing.T) {
	dev := &memDevice{}
	build := func(d *memDevice) (*Engine, *Table) {
		e := openEngine(t, Config{
			Protocol: "NO_WAIT", Threads: 1,
			LogMode: wal.ModeCommand, LogDevice: d,
		})
		tbl := kvTable(t, e, "kv", IndexHash, 4)
		registerAddProc(t, e, tbl)
		return e, tbl
	}
	e, _ := build(dev)
	tx := e.NewTx(0, 1)
	for i := 0; i < 10; i++ {
		if err := tx.RunProc(1, addProcParams(uint64(i%4), 10)); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()

	relog := &memDevice{}
	e2, tbl2 := build(relog)
	rs, err := e2.Recover(dev.reader())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Procs != 10 {
		t.Fatalf("re-executed %d procs, want 10", rs.Procs)
	}
	// Replay never appends: recovering a log into an engine that logs to
	// the same file would otherwise read back its own records without end.
	if n := len(relog.bytes()); n != 0 {
		t.Fatalf("recovery wrote %d bytes to the recovering engine's log, want 0", n)
	}
	tx2 := e2.NewTx(0, 2)
	if err := tx2.Run(func(tx *Tx) error {
		want := []int64{30, 30, 20, 20}
		for i, w := range want {
			row, err := tx.Read(tbl2, uint64(i))
			if err != nil {
				return err
			}
			if getV(tbl2, row) != w {
				t.Fatalf("key %d = %d, want %d", i, getV(tbl2, row), w)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCommandLoggingRequiresRunProc(t *testing.T) {
	e := openEngine(t, Config{
		Protocol: "NO_WAIT", Threads: 1,
		LogMode: wal.ModeCommand, LogDevice: &memDevice{},
	})
	tbl := kvTable(t, e, "kv", IndexHash, 2)
	tx := e.NewTx(0, 1)
	err := tx.Run(func(tx *Tx) error {
		row, err := tx.Update(tbl, 0)
		if err != nil {
			return err
		}
		setV(tbl, row, 1)
		return nil
	})
	if err == nil {
		t.Fatal("plain Run with command logging should fail")
	}
}

func TestHStoreDeclaredPartitions(t *testing.T) {
	e := openEngine(t, Config{Protocol: "HSTORE", Threads: 2, Partitions: 4})
	tbl := kvTable(t, e, "kv", IndexHash, 8) // keys 0..7 over partitions 0..3
	tx := e.NewTx(0, 1)
	if err := tx.Run(func(tx *Tx) error {
		if err := tx.DeclarePartitions(0, 1); err != nil {
			return err
		}
		r0, err := tx.Update(tbl, 0) // partition 0
		if err != nil {
			return err
		}
		r1, err := tx.Update(tbl, 1) // partition 1
		if err != nil {
			return err
		}
		setV(tbl, r0, 1)
		setV(tbl, r1, 2)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterProcValidation(t *testing.T) {
	e := openEngine(t, Config{})
	if err := e.RegisterProc(0, nil); err == nil {
		t.Fatal("proc id 0 accepted")
	}
	if err := e.RegisterProc(5, func(*Tx, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterProc(5, func(*Tx, []byte) error { return nil }); err == nil {
		t.Fatal("duplicate proc accepted")
	}
	tx := e.NewTx(0, 1)
	if err := tx.RunProc(99, nil); err == nil {
		t.Fatal("unknown proc accepted")
	}
}

func TestEngineCloseIdempotent(t *testing.T) {
	e, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenStartsNoGoroutine: an engine with no log and no PartitionWAL has
// no background work, so opening it starts no goroutine. Several engines are
// opened so that one unrelated goroutine exiting meanwhile cannot hide one
// started per engine.
func TestOpenStartsNoGoroutine(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	before := runtime.NumGoroutine()
	var engines []*Engine
	for _, proto := range []string{"SILO", "NO_WAIT", "MVCC", "HSTORE"} {
		e, err := Open(Config{Protocol: proto, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("opening %d engines without a log raised the goroutine count from %d to %d", len(engines), before, after)
	}
	// A partitioned log with stall escalation runs its coordinator and one
	// flusher per stream, and nothing else: the stall timers start no
	// goroutine until one fires.
	const parts = 4
	devs := make([]wal.Device, parts)
	for i := range devs {
		devs[i] = &memDevice{}
	}
	before = runtime.NumGoroutine()
	e, err := Open(Config{
		Protocol: "SILO", Threads: 2, Partitions: parts,
		LogMode: wal.ModeValue, WALStreams: parts, LogDevices: devs,
		PartitionWAL: true, QuarantineStall: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	engines = append(engines, e)
	if after := runtime.NumGoroutine(); after-before != 1+parts {
		t.Errorf("opening a %d-partition PartitionWAL engine raised the goroutine count by %d, want %d (coordinator + flushers)", parts, after-before, 1+parts)
	}
	for _, e := range engines {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecoverRequiresLogging(t *testing.T) {
	e := openEngine(t, Config{})
	if _, err := e.Recover(bytes.NewReader(nil)); err == nil {
		t.Fatal("recover without logging accepted")
	}
}

func TestLoadValidation(t *testing.T) {
	e := openEngine(t, Config{})
	tbl := kvTable(t, e, "kv", IndexHash, 1)
	if err := e.Load(tbl, 0, tbl.Schema().NewRow()); err == nil {
		t.Fatal("duplicate load key accepted")
	}
	if err := e.Load(tbl, 1, make(storage.Row, 3)); err == nil {
		t.Fatal("bad row size accepted")
	}
}

// TestCreateTableCatalog: the engine is the only table catalog. CreateTable
// hands out dense ids in creation order, a rejected create (a taken name, an
// unknown index kind) consumes no id and leaves the first table in place, and
// lookup by name and by id find exactly the registered tables.
func TestCreateTableCatalog(t *testing.T) {
	e := openEngine(t, Config{Threads: 1})
	sa, sb := storage.MustSchema("a", storage.I64("v")), storage.MustSchema("b", storage.I64("v"))
	ta, err := e.CreateTable(sa, IndexHash)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable(sa, IndexBTree); err == nil {
		t.Fatal("duplicate create must fail")
	}
	if _, err := e.CreateTable(sb, IndexKind(99)); err == nil {
		t.Fatal("unknown index kind accepted")
	}
	tb, err := e.CreateTable(sb, IndexBTree)
	if err != nil {
		t.Fatal(err)
	}
	if ta.tbl.ID() != 0 || tb.tbl.ID() != 1 {
		t.Fatalf("ids %d, %d, want 0, 1", ta.tbl.ID(), tb.tbl.ID())
	}
	if e.Table("a") != ta || e.Table("b") != tb || e.Table("z") != nil {
		t.Fatal("lookup by name broken")
	}
	if e.tableByID(0) != ta || e.tableByID(1) != tb || e.tableByID(2) != nil || e.tableByID(-1) != nil {
		t.Fatal("lookup by id broken")
	}
	if got := e.snapshotTables(); len(got) != 2 || got[0] != ta || got[1] != tb {
		t.Fatal("snapshotTables broken")
	}
}

// TestTableByIDConcurrentCreate: tableByID takes no lock, so it runs beside
// CreateTable's copy-on-write publication of the directory. Readers resolve
// every id while creators add tables: an id resolves to nil or to the table
// that owns it, never to another, and a table resolves as soon as its
// CreateTable returns.
func TestTableByIDConcurrentCreate(t *testing.T) {
	const creators, perCreator, readers = 2, 64, 2
	e := openEngine(t, Config{Threads: 1})
	errs := make(chan error, creators+readers)
	var wg sync.WaitGroup
	for c := 0; c < creators; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCreator; i++ {
				sch := storage.MustSchema(fmt.Sprintf("t%d_%d", c, i), storage.I64("v"))
				tbl, err := e.CreateTable(sch, IndexHash)
				if err != nil {
					errs <- err
					return
				}
				if got := e.tableByID(tbl.tbl.ID()); got != tbl {
					errs <- fmt.Errorf("table %s (id %d) does not resolve after CreateTable", tbl.Name(), tbl.tbl.ID())
					return
				}
			}
		}(c)
	}
	var stop atomic.Bool
	var rd sync.WaitGroup
	for r := 0; r < readers; r++ {
		rd.Add(1)
		go func() {
			defer rd.Done()
			for !stop.Load() {
				for id := -1; id <= creators*perCreator; id++ {
					if th := e.tableByID(id); th != nil && th.tbl.ID() != id {
						errs <- fmt.Errorf("id %d resolves to table %s (id %d)", id, th.Name(), th.tbl.ID())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	rd.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	tables := e.snapshotTables()
	if got := len(tables); got != creators*perCreator {
		t.Fatalf("%d tables after the race, want %d", got, creators*perCreator)
	}
	for id, th := range tables {
		if th.tbl.ID() != id {
			t.Fatalf("directory slot %d holds table %s with id %d: two creators got one id", id, th.Name(), th.tbl.ID())
		}
	}
}
