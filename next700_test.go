package next700_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"next700"
	"next700/internal/core"
)

func TestPublicAPIQuickstart(t *testing.T) {
	db, err := next700.Open(next700.Options{Protocol: next700.Silo, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	schema := next700.MustSchema("accounts", next700.I64("balance"))
	accounts, err := db.CreateTable(schema, next700.IndexHash)
	if err != nil {
		t.Fatal(err)
	}
	row := schema.NewRow()
	for k := uint64(0); k < 10; k++ {
		schema.SetInt64(row, 0, 100)
		if err := db.Load(accounts, k, row); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx := db.NewTx(w, uint64(w+1))
			for i := 0; i < 100; i++ {
				if err := tx.Run(func(tx *next700.Tx) error {
					r, err := tx.Update(accounts, uint64(i%10))
					if err != nil {
						return err
					}
					schema.SetInt64(r, 0, schema.GetInt64(r, 0)+1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	tx := db.NewTx(0, 99)
	var total int64
	if err := tx.Run(func(tx *next700.Tx) error {
		total = 0
		for k := uint64(0); k < 10; k++ {
			r, err := tx.Read(accounts, k)
			if err != nil {
				return err
			}
			total += schema.GetInt64(r, 0)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total != 10*100+400 {
		t.Fatalf("total %d want %d", total, 10*100+400)
	}
}

func TestPublicAPIAllProtocols(t *testing.T) {
	for _, p := range next700.Protocols() {
		t.Run(p, func(t *testing.T) {
			db, err := next700.Open(next700.Options{Protocol: p, Threads: 2, Partitions: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			schema := next700.MustSchema("t", next700.I64("v"), next700.Str("s", 8))
			tbl, err := db.CreateTable(schema, next700.IndexBTree)
			if err != nil {
				t.Fatal(err)
			}
			row := schema.NewRow()
			for k := uint64(0); k < 50; k++ {
				schema.SetInt64(row, 0, int64(k))
				schema.SetString(row, 1, []byte("x"))
				if err := db.Load(tbl, k, row); err != nil {
					t.Fatal(err)
				}
			}
			tx := db.NewTx(0, 7)
			// Insert, scan, delete through the public surface.
			if err := tx.Run(func(tx *next700.Tx) error {
				schema.SetInt64(row, 0, 999)
				return tx.Insert(tbl, 100, row)
			}); err != nil {
				t.Fatal(err)
			}
			if err := tx.Run(func(tx *next700.Tx) error {
				n := 0
				err := tx.Scan(tbl, 40, 200, func(k uint64, r next700.Row) bool {
					n++
					return true
				})
				if n != 11 { // 40..49 plus 100
					t.Fatalf("scanned %d", n)
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if err := tx.Run(func(tx *next700.Tx) error { return tx.Delete(tbl, 100) }); err != nil {
				t.Fatal(err)
			}
			err = tx.Run(func(tx *next700.Tx) error {
				_, err := tx.Read(tbl, 100)
				return err
			})
			if !errors.Is(err, next700.ErrNotFound) {
				t.Fatalf("deleted read: %v", err)
			}
		})
	}
}

func TestPublicAPIDurabilityRoundTrip(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "wal.log")

	build := func() (*next700.DB, *next700.Table, *next700.Schema) {
		db, err := next700.Open(next700.Options{
			Protocol: next700.NoWait, Threads: 1,
			Logging: next700.LogValue, LogPath: logPath,
		})
		if err != nil {
			t.Fatal(err)
		}
		schema := next700.MustSchema("kv", next700.I64("v"))
		tbl, err := db.CreateTable(schema, next700.IndexHash)
		if err != nil {
			t.Fatal(err)
		}
		row := schema.NewRow()
		for k := uint64(0); k < 5; k++ {
			if err := db.Load(tbl, k, row); err != nil {
				t.Fatal(err)
			}
		}
		return db, tbl, schema
	}

	db, tbl, schema := build()
	tx := db.NewTx(0, 1)
	for i := 0; i < 5; i++ {
		if err := tx.Run(func(tx *next700.Tx) error {
			r, err := tx.Update(tbl, uint64(i))
			if err != nil {
				return err
			}
			schema.SetInt64(r, 0, int64(1000+i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// "Crash" and recover into a rebuilt engine. Use a fresh log path for
	// the new instance so the old log is replayed, not appended.
	old := logPath
	logPath = filepath.Join(dir, "wal2.log")
	db2, tbl2, schema2 := build()
	defer db2.Close()
	st, err := db2.RecoverFromFile(old)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 5 {
		t.Fatalf("recovered %d records", st.Records)
	}
	tx2 := db2.NewTx(0, 2)
	if err := tx2.Run(func(tx *next700.Tx) error {
		for i := 0; i < 5; i++ {
			r, err := tx.Read(tbl2, uint64(i))
			if err != nil {
				return err
			}
			if schema2.GetInt64(r, 0) != int64(1000+i) {
				t.Fatalf("key %d = %d", i, schema2.GetInt64(r, 0))
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := next700.Open(next700.Options{Protocol: "NOPE"}); err == nil {
		t.Fatal("bad protocol accepted")
	}
	if _, err := next700.Open(next700.Options{Logging: next700.LogValue}); err == nil {
		t.Fatal("logging without path accepted")
	}
	if _, err := next700.Open(next700.Options{
		Logging: next700.LogValue, LogPath: "/nonexistent-dir-xyz/wal.log",
	}); err == nil {
		t.Fatal("unwritable log path accepted")
	}
}

// TestPublicAPICheckpoint takes a checkpoint generation of a DB and restores
// it into a second one. A generation is written only by a Checkpointer over
// a checkpoint store and read only by RecoverFromStore, and the store owns
// the log segments, so each DB logs to the segment its attachment created.
func TestPublicAPICheckpoint(t *testing.T) {
	store, err := core.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	open := func(att *core.LogAttachment) *next700.DB {
		t.Helper()
		db, err := next700.Open(next700.Options{
			Protocol: next700.MVCC, Threads: 2, Logging: next700.LogValue,
			LogPath: filepath.Join(store.Dir(), fmt.Sprintf("seg-%06d-0", att.Gen)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}

	att, err := core.InitCheckpointLog(store, 1, next700.LogValue)
	if err != nil {
		t.Fatal(err)
	}
	db := open(att)
	defer db.Close()
	schema := next700.MustSchema("kv", next700.I64("v"))
	tbl, err := db.CreateTable(schema, next700.IndexBTree)
	if err != nil {
		t.Fatal(err)
	}
	row := schema.NewRow()
	for k := uint64(0); k < 100; k++ {
		schema.SetInt64(row, 0, int64(k*3))
		if err := db.Load(tbl, k, row); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := db.NewCheckpointer(store, 0, att.Devices)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.CheckpointNow(); err != nil {
		t.Fatal(err)
	}

	att2, err := core.AttachCheckpointLog(store)
	if err != nil {
		t.Fatal(err)
	}
	db2 := open(att2)
	defer db2.Close()
	tbl2, err := db2.CreateTable(schema, next700.IndexBTree)
	if err != nil {
		t.Fatal(err)
	}
	if rs, err := db2.RecoverFromStore(store, att2, nil); err != nil || !rs.CheckpointLoaded {
		t.Fatalf("RecoverFromStore = %+v, %v; want the generation loaded", rs, err)
	}
	tx := db2.NewTx(0, 1)
	if err := tx.Run(func(tx *next700.Tx) error {
		n := 0
		err := tx.Scan(tbl2, 0, 1000, func(k uint64, r next700.Row) bool {
			if schema.GetInt64(r, 0) != int64(k*3) {
				t.Fatalf("key %d value %d", k, schema.GetInt64(r, 0))
			}
			n++
			return true
		})
		if n != 100 {
			t.Fatalf("restored %d rows", n)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}
