package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"next700/internal/cc"
	"next700/internal/fault"
	"next700/internal/storage"
	"next700/internal/txn"
	"next700/internal/wal"
	"next700/internal/xrand"
)

// withProcs runs fn with GOMAXPROCS set to n — value replay's applier count.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// replayPair opens an engine with the two tables the replay tests use: kv
// (hash primary, n zero rows) and ord (B+ tree primary, empty, and a hash
// secondary by (v, writer): ord rows are inserted and deleted, never updated,
// as AddIndex requires of indexed columns).
func replayPair(t testing.TB, cfg Config, n int) (*Engine, *Table, *Table) {
	t.Helper()
	e := openEngine(t, cfg)
	kv := kvTable(t, e, "kv", IndexHash, n)
	ord, err := e.CreateTable(storage.MustSchema("ord", storage.I64("v")), IndexBTree)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddIndex(ord, "by_v", IndexHash, func(s *storage.Schema, row storage.Row, pk uint64) uint64 {
		return uint64(s.GetInt64(row, 0))<<8 | pk>>32
	}); err != nil {
		t.Fatal(err)
	}
	return e, kv, ord
}

// replayHistory runs workers concurrent committers over kv and ord: updates
// of shared kv keys (so the log interleaves writers of one key), deletes of
// kv keys, inserts and deletes of ord keys — every entry kind, on both index
// families, with a secondary index to maintain. Deleted keys are not
// re-inserted: a re-insert lands on a fresh record id, and the log orders
// commits per record, not per key, which replay across more than one stream
// does not yet make up for (ROADMAP, item 1). TestToggledKeysSurviveRecovery
// covers re-inserts on one stream.
func replayHistory(t *testing.T, e *Engine, kv, ord *Table, workers, txns, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(w + 1))
			tx := e.NewTx(w, uint64(w+1))
			for i := 0; i < txns && errs[w] == nil; i++ {
				errs[w] = tx.Run(func(tx *Tx) error {
					var wrote []uint64
					for j := 0; j < 4; j++ {
						k := rng.Uint64n(uint64(n))
						row, err := tx.Update(kv, k)
						if errors.Is(err, txn.ErrNotFound) {
							continue // deleted
						}
						if err != nil {
							return err
						}
						setV(kv, row, getV(kv, row)+int64(w+1))
						wrote = append(wrote, k)
					}
					ok := uint64(w)<<32 | uint64(i)
					row := ord.Schema().NewRow()
					setV(ord, row, int64(i))
					if err := tx.Insert(ord, ok, row); err != nil {
						return err
					}
					switch k := rng.Uint64n(uint64(n)); {
					case i%5 == 4:
						return tx.Delete(ord, ok-2)
					case i%7 == 6 && !slices.Contains(wrote, k):
						if err := tx.Delete(kv, k); !errors.Is(err, txn.ErrNotFound) {
							return err
						}
					}
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// logicalState reads every live key of tbl through the protocol and, per
// secondary index, its keys.
func logicalState(t *testing.T, e *Engine, tbl *Table) string {
	t.Helper()
	var keys []uint64
	tbl.primary.Iterate(func(key uint64, _ storage.RecordID) bool {
		keys = append(keys, key)
		return true
	})
	slices.Sort(keys)
	var b bytes.Buffer
	tx := e.NewTx(0, 77)
	if err := tx.Run(func(tx *Tx) error {
		b.Reset()
		for _, k := range keys {
			row, err := tx.Read(tbl, k)
			if errors.Is(err, txn.ErrNotFound) {
				continue
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "%d=%d ", k, getV(tbl, row))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, s := range tbl.secondaries {
		var iks []uint64
		s.idx.Iterate(func(ik uint64, _ storage.RecordID) bool {
			iks = append(iks, ik)
			return true
		})
		slices.Sort(iks)
		fmt.Fprintf(&b, "| %s %v", s.name, iks)
	}
	return b.String()
}

// TestParallelReplayMatchesSerial is value replay's equivalence oracle: a
// log written by concurrent committers (every entry kind, hash and B+ tree
// primaries, a secondary index) recovers to the source's logical state, and
// to the identical state digest and RecoveryStats, whether one applier
// applies it inline or four appliers split it by key. The short history has
// fewer entries than twice the lookahead, so every applier's only batch is
// the partial one finish hands over, and its lookahead runs off the end.
func TestParallelReplayMatchesSerial(t *testing.T) {
	for _, protocol := range []string{"SILO", "NO_WAIT", "MVCC", "TICTOC"} {
		t.Run(protocol, func(t *testing.T) {
			for _, txns := range []int{150, 1} {
				t.Run(fmt.Sprintf("txns=%d", txns), func(t *testing.T) { replayMatchesSerial(t, protocol, txns) })
			}
		})
	}
}

// replayMatchesSerial is one TestParallelReplayMatchesSerial history: two
// committers running txns transactions each.
func replayMatchesSerial(t *testing.T, protocol string, txns int) {
	const n = 256
	dev := &memDevice{}
	cfg := Config{Protocol: protocol, Threads: 2, LogMode: wal.ModeValue, LogDevice: dev}
	e, kv, ord := replayPair(t, cfg, n)
	replayHistory(t, e, kv, ord, 2, txns, n)
	want := logicalState(t, e, kv) + " || " + logicalState(t, e, ord)
	image := dev.bytes()

	var ref RecoveryStats
	var refDigest [32]byte
	for _, procs := range []int{1, 2, 4} {
		cfg.LogDevice = &memDevice{}
		r, rkv, rord := replayPair(t, cfg, n)
		var rs RecoveryStats
		var err error
		withProcs(procs, func() { rs, err = r.Recover(bytes.NewReader(image)) })
		if err != nil {
			t.Fatal(err)
		}
		if rs.Appliers != procs {
			t.Fatalf("GOMAXPROCS %d: %d appliers", procs, rs.Appliers)
		}
		if got := logicalState(t, r, rkv) + " || " + logicalState(t, r, rord); got != want {
			t.Fatalf("GOMAXPROCS %d: recovered state differs from the source:\n got %s\nwant %s", procs, got, want)
		}
		rs.Appliers = 0
		if procs == 1 {
			ref, refDigest = rs, r.StateDigest()
			continue
		}
		if !reflect.DeepEqual(rs, ref) {
			t.Fatalf("GOMAXPROCS %d stats differ:\n got %+v\nwant %+v", procs, rs, ref)
		}
		if r.StateDigest() != refDigest {
			t.Fatalf("GOMAXPROCS %d: digest differs from the one-applier replay", procs)
		}
	}
	if ref.Entries == 0 || ref.Records == 0 {
		t.Fatalf("nothing replayed: %+v", ref)
	}
	if txns == 1 && ref.Entries+ref.Skipped >= 2*replayLookahead {
		t.Fatalf("the short history has %d entries, not fewer than 2·lookahead = %d", ref.Entries+ref.Skipped, 2*replayLookahead)
	}
}

// TestToggledKeysSurviveRecovery is the re-insert shape: two workers on one
// log stream toggle 16 keys — a transaction reads a key, inserts it when it
// is absent and deletes it when it is present — so a key is deleted on one
// record id and re-inserted on another, often by the other worker. Every
// protocol orders the writers of one record, but none orders two records
// that share a key: the log holds the delete before the re-insert only
// because Tx.publish retracts a deleted key from the index after the
// delete's record is appended. Each history recovers into a fresh engine,
// which must reach the source's logical state.
//
// NO_WAIT also runs on two streams, one worker each: there the delete and the
// re-insert may land on different streams in one epoch, and only the global
// merge's txnID order — which a locking protocol draws at commit, after the
// delete's key left the index — puts them in order.
func TestToggledKeysSurviveRecovery(t *testing.T) {
	histories := 2000
	if testing.Short() {
		histories = 25
	}
	for _, tc := range []struct {
		protocol string
		streams  int
	}{{"SILO", 1}, {"TICTOC", 1}, {"NO_WAIT", 1}, {"MVCC", 1}, {"NO_WAIT", 2}} {
		t.Run(fmt.Sprintf("%s/streams=%d", tc.protocol, tc.streams), func(t *testing.T) {
			for h := 0; h < histories; h++ {
				if got, want := toggleHistory(t, tc.protocol, tc.streams, uint64(h)); got != want {
					t.Fatalf("history %d: recovered state differs from the source:\n got %s\nwant %s", h, got, want)
				}
			}
		})
	}
}

// toggleHistory runs one seeded toggle history under protocol over streams
// log streams and returns the logical state recovered from its log and the
// source's.
func toggleHistory(t *testing.T, protocol string, streams int, seed uint64) (got, want string) {
	t.Helper()
	const workers, keys, txns = 2, 16, 100
	open := func(devs []wal.Device) (*Engine, *Table) {
		e, err := Open(Config{Protocol: protocol, Threads: workers, LogMode: wal.ModeValue, WALStreams: streams, LogDevices: devs})
		if err != nil {
			t.Fatal(err)
		}
		return e, kvTable(t, e, "kv", IndexHash, keys)
	}
	mems := make([]*memDevice, streams)
	devs := make([]wal.Device, streams)
	for i := range mems {
		mems[i] = &memDevice{}
		devs[i] = mems[i]
	}
	e, tbl := open(devs)
	defer e.Close()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(seed*workers + uint64(w) + 1)
			tx := e.NewTx(w, seed*workers+uint64(w)+1)
			for i := 0; i < txns; i++ {
				k := rng.Uint64n(keys)
				err := tx.Run(func(tx *Tx) error {
					_, err := tx.Read(tbl, k)
					switch {
					case errors.Is(err, txn.ErrNotFound):
						row := tbl.Schema().NewRow()
						setV(tbl, row, int64(w*txns+i+1))
						return tx.Insert(tbl, k, row)
					case err != nil:
						return err
					}
					return tx.Delete(tbl, k)
				})
				// A toggle that races the other worker's toggle of k may
				// find k gone at its delete, or still indexed at its
				// insert: a deleted key stays indexed until its delete is
				// logged. Either way it aborts and leaves no trace.
				if err != nil && !errors.Is(err, txn.ErrNotFound) && !errors.Is(err, txn.ErrDuplicate) {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	want = logicalState(t, e, tbl)
	fresh := make([]wal.Device, streams)
	readers := make([]io.Reader, streams)
	for i, m := range mems {
		fresh[i] = &memDevice{}
		readers[i] = m.reader()
	}
	r, rtbl := open(fresh)
	defer r.Close()
	if _, err := r.RecoverStreams(readers); err != nil {
		t.Fatal(err)
	}
	return logicalState(t, r, rtbl), want
}

// TestParallelReplayAppliedIfNewer pins the dense version table's filter on a
// hand-framed pre-epoch log (every Epoch zero, no markers, log order ≠ txnID
// order): a stale image arriving after a newer one is skipped, a stale update
// after a delete does not resurrect the key, txnID 0 is a version like any
// other — at every applier count.
func TestParallelReplayAppliedIfNewer(t *testing.T) {
	const n = 64
	row := func(v int64) []byte {
		r := make([]byte, 8)
		storage.MustSchema("x", storage.I64("v")).SetInt64(r, 0, v)
		return r
	}
	var image []byte
	frame := func(txnID uint64, entries ...wal.Entry) {
		cr := wal.CommitRecord{TxnID: txnID, Entries: entries}
		image = append(image, cr.Encode(nil)...)
	}
	upd := func(k uint64, v int64) wal.Entry {
		return wal.Entry{Kind: wal.EntryUpdate, Table: 0, RID: k, Key: k, Data: row(v)}
	}
	want := map[uint64]int64{}
	stale, total := 0, 0
	for k := uint64(0); k < n; k++ {
		frame(0, upd(k, 1)) // txnID 0 must still apply
		frame(20+k, upd(k, 30))
		frame(10+k, upd(k, 20)) // stale: older than the image before it
		stale++
		want[k] = 30
		total += 3
		switch k % 4 {
		case 3:
			frame(50+k, wal.Entry{Kind: wal.EntryDelete, Table: 0, RID: k, Key: k})
			frame(40+k, upd(k, 99)) // stale: must not resurrect the key
			stale++
			total += 2
			delete(want, k)
		case 1:
			// One record writing the row twice — an update, then a delete —
			// carries one version for both entries; both apply, in order.
			frame(60+k, upd(k, 70), wal.Entry{Kind: wal.EntryDelete, Table: 0, RID: k, Key: k})
			total += 2
			delete(want, k)
		}
	}
	// A record that inserts a fresh key and deletes it again leaves nothing.
	ins := wal.Entry{Kind: wal.EntryInsert, Table: 0, RID: n, Key: 1000, Data: row(5)}
	frame(500, ins, wal.Entry{Kind: wal.EntryDelete, Table: 0, RID: n, Key: 1000})
	total += 2

	var digests [][32]byte
	for _, procs := range []int{1, 4} {
		e := openEngine(t, Config{Protocol: "SILO", Threads: 1, LogMode: wal.ModeValue, LogDevice: &memDevice{}})
		tbl := kvTable(t, e, "kv", IndexHash, n)
		var rs RecoveryStats
		var err error
		withProcs(procs, func() { rs, err = e.Recover(bytes.NewReader(image)) })
		if err != nil {
			t.Fatal(err)
		}
		if rs.Skipped != stale || rs.Entries+rs.Skipped != total {
			t.Fatalf("GOMAXPROCS %d: applied %d, skipped %d; want %d skipped", procs, rs.Entries, rs.Skipped, stale)
		}
		absent := []uint64{1000}
		for k := uint64(0); k < n; k++ {
			if _, ok := want[k]; !ok {
				absent = append(absent, k)
			}
		}
		wantValues(t, e, tbl, want, absent...)
		digests = append(digests, e.StateDigest())
	}
	if digests[0] != digests[1] {
		t.Fatal("digests differ across applier counts")
	}
}

// TestParallelReplayKeyAddressed covers the other addressing mode: a
// partition-affinity log recovered from its store applies each after-image to
// its key's current slot (allocating fresh slots, concurrently, for keys the
// base lacks), at every applier count, to the source's state.
func TestParallelReplayKeyAddressed(t *testing.T) {
	const parts, n = 4, 64
	e, store, _, tbl := partStore(t, parts, n, nil)
	tx := e.NewTx(0, 3)
	var inserted []uint64
	for i := 0; i < 200; i++ {
		k := uint64(i*7) % n
		if err := setKey(tx, tbl, k, int64(i)); err != nil {
			t.Fatal(err)
		}
		if i%9 == 8 {
			if err := tx.Run(func(tx *Tx) error {
				row := tbl.Schema().NewRow()
				setV(tbl, row, int64(i))
				return tx.Insert(tbl, uint64(n+i), row)
			}); err != nil {
				t.Fatal(err)
			}
			inserted = append(inserted, uint64(n+i))
		}
		if i%13 == 12 && len(inserted) > 0 {
			k := inserted[len(inserted)-1]
			inserted = inserted[:len(inserted)-1]
			if err := tx.Run(func(tx *Tx) error { return tx.Delete(tbl, k) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := logicalState(t, e, tbl)
	surv := crash(t, e, store)

	var digest [32]byte
	for i, procs := range []int{1, 4} {
		var r *Engine
		var rtbl *Table
		var rs RecoveryStats
		withProcs(procs, func() { r, rtbl, rs = partReboot(t, surv.Survivor(fault.StoreChaos{Seed: 5}), parts, n) })
		if rs.Appliers != procs {
			t.Fatalf("GOMAXPROCS %d: %d appliers", procs, rs.Appliers)
		}
		if got := logicalState(t, r, rtbl); got != want {
			t.Fatalf("GOMAXPROCS %d: recovered state differs:\n got %s\nwant %s", procs, got, want)
		}
		if i == 0 {
			digest = r.StateDigest()
		} else if r.StateDigest() != digest {
			t.Fatal("digests differ across applier counts")
		}
	}
}

// TestParallelReplayHintIsPure: the lookahead's hints read and write no
// replay or engine state and make nothing. Both stages run, under slot and
// key addressing, over every entry kind on ops inside the version column and
// a made chunk, past the column, past every made chunk and past the table's
// last record id: they allocate nothing and leave the version column, the
// protocol's metadata chunks, the arena's chunks, the table's record ids and
// the primary index as they were.
func TestParallelReplayHintIsPure(t *testing.T) {
	for _, protocol := range cc.Names() {
		t.Run(protocol, func(t *testing.T) {
			e := openEngine(t, Config{Protocol: protocol})
			tbl := kvTable(t, e, "kv", IndexHash, 4)
			for tbl.NumRows() < 3*storage.ChunkRecords {
				tbl.tbl.Alloc()
			}
			id := int32(tbl.tbl.ID())
			var ops []applyOp
			for len(ops) < 3*replayLookahead {
				for _, kind := range []wal.EntryKind{wal.EntryUpdate, wal.EntryInsert, wal.EntryDelete} {
					for _, rid := range []uint64{1, 2000, 2*storage.ChunkRecords + 5, 1 << 40} {
						ops = append(ops, applyOp{th: tbl, table: id, kind: kind, rid: rid, key: rid})
					}
				}
			}
			for _, partition := range []bool{false, true} {
				a := &applier{partition: partition, proto: e.proto}
				a.versions.newer(id, 0, 1, 1) // a column covering rid 1, not 2000
				col := len(a.versions[id])
				meta, arena := cc.MetaChunks(e.proto, tbl.tbl), tbl.tbl.ArenaChunks()
				rows, keys := tbl.NumRows(), tbl.PrimaryLen()
				allocs := testing.AllocsPerRun(50, func() {
					for i := range ops {
						a.hintAhead(ops, i)
						a.hint(&ops[i])
					}
				})
				if allocs != 0 {
					t.Errorf("partition %v: %.1f allocs per hint pass", partition, allocs)
				}
				if got := len(a.versions[id]); got != col || len(a.versions) != int(id)+1 {
					t.Errorf("partition %v: version column %d → %d", partition, col, got)
				}
				if got := cc.MetaChunks(e.proto, tbl.tbl); got != meta {
					t.Errorf("partition %v: metadata chunks %d → %d", partition, meta, got)
				}
				if got := tbl.tbl.ArenaChunks(); got != arena {
					t.Errorf("partition %v: arena chunks %d → %d", partition, arena, got)
				}
				if tbl.NumRows() != rows || tbl.PrimaryLen() != keys || a.entries+a.skipped != 0 {
					t.Errorf("partition %v: rows %d → %d, keys %d → %d, %d entries applied",
						partition, rows, tbl.NumRows(), keys, tbl.PrimaryLen(), a.entries+a.skipped)
				}
			}
		})
	}
}

// BenchmarkReplayValue replays a fixed value-log image of 8 updates per
// record into a freshly loaded SILO engine per iteration and reports
// records/s. rows=65536 is ycsb_durable's shape at a quarter of the rows and
// 8-byte rows; rows=262144 is the ledger's recover_replay: 262 144 ycsb rows
// of 8 + 100 bytes, 100 000 records (≈ 111 MB of log). Run with -cpu 1,2,4 to
// see the applier scaling (one applier per P).
func BenchmarkReplayValue(b *testing.B) {
	for _, c := range []*replayBench{
		{name: "rows=65536", rows: 1 << 16, records: 20_000},
		{name: "rows=262144", rows: 1 << 18, records: 100_000, pad: 100},
	} {
		b.Run(c.name, c.run)
	}
}

// replayBench is one BenchmarkReplayValue case: a table of rows rows, each an
// int64 v and pad filler bytes, and a log of records transactions.
type replayBench struct {
	name               string
	rows, records, pad int
	image              []byte // built on the case's first run
}

func (c *replayBench) table(b *testing.B, e *Engine) *Table {
	cols := []storage.Column{storage.I64("v")}
	if c.pad > 0 {
		cols = append(cols, storage.Str("pad", c.pad))
	}
	sch := storage.MustSchema("kv", cols...)
	tbl, err := e.CreateTable(sch, IndexHash)
	if err != nil {
		b.Fatal(err)
	}
	row := sch.NewRow()
	for i := 0; i < c.rows; i++ {
		if err := e.Load(tbl, uint64(i), row); err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

func (c *replayBench) run(b *testing.B) {
	cfg := Config{Protocol: "SILO", Threads: 1, LogMode: wal.ModeValue, LogDevice: &memDevice{}}
	if c.image == nil {
		dev := cfg.LogDevice.(*memDevice)
		src := openEngine(b, cfg)
		tbl := c.table(b, src)
		rng := xrand.New(1)
		tx := src.NewTx(0, 1)
		for i := 0; i < c.records; i++ {
			if err := tx.Run(func(tx *Tx) error {
				for j := 0; j < 8; j++ {
					row, err := tx.Update(tbl, rng.Uint64n(uint64(c.rows)))
					if err != nil {
						return err
					}
					setV(tbl, row, int64(i))
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
		src.Close()
		c.image = dev.bytes()
	}
	cfg.LogDevice = discardLog{}
	b.SetBytes(int64(len(c.image)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		c.table(b, e)
		runtime.GC()
		b.StartTimer()
		rs, err := e.Recover(bytes.NewReader(c.image))
		if err != nil {
			b.Fatal(err)
		}
		if rs.Records != c.records {
			b.Fatalf("replayed %d of %d records", rs.Records, c.records)
		}
		b.StopTimer()
		e.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(c.records*b.N)/b.Elapsed().Seconds(), "records/s")
}

// discardLog swallows the replaying engine's own log.
type discardLog struct{}

func (discardLog) Write(p []byte) (int, error) { return len(p), nil }
func (discardLog) Sync() error                 { return nil }

// TestRecoverWriteThenDelete: a transaction that updates a row and then
// deletes it logs one record with two entries for that row under one
// version. Replay must apply both; filtering the second as "not newer" kept
// the deleted row alive after recovery. The same transaction also inserts a
// row and deletes it again in a second transaction, which must return (SILO
// locked such a record's TID word twice and retried forever) and leave no
// row behind.
func TestRecoverWriteThenDelete(t *testing.T) {
	for _, protocol := range []string{"NO_WAIT", "MVCC", "TICTOC", "SILO"} {
		t.Run(protocol, func(t *testing.T) {
			dev := &memDevice{}
			cfg := Config{Protocol: protocol, Threads: 1, LogMode: wal.ModeValue, LogDevice: dev}
			e := openEngine(t, cfg)
			tbl := kvTable(t, e, "kv", IndexHash, 4)
			if err := e.NewTx(0, 1).Run(func(tx *Tx) error {
				row, err := tx.Update(tbl, 2)
				if err != nil {
					return err
				}
				setV(tbl, row, 9)
				return tx.Delete(tbl, 2)
			}); err != nil {
				t.Fatal(err)
			}
			// Protocols that hide an own insert from Delete refuse with
			// ErrNotFound; either way the transaction must return.
			if err := e.NewTx(0, 2).Run(func(tx *Tx) error {
				if err := tx.Insert(tbl, 7, tbl.Schema().NewRow()); err != nil {
					return err
				}
				return tx.Delete(tbl, 7)
			}); err != nil && !errors.Is(err, txn.ErrNotFound) {
				t.Fatal(err)
			}
			cfg.LogDevice = &memDevice{}
			r := openEngine(t, cfg)
			rtbl := kvTable(t, r, "kv", IndexHash, 4)
			if _, err := r.Recover(dev.reader()); err != nil {
				t.Fatal(err)
			}
			wantValues(t, r, rtbl, map[uint64]int64{0: 0, 1: 0, 3: 0}, 2, 7)
		})
	}
}
