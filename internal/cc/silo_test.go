package cc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"next700/internal/storage"
	"next700/internal/txn"
	"next700/internal/xrand"
)

// siloWideSchema is a row of 62 words and a 4-byte tail: wide enough that a
// copy spans many stores of a concurrent install, and not a multiple of 8,
// so the tail word is exercised too.
func siloWideSchema() *storage.Schema {
	cols := make([]storage.Column, 0, 63)
	for i := 0; i < 62; i++ {
		cols = append(cols, storage.I64(fmt.Sprint("w", i)))
	}
	cols = append(cols, storage.Str("tail", 4))
	return storage.MustSchema("wide", cols...)
}

// fillImage writes v into every word of row (its low bytes into the tail).
func fillImage(row []byte, v uint64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	for i := range row {
		row[i] = w[i%8]
	}
}

// imageValue returns the one value every word of row holds, or false for a
// mixed image.
func imageValue(row []byte) (uint64, bool) {
	v := binary.LittleEndian.Uint64(row)
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	for i := range row {
		if row[i] != w[i%8] {
			return v, false
		}
	}
	return v, true
}

// TestSiloSeqlockOracle is the oracle for SILO's in-place rows. Two writers
// commit full-row images of two records, every word of both holding the
// transaction's one value. Readers copy the rows through Read and
// ReadForUpdate while the writers install: no copy may be a mixed image,
// and a reader that commits must have seen both records at the same value.
// A torn copy (no re-check of the TID word after the copy, or the TID word
// released before the image is stored) fails the image check; plain loads of
// the words fail the race lane.
func TestSiloSeqlockOracle(t *testing.T) {
	const writers, readers = 2, 2
	commits := 3000
	if testing.Short() {
		commits = 1000
	}
	env := NewEnv(writers + readers)
	p := newSilo(env)
	sch := siloWideSchema()
	tbl := storage.NewTable(sch, 0)
	rids := [2]storage.RecordID{tbl.Alloc(), tbl.Alloc()}
	for i, rid := range rids {
		p.LoadRecord(tbl, rid, uint64(i), make([]byte, sch.RowSize()))
	}

	var done atomic.Bool
	var reads, checked atomic.Int64
	errs := make(chan error, writers+readers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx := txn.NewTxn(w, xrand.New(uint64(w+1)), nil)
			for i := 1; i <= commits; {
				tx.Reset()
				p.Begin(tx)
				v := uint64(w+1)<<32 | uint64(i)
				var err error
				for _, rid := range rids {
					var buf []byte
					if buf, err = p.ReadForUpdate(tx, tbl, rid); err != nil {
						break
					}
					fillImage(buf, v)
				}
				if err == nil {
					err = p.Commit(tx)
				} else {
					p.Abort(tx)
				}
				switch {
				case err == nil:
					i++
				case !errors.Is(err, txn.ErrConflict):
					errs <- err
					return
				}
				tx.ClearPriority()
				runtime.Gosched()
			}
		}(w)
	}
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			thread := writers + r
			tx := txn.NewTxn(thread, xrand.New(uint64(thread+1)), nil)
			for n := 0; !done.Load() || n < 100; n++ {
				tx.Reset()
				p.Begin(tx)
				var vals [2]uint64
				var err error
				for k, rid := range rids {
					var row []byte
					if r == 1 && k == 0 {
						row, err = p.ReadForUpdate(tx, tbl, rid)
					} else {
						row, err = p.Read(tx, tbl, rid)
					}
					if err != nil {
						break
					}
					reads.Add(1)
					v, ok := imageValue(row)
					if !ok {
						errs <- errors.New("reader copied a mixed image")
						return
					}
					vals[k] = v
				}
				if err == nil {
					err = p.Commit(tx)
				} else {
					p.Abort(tx)
				}
				switch {
				case err == nil:
					if vals[0] != vals[1] {
						errs <- errors.New("reader committed two records one writer always sets equal at different values")
						return
					}
					checked.Add(1)
				case !errors.Is(err, txn.ErrConflict):
					errs <- err
					return
				}
				tx.ClearPriority()
			}
		}(r)
	}
	wg.Wait()
	done.Store(true)
	rwg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if checked.Load() == 0 {
		t.Fatal("no reader committed: the pair check never ran")
	}
	t.Logf("%d row copies checked, %d reader commits", reads.Load(), checked.Load())
}

// BenchmarkSiloReadUpdate times SILO transactions of 8 reads and 8
// read-modify-writes of YCSB-width rows (108 B) from parallel workers over
// 64Ki records: the seqlock read, the in-place install, and their
// contention. Not a gate; run with -cpu 1,2.
func BenchmarkSiloReadUpdate(b *testing.B) {
	const rows, accesses = 1 << 16, 16
	procs := runtime.GOMAXPROCS(0)
	env := NewEnv(procs)
	p := newSilo(env)
	sch := storage.MustSchema("ycsb", storage.I64("k"), storage.Str("f", 100))
	tbl := storage.NewTable(sch, 0)
	for i := 0; i < rows; i++ {
		rid := tbl.Alloc()
		p.LoadRecord(tbl, rid, uint64(i), tbl.Row(rid))
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		thread := int(next.Add(1)-1) % procs
		rng := xrand.New(uint64(thread + 1))
		tx := txn.NewTxn(thread, rng, nil)
		for pb.Next() {
			for {
				tx.Reset()
				p.Begin(tx)
				first := rng.Intn(rows)
				var err error
				for a := 0; a < accesses && err == nil; a++ {
					rid := storage.RecordID((first + a*7919) % rows)
					if a%2 == 0 {
						_, err = p.Read(tx, tbl, rid)
					} else {
						var buf []byte
						if buf, err = p.ReadForUpdate(tx, tbl, rid); err == nil {
							buf[0]++
						}
					}
				}
				if err == nil {
					err = p.Commit(tx)
				} else {
					p.Abort(tx)
				}
				tx.ClearPriority()
				if err == nil {
					break
				}
			}
		}
	})
}
