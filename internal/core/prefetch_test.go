package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"next700/internal/stats"
	"next700/internal/storage"
	"next700/internal/txn"
	"next700/internal/xrand"
)

// prefetchOp is one step of a seeded history: kind 0 read, 1 update
// (v += 1), 2 insert (v = key), 3 delete; on the B+tree table only reads
// and updates.
type prefetchOp struct {
	btree bool
	kind  int
	key   uint64
}

// prefetchHistory draws a seeded single-worker history over a key space
// twice the loaded one, so ops find present, absent, deleted and
// re-inserted keys. The last transaction of every ten asks for a user
// abort, which rolls its inserts and deletes back.
func prefetchHistory(seed uint64, txns, loaded int) [][]prefetchOp {
	rng := xrand.New(seed)
	out := make([][]prefetchOp, txns)
	for i := range out {
		n := rng.IntRange(1, 8)
		for j := 0; j < n; j++ {
			op := prefetchOp{key: rng.Uint64n(uint64(2 * loaded))}
			if rng.Bool(0.2) {
				op.btree = true
				op.kind = rng.Intn(2)
			} else {
				op.kind = rng.Intn(4)
			}
			out[i] = append(out[i], op)
		}
	}
	return out
}

type prefetchOutcome struct {
	digest  [32]byte
	results []int64
	counter stats.Counter
}

// replayPrefetchHistory runs the history on a fresh engine and records,
// per op, the value it read or the error class it got, and per
// transaction Run's result. With hint set it calls Prefetch before each
// body on both tables — the transaction's keys plus keys it never touches
// — and again after every op on that op's key, so keys deleted and keys
// inserted by the running transaction are prefetched too.
func replayPrefetchHistory(t *testing.T, protocol string, history [][]prefetchOp, loaded int, hint bool) prefetchOutcome {
	t.Helper()
	e := openEngine(t, Config{Protocol: protocol, Threads: 1})
	h := kvTable(t, e, "h", IndexHash, loaded)
	b := kvTable(t, e, "b", IndexBTree, loaded)
	tx := e.NewTx(0, 1)
	var res []int64
	class := func(err error) int64 {
		switch {
		case err == nil:
			return 0
		case errors.Is(err, txn.ErrNotFound):
			return -1
		case errors.Is(err, txn.ErrDuplicate):
			return -2
		case errors.Is(err, txn.ErrUserAbort):
			return -3
		}
		t.Fatalf("unexpected error %v", err)
		return 0
	}
	hKeys := make([]uint64, 0, 16)
	bKeys := make([]uint64, 0, 16)
	one := make([]uint64, 1)
	for i, ops := range history {
		hKeys, bKeys = hKeys[:0], bKeys[:0]
		for _, op := range ops {
			if op.btree {
				bKeys = append(bKeys, op.key)
			} else {
				hKeys = append(hKeys, op.key)
			}
		}
		hKeys = append(hKeys, uint64(3*loaded+i)) // never present
		base := len(res)
		err := tx.Run(func(tx *Tx) error {
			res = res[:base]
			if hint {
				tx.Prefetch(h, hKeys)
				tx.Prefetch(b, bKeys)
			}
			for _, op := range ops {
				tbl := h
				if op.btree {
					tbl = b
				}
				var v int64
				var err error
				switch op.kind {
				case 0:
					var row storage.Row
					if row, err = tx.Read(tbl, op.key); err == nil {
						v = getV(tbl, row)
					}
				case 1:
					var row storage.Row
					if row, err = tx.Update(tbl, op.key); err == nil {
						v = getV(tbl, row) + 1
						setV(tbl, row, v)
					}
				case 2:
					row := tbl.Schema().NewRow()
					setV(tbl, row, int64(op.key))
					err = tx.Insert(tbl, op.key, row)
				case 3:
					err = tx.Delete(tbl, op.key)
				}
				res = append(res, v, class(err))
				if hint {
					one[0] = op.key
					tx.Prefetch(tbl, one)
				}
			}
			if i%10 == 9 {
				return txn.ErrUserAbort
			}
			return nil
		})
		res = append(res, class(err))
	}
	return prefetchOutcome{digest: e.StateDigest(), results: res, counter: e.TotalCounter()}
}

// TestPrefetchIsSemanticNoOp: Prefetch is a hint. A seeded history replayed
// with Prefetch before and inside every body — on present, absent, deleted,
// self-inserted keys and on a B+tree-primary table — reads the same
// values, gets the same errors, leaves the same state and counts the same
// statistics as the history without it: Prefetch counts no read.
func TestPrefetchIsSemanticNoOp(t *testing.T) {
	const loaded = 64
	history := prefetchHistory(33, 400, loaded)
	forAllProtocols(t, func(t *testing.T, protocol string) {
		plain := replayPrefetchHistory(t, protocol, history, loaded, false)
		hinted := replayPrefetchHistory(t, protocol, history, loaded, true)
		if hinted.digest != plain.digest {
			t.Errorf("state digest %x with Prefetch, %x without", hinted.digest[:8], plain.digest[:8])
		}
		if len(hinted.results) != len(plain.results) {
			t.Fatalf("%d results with Prefetch, %d without", len(hinted.results), len(plain.results))
		}
		for i := range plain.results {
			if hinted.results[i] != plain.results[i] {
				t.Fatalf("result %d: %d with Prefetch, %d without", i, hinted.results[i], plain.results[i])
			}
		}
		if hinted.counter != plain.counter {
			t.Errorf("counters with Prefetch %+v, without %+v", hinted.counter, plain.counter)
		}
	})
}

// ghostTable builds a table with one loaded row (key 0) and one key whose
// record exists in storage and in the index but was never handed to the
// protocol: its record id opens a fresh storage chunk, so the protocol's
// metadata chunk for it does not exist. That is Tx.Insert's window between
// publishing the key and RegisterInsert, held open.
func ghostTable(t *testing.T, e *Engine) (*Table, uint64) {
	t.Helper()
	g := kvTable(t, e, "ghost", IndexHash, 1)
	const metaChunk = 1 << 16 // records per protocol metadata chunk (cc.metaChunkBits)
	rid := g.tbl.Alloc()
	for rid < metaChunk {
		rid = g.tbl.Alloc()
	}
	const ghostKey = 1 << 40
	if _, ok := g.primary.Insert(ghostKey, rid); !ok {
		t.Fatal("ghost key already present")
	}
	return g, ghostKey
}

// allocatedBytes counts the heap bytes allocated while fn runs. Growing
// protocol metadata for a record allocates its whole chunk — at least
// 2^16 × 4 B — so a delta below metaGrowth means nothing grew, whatever
// stray runtime allocations ran beside fn.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

const metaGrowth = 64 << 10

// TestPrefetchConcurrentChurn: prefetchers run against inserters, deleters,
// committers and the hash-shard rebuilds the inserts trigger, and each
// committer prefetches every committer's keys inside its own body, so the
// in-place protocols' row hints land on rows the other committer's commit
// is copying into. Prefetch emits hints only and reads nothing — a plain
// read of the arena, which in-place writers store to plainly, shows up
// here under -race. It must not change any row or Len, and it must not
// create or grow protocol metadata for a record that has none yet: the
// ghost key's Prefetch allocates no metadata chunk, before the churn and
// after.
func TestPrefetchConcurrentChurn(t *testing.T) {
	const (
		stable     = 256  // loaded, v = key, only prefetched
		owned      = 64   // loaded per committer, v counts its commits
		committers = 2    // read-modify-write their own keys
		inserters  = 2    // insert, delete half, re-insert a quarter
		perIns     = 1024 // keys per inserter
		rounds     = 48   // committer transactions; each owned key gets a quarter
		prefetcher = 2
		insBase    = 1 << 20
	)
	forAllProtocols(t, func(t *testing.T, protocol string) {
		e := openEngine(t, Config{Protocol: protocol, Threads: committers + inserters + prefetcher})
		sch := storage.MustSchema("churn", storage.I64("v"), storage.Str("pad", 100))
		tbl, err := e.CreateTable(sch, IndexHash)
		if err != nil {
			t.Fatal(err)
		}
		row := sch.NewRow()
		for k := uint64(0); k < stable+committers*owned; k++ {
			sch.SetInt64(row, 0, int64(k))
			if k >= stable {
				sch.SetInt64(row, 0, 0)
			}
			if err := e.Load(tbl, k, row); err != nil {
				t.Fatal(err)
			}
		}
		ghost, ghostKey := ghostTable(t, e)
		ghostKeys := []uint64{0, ghostKey}
		probe := e.NewTx(0, 99)
		if n := allocatedBytes(func() { probe.Prefetch(ghost, ghostKeys) }); n >= metaGrowth {
			t.Fatalf("first Prefetch of a record without metadata allocated %d B", n)
		}

		var wg sync.WaitGroup
		var stop atomic.Bool
		errs := make(chan error, committers+inserters+prefetcher)
		for c := 0; c < committers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				tx := e.NewTx(c, uint64(c)+1)
				lo := uint64(stable + c*owned)
				hint := make([]uint64, 0, committers*owned)
				for k := uint64(stable); k < stable+committers*owned; k++ {
					hint = append(hint, k)
				}
				for r := 0; r < rounds; r++ {
					err := tx.Run(func(tx *Tx) error {
						tx.Prefetch(tbl, hint)
						for k := lo; k < lo+owned; k += 4 {
							row, err := tx.Update(tbl, k+uint64(r%4))
							if err != nil {
								return err
							}
							sch.SetInt64(row, 0, sch.GetInt64(row, 0)+1)
						}
						return nil
					})
					if err != nil {
						errs <- err
						return
					}
				}
			}(c)
		}
		for i := 0; i < inserters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tx := e.NewTx(committers+i, uint64(i)+11)
				base := uint64(insBase * (i + 1))
				batch := func(step uint64, fn func(tx *Tx, k uint64) error) error {
					for lo := uint64(0); lo < perIns; lo += 8 * step {
						err := tx.Run(func(tx *Tx) error {
							for k := lo; k < lo+8*step && k < perIns; k += step {
								if err := fn(tx, base+k); err != nil {
									return err
								}
							}
							return nil
						})
						if err != nil {
							return err
						}
					}
					return nil
				}
				insert := func(v int64) func(tx *Tx, k uint64) error {
					return func(tx *Tx, k uint64) error {
						row := sch.NewRow()
						sch.SetInt64(row, 0, int64(k-base)+v)
						return tx.Insert(tbl, k, row)
					}
				}
				for _, phase := range []error{
					batch(1, insert(0)),
					batch(2, func(tx *Tx, k uint64) error { return tx.Delete(tbl, k) }),
					batch(4, insert(1000)),
				} {
					if phase != nil {
						errs <- phase
						return
					}
				}
			}(i)
		}
		var pf sync.WaitGroup
		for p := 0; p < prefetcher; p++ {
			pf.Add(1)
			go func(p int) {
				defer pf.Done()
				tx := e.NewTx(committers+inserters+p, uint64(p)+21)
				rng := xrand.New(uint64(p) + 31)
				keys := make([]uint64, 16)
				for !stop.Load() {
					for j := range keys {
						switch rng.Intn(4) {
						case 0:
							keys[j] = rng.Uint64n(stable + committers*owned)
						case 1, 2:
							keys[j] = insBase*uint64(1+rng.Intn(inserters)) + rng.Uint64n(perIns)
						default:
							keys[j] = rng.Uint64() | 1<<62 // absent
						}
					}
					err := tx.Run(func(tx *Tx) error {
						tx.Prefetch(tbl, keys)
						tx.Prefetch(ghost, ghostKeys)
						return nil
					})
					if err != nil {
						errs <- err
						return
					}
				}
			}(p)
		}
		wg.Wait()
		stop.Store(true)
		pf.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		if n := allocatedBytes(func() { probe.Prefetch(ghost, ghostKeys) }); n >= metaGrowth {
			t.Fatalf("Prefetch of a record without metadata allocated %d B after the churn", n)
		}
		wantLen := stable + committers*owned + inserters*(perIns/2+perIns/4)
		if got := tbl.PrimaryLen(); got != wantLen {
			t.Fatalf("Len %d after the churn, want %d", got, wantLen)
		}
		if got := ghost.PrimaryLen(); got != 2 {
			t.Fatalf("ghost table Len %d, want 2", got)
		}
		err = probe.Run(func(tx *Tx) error {
			for k := uint64(0); k < stable+committers*owned; k++ {
				row, err := tx.Read(tbl, k)
				if err != nil {
					return err
				}
				want := int64(k)
				if k >= stable {
					want = rounds / 4
				}
				if got := sch.GetInt64(row, 0); got != want {
					t.Errorf("key %d: v = %d, want %d", k, got, want)
				}
			}
			for i := 0; i < inserters; i++ {
				base := uint64(insBase * (i + 1))
				for k := uint64(0); k < perIns; k++ {
					row, err := tx.Read(tbl, base+k)
					want := int64(k)
					switch {
					case k%4 == 0:
						want += 1000
					case k%2 == 0:
						if !errors.Is(err, txn.ErrNotFound) {
							t.Errorf("deleted key %d: err %v", base+k, err)
						}
						continue
					}
					if err != nil {
						return err
					}
					if got := sch.GetInt64(row, 0); got != want {
						t.Errorf("key %d: v = %d, want %d", base+k, got, want)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkTxPrefetch runs 16-key SILO transactions, half read and half
// read-modify-write, over uniform keys of a 262 144-row × 108 B table (the
// benchmark's ycsb_point shape, on one worker), without and with Prefetch
// of the keys before the body. Non-gating: it shows what overlapping the
// index and record misses is worth per transaction.
//
//	go test ./internal/core -run '^$' -bench TxPrefetch -cpu 1
func BenchmarkTxPrefetch(b *testing.B) {
	const rows = 262144
	e := openEngine(b, Config{Protocol: "SILO", Threads: 1})
	sch := storage.MustSchema("bench", storage.I64("v"), storage.Str("field", 100))
	tbl, err := e.CreateTable(sch, IndexHash)
	if err != nil {
		b.Fatal(err)
	}
	row := sch.NewRow()
	for k := uint64(0); k < rows; k++ {
		if err := e.Load(tbl, k, row); err != nil {
			b.Fatal(err)
		}
	}
	for _, hint := range []bool{false, true} {
		name := "plain"
		if hint {
			name = "prefetch"
		}
		b.Run(name, func(b *testing.B) {
			tx := e.NewTx(0, 1)
			rng := xrand.New(7)
			keys := make([]uint64, 16)
			body := func(tx *Tx) error {
				if hint {
					tx.Prefetch(tbl, keys)
				}
				for i, k := range keys {
					if i%2 == 0 {
						if _, err := tx.Read(tbl, k); err != nil {
							return err
						}
						continue
					}
					row, err := tx.Update(tbl, k)
					if err != nil {
						return err
					}
					sch.SetInt64(row, 0, sch.GetInt64(row, 0)+1)
				}
				return nil
			}
			b.ReportAllocs()
			for b.Loop() {
				for i := range keys {
					keys[i] = rng.Uint64n(rows)
				}
				if err := tx.Run(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
