package index

import (
	"sync"
	"sync/atomic"
	"testing"

	"next700/internal/storage"
	"next700/internal/xrand"
)

// hashFuzzKeys is the key pool FuzzHash draws from: 64 keys that share
// shard 0, so a short op sequence drives one shard's table through growth,
// tombstones and compaction, then 64 keys packed the TPC-C way (small
// fields in the high bits) that spread over the other shards.
var hashFuzzKeys = func() []uint64 {
	var keys []uint64
	for k := uint64(1); len(keys) < 64; k++ {
		if (k*fib)>>(64-hashShardBits) == 0 {
			keys = append(keys, k)
		}
	}
	for i := uint64(0); i < 64; i++ {
		keys = append(keys, (i%8)<<40|(i/8)<<32|i%3)
	}
	return keys
}()

// hashCoverage records which structural paths one op sequence took.
type hashCoverage struct{ grew, compacted, revived bool }

// runHashModel applies ops, two bytes each (an op selector and a key index),
// to a Hash and a Go-map model and fails on any disagreement.
func runHashModel(t *testing.T, ops []byte) hashCoverage {
	h := NewHash("fuzz", 0)
	model := make(map[uint64]storage.RecordID)
	var cov hashCoverage
	for i := 0; i+1 < len(ops); i += 2 {
		key := hashFuzzKeys[int(ops[i+1])%len(hashFuzzKeys)]
		s := h.shard(key)
		before := s.tab.Load()
		switch ops[i] % 8 {
		case 0, 1, 2, 3:
			rid := storage.RecordID(i)
			if _, r := before.probe(key*fib, key); r == refTomb {
				cov.revived = true
			}
			old, ok := h.Insert(key, rid)
			if prev, present := model[key]; present {
				if ok || old != prev {
					t.Fatalf("op %d: insert over %d got (%d,%v), want (%d,false)", i, key, old, ok, prev)
				}
			} else {
				if !ok || old != rid {
					t.Fatalf("op %d: insert of fresh %d got (%d,%v)", i, key, old, ok)
				}
				model[key] = rid
			}
		case 4, 5:
			_, want := model[key]
			if got := h.Delete(key); got != want {
				t.Fatalf("op %d: delete %d got %v, want %v", i, key, got, want)
			}
			delete(model, key)
		case 6:
			rid, ok := h.Lookup(key)
			want, wok := model[key]
			if ok != wok || (ok && rid != want) || (!ok && rid != storage.InvalidRecordID) {
				t.Fatalf("op %d: lookup %d got (%d,%v), want (%d,%v)", i, key, rid, ok, want, wok)
			}
		default:
			checkHashModel(t, h, model)
		}
		if after := s.tab.Load(); after != before {
			if len(after.slots) > len(before.slots) {
				cov.grew = true
			} else {
				cov.compacted = true
			}
		}
	}
	checkHashModel(t, h, model)
	return cov
}

// checkHashModel checks whole-index agreement with the model and every
// shard's bookkeeping against its table.
func checkHashModel(t *testing.T, h *Hash, model map[uint64]storage.RecordID) {
	t.Helper()
	if h.Len() != len(model) {
		t.Fatalf("len %d, model %d", h.Len(), len(model))
	}
	seen := 0
	h.Iterate(func(k uint64, rid storage.RecordID) bool {
		if want, ok := model[k]; !ok || want != rid {
			t.Fatalf("iterate produced (%d,%d), model has (%d,%v)", k, rid, want, ok)
		}
		seen++
		return true
	})
	if seen != len(model) {
		t.Fatalf("iterate visited %d of %d", seen, len(model))
	}
	for i := range h.shards {
		s := &h.shards[i]
		tab := s.tab.Load()
		live, used := 0, 0
		keys := make(map[uint64]bool)
		for j := range tab.slots {
			r := tab.slots[j].ref.Load()
			if r == refEmpty {
				continue
			}
			used++
			if r != refTomb {
				live++
			}
			k := tab.slots[j].key.Load()
			if keys[k] {
				t.Fatalf("shard %d: key %d in two slots", i, k)
			}
			keys[k] = true
		}
		if live != s.live || used != s.used {
			t.Fatalf("shard %d: table has %d live / %d used, shard counts %d / %d", i, live, used, s.live, s.used)
		}
		if used*4 > len(tab.slots)*3 {
			t.Fatalf("shard %d: %d of %d slots used, above 3/4", i, used, len(tab.slots))
		}
	}
}

// hashFuzzSeeds are the corpus FuzzHash starts from: seeded random op
// mixes, as in TestBTreeModelFuzz, and one arc over the same-shard keys
// that grows the table, fills it with tombstones, revives some, and adds
// fresh keys until the tombstones are compacted away.
func hashFuzzSeeds() [][]byte {
	var seeds [][]byte
	for _, seed := range []uint64{0xF022, 1, 2, 3} {
		rng := xrand.New(seed)
		ops := make([]byte, 2*500)
		for i := range ops {
			ops[i] = byte(rng.Uint64())
		}
		seeds = append(seeds, ops)
	}
	const insert, del, check = 0, 4, 7
	var arc []byte
	span := func(op byte, lo, hi int) {
		for k := lo; k < hi; k++ {
			arc = append(arc, op, byte(k))
		}
		arc = append(arc, check, 0)
	}
	span(insert, 0, 48) // grows 8 → 16 → 32 → 64
	span(del, 0, 47)
	span(insert, 0, 11)  // revives tombstones in place
	span(insert, 48, 64) // the first fresh key compacts 64 → 32
	return append(seeds, arc)
}

// FuzzHash runs Insert/Delete/Lookup/Len/Iterate sequences against a Go-map
// model. Plain go test replays the seeds; -fuzz FuzzHash mutates them.
func FuzzHash(f *testing.F) {
	for _, s := range hashFuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		runHashModel(t, ops)
	})
}

// TestHashFuzzSeedsCover guards the corpus: between them the seeds must grow
// a table, compact one and revive a tombstone.
func TestHashFuzzSeedsCover(t *testing.T) {
	var all hashCoverage
	for _, s := range hashFuzzSeeds() {
		c := runHashModel(t, s)
		all.grew = all.grew || c.grew
		all.compacted = all.compacted || c.compacted
		all.revived = all.revived || c.revived
	}
	if !all.grew || !all.compacted || !all.revived {
		t.Fatalf("seed corpus coverage %+v: want growth, compaction and revival", all)
	}
}

// TestHashConcurrentChurn runs two writers that insert, delete and
// re-insert churn keys across many table rebuilds while two readers check
// that a stable key inserted before they started is always found with its
// rid, and that a churn key never returns a rid that was not its own. Each
// round inserts fresh churn keys and deletes them all before the next, so
// tombstones pile up and force compactions as well as growth.
func TestHashConcurrentChurn(t *testing.T) {
	const (
		writers = 2
		readers = 2
		stable  = 2048
		churn   = 512 // keys per writer per round
	)
	rounds := 100
	if testing.Short() {
		rounds = 25
	}
	stableKey := func(i uint64) uint64 { return i<<32 | 7 }
	stableRid := func(i uint64) storage.RecordID { return storage.RecordID(i * 3) }
	// Churn keys are packed like TPC-C's: writer, round, item.
	churnKey := func(w, round, i uint64) uint64 { return (w+1)<<56 | round<<32 | i }
	// A churn rid names its key above bit 4 and its generation below.
	churnID := func(w, round, i uint64) uint64 { return (w*uint64(rounds+1)+round)*churn + i }
	churnRid := func(w, round, i, gen uint64) storage.RecordID {
		return storage.RecordID(churnID(w, round, i)<<4 | gen)
	}

	h := NewHash("churn", 0)
	for i := uint64(0); i < stable; i++ {
		h.Insert(stableKey(i), stableRid(i))
	}

	var stop atomic.Bool
	var rebuilds atomic.Int64
	var rwg, wwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(seed uint64) {
			defer rwg.Done()
			rng := xrand.New(seed)
			for !stop.Load() {
				i := rng.Uint64n(stable)
				if rid, ok := h.Lookup(stableKey(i)); !ok || rid != stableRid(i) {
					t.Errorf("stable key %d: got (%d,%v), want (%d,true)", i, rid, ok, stableRid(i))
					return
				}
				w, round, c := rng.Uint64n(writers), rng.Uint64n(uint64(rounds)+1), rng.Uint64n(churn)
				if rid, ok := h.Lookup(churnKey(w, round, c)); ok && uint64(rid)>>4 != churnID(w, round, c) {
					t.Errorf("churn key (%d,%d,%d) returned rid %#x of another key", w, round, c, rid)
					return
				}
			}
		}(uint64(r) + 100)
	}
	for w := uint64(0); w < writers; w++ {
		wwg.Add(1)
		go func(w uint64) {
			defer wwg.Done()
			rng := xrand.New(w + 1)
			write := func(k uint64, f func()) {
				before := h.shard(k).tab.Load()
				f()
				if h.shard(k).tab.Load() != before {
					rebuilds.Add(1)
				}
			}
			for round := uint64(0); round <= uint64(rounds); round++ {
				last := round == uint64(rounds)
				for i := uint64(0); i < churn; i++ {
					if last && i%2 == 1 {
						continue // the final round leaves the even keys
					}
					k := churnKey(w, round, i)
					write(k, func() {
						if _, ok := h.Insert(k, churnRid(w, round, i, 0)); !ok {
							t.Errorf("fresh churn key %#x already present", k)
						}
					})
				}
				if last {
					break
				}
				for i := uint64(0); i < churn; i++ {
					k := churnKey(w, round, i)
					if !rng.Bool(0.8) {
						continue
					}
					write(k, func() { h.Delete(k) })
					if rng.Bool(0.5) {
						write(k, func() { h.Insert(k, churnRid(w, round, i, 1)) })
					}
				}
				for i := uint64(0); i < churn; i++ {
					k := churnKey(w, round, i)
					write(k, func() { h.Delete(k) })
				}
			}
		}(w)
	}
	wwg.Wait()
	stop.Store(true)
	rwg.Wait()
	if t.Failed() {
		return
	}

	if want := stable + writers*churn/2; h.Len() != want {
		t.Fatalf("len %d after churn, want %d", h.Len(), want)
	}
	for w := uint64(0); w < writers; w++ {
		for i := uint64(0); i < churn; i++ {
			rid, ok := h.Lookup(churnKey(w, uint64(rounds), i))
			if ok != (i%2 == 0) || (ok && rid != churnRid(w, uint64(rounds), i, 0)) {
				t.Fatalf("final churn key (%d,%d) got (%d,%v)", w, i, rid, ok)
			}
		}
	}
	if n := rebuilds.Load(); n < int64(rounds) {
		t.Fatalf("only %d rebuilds seen over %d rounds; the test no longer churns tables", n, rounds)
	}
	t.Logf("%d rebuilds over %d rounds", rebuilds.Load(), rounds)
}

// TestHashHighBitKeysSpread checks that keys differing only above bit 32,
// as TPC-C's packed composite keys do, spread over their shard's slots. The
// low 32 bits of key*fib are zero for such keys, so a slot index taken from
// the hash's low bits would pile every key of a shard into one run of
// occupied slots; one taken from the high bits below the shard bits spreads
// them. The check reads the tables: the longest run of occupied slots in
// any shard must stay short.
func TestHashHighBitKeysSpread(t *testing.T) {
	for _, shift := range []uint{32, 40, 48} {
		const n = 4096 // about 64 keys per shard, in 128-slot tables
		h := NewHash("tpcc", 0)
		for i := uint64(0); i < n; i++ {
			h.Insert(i<<shift, storage.RecordID(i))
		}
		longest := 0
		for i := range h.shards {
			slots := h.shards[i].tab.Load().slots
			run := 0
			for j := 0; j < 2*len(slots); j++ { // twice round: runs wrap
				if slots[j%len(slots)].ref.Load() == refEmpty {
					run = 0
					continue
				}
				run++
				longest = max(longest, min(run, len(slots)))
			}
		}
		if longest > 32 {
			t.Fatalf("keys i<<%d: a run of %d occupied slots; high-bit keys are not spreading", shift, longest)
		}
		for i := uint64(0); i < n; i++ {
			if rid, ok := h.Lookup(i << shift); !ok || rid != storage.RecordID(i) {
				t.Fatalf("keys i<<%d: lookup %d got (%d,%v)", shift, i, rid, ok)
			}
		}
		t.Logf("keys i<<%d: longest occupied run %d", shift, longest)
	}
}

// BenchmarkHashLookup measures Lookup over 262 144 keys loaded in order,
// as the YCSB table is, from RunParallel readers drawing keys uniformly or
// from a theta = 0.9 Zipfian. Run at -cpu 1,2 it shows whether readers of
// the same shards slow each other down.
func BenchmarkHashLookup(b *testing.B) {
	const n = 1 << 18
	h := NewHash("bench", 0)
	for k := uint64(0); k < n; k++ {
		h.Insert(k, storage.RecordID(k))
	}
	for _, c := range []struct {
		name  string
		theta float64
	}{{"uniform", 0}, {"zipf0.9", 0.9}} {
		// Draws are made up front so the benchmark times the probe, not
		// the generator.
		z := xrand.NewZipf(xrand.New(7), n, c.theta)
		draws := make([]uint64, 1<<20)
		for i := range draws {
			draws[i] = z.Next()
		}
		b.Run(c.name, func(b *testing.B) {
			var next atomic.Uint64
			var sink atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := next.Add(1<<12) - 1
				var sum uint64
				for pb.Next() {
					rid, _ := h.Lookup(draws[i&(uint64(len(draws))-1)])
					sum += uint64(rid)
					i++
				}
				sink.Add(sum)
			})
		})
	}
}
