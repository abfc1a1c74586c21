// Package index provides the two index families the engine composes over:
// a partitioned open-addressing hash index for point lookups, whose reads
// take no lock, and a concurrent B+ tree (latch crabbing) for ordered
// access and range scans.
//
// Keys are uint64. Composite benchmark keys (warehouse, district, ...) are
// packed into 64 bits by the workload layer; this keeps the hot lookup path
// free of allocation and comparison indirection, matching the design of the
// research engines the keynote surveys.
package index

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"next700/internal/prefetch"
	"next700/internal/storage"
)

// Index is the interface the engine programs against. Implementations must
// be safe for concurrent use.
//
// Insert is idempotent-on-conflict: inserting an existing key fails and
// reports the incumbent record so unique-constraint handling is cheap.
type Index interface {
	// Name returns the index name.
	Name() string
	// Insert maps key to rid. If key is already present, Insert returns the
	// existing record id and false and does not modify the index.
	Insert(key uint64, rid storage.RecordID) (storage.RecordID, bool)
	// Lookup returns the record mapped to key, or (InvalidRecordID, false).
	Lookup(key uint64) (storage.RecordID, bool)
	// Delete removes key; it reports whether the key was present.
	Delete(key uint64) bool
	// Len returns the number of keys currently indexed.
	Len() int
	// Iterate visits every entry until fn returns false. Visit order is
	// implementation-defined. Not atomic with respect to concurrent
	// writers; intended for quiesced phases (checkpointing, verification).
	Iterate(fn func(key uint64, rid storage.RecordID) bool)
}

// Ranger is implemented by ordered indexes that support range scans.
type Ranger interface {
	Index
	// Scan visits keys in [lo, hi] in ascending order until fn returns
	// false. It returns the number of entries visited.
	Scan(lo, hi uint64, fn func(key uint64, rid storage.RecordID) bool) int
	// ScanDesc visits keys in [lo, hi] in descending order until fn returns
	// false. It returns the number of entries visited.
	ScanDesc(lo, hi uint64, fn func(key uint64, rid storage.RecordID) bool) int
}

const (
	// hashShardBits is log2 of the number of independently locked
	// partitions in the hash index.
	hashShardBits = 6
	hashShards    = 1 << hashShardBits
	// minTableBits is log2 of the smallest shard table.
	minTableBits = 3
	// fib is 2^64 divided by the golden ratio: multiplying by it spreads
	// every key bit into the high bits of the product (Fibonacci hashing).
	fib = 0x9e3779b97f4a7c15
)

// Slot states. A slot's ref is refEmpty until a key is placed in it, then
// rid+1 while the key is live and refTomb once it is deleted.
const (
	refEmpty = 0
	refTomb  = ^uint64(0)
)

// hashSlot is one open-addressing slot. key is stored before ref, and
// within one table a slot's key never changes once ref is nonzero.
type hashSlot struct {
	key atomic.Uint64
	ref atomic.Uint64
}

// hashTable is a power-of-two array of slots, linearly probed. It is only
// written while it is its shard's current table.
type hashTable struct {
	slots []hashSlot
	mask  uint64
	shift uint // 64 - log2(len(slots))
}

// tableBits returns log2 of the smallest table that need keys fill at most
// half of.
func tableBits(need int) uint {
	bits := uint(minTableBits)
	for need > 1<<(bits-1) {
		bits++
	}
	return bits
}

func newHashTable(bits uint) *hashTable {
	return &hashTable{
		slots: make([]hashSlot, 1<<bits),
		mask:  1<<bits - 1,
		shift: 64 - bits,
	}
}

// home returns the index of the first slot a key with hash x probes. The
// top hashShardBits of x chose the shard, so it comes from the bits below
// them.
func (t *hashTable) home(x uint64) uint64 { return (x << hashShardBits) >> t.shift }

// probe walks key's probe sequence from its home slot and returns the slot
// holding key (live or tombstone) or the empty slot that ends the sequence,
// with the ref it read there. x is the key's hash.
func (t *hashTable) probe(x, key uint64) (*hashSlot, uint64) {
	for i := t.home(x); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		r := s.ref.Load()
		if r == refEmpty || s.key.Load() == key {
			return s, r
		}
	}
}

type hashShard struct {
	tab atomic.Pointer[hashTable]
	// mu serialises writers; readers never take it.
	mu   sync.Mutex
	live int      // keys present; guarded by mu
	used int      // non-empty slots in tab, live or tombstone; guarded by mu
	_    [32]byte // pads the shard to a 64-byte line
}

// rebuild publishes a fresh table holding the shard's live keys, sized so
// that need keys fill at most half of it, and returns it. Tombstones are
// dropped. The old table is never written again, so readers still probing
// it see a consistent snapshot.
func (s *hashShard) rebuild(old *hashTable, need int) *hashTable {
	t := newHashTable(tableBits(need))
	for i := range old.slots {
		o := &old.slots[i]
		if r := o.ref.Load(); r != refEmpty && r != refTomb {
			k := o.key.Load()
			n, _ := t.probe(k*fib, k)
			n.key.Store(k)
			n.ref.Store(r)
		}
	}
	s.tab.Store(t)
	s.used = s.live
	return t
}

// Hash is a partitioned open-addressing hash index. Lookup takes no lock
// and writes no shared memory: it loads its shard's current table and
// probes it with atomic loads. That is safe without a version check
// because a slot's key is written before its ref and never changes within a
// table, a tombstone is revived only by its own key, and any other reuse of
// space goes through a rebuild into a new table published by pointer.
// Writers (Insert, Delete and the rebuilds they trigger) hold the shard's
// mutex. A table is rebuilt when live keys plus tombstones would pass 3/4
// of its slots, to a size they fill at most half of.
type Hash struct {
	shards [hashShards]hashShard
	name   string
}

// NewHash creates an empty hash index. sizeHint is a per-index expected key
// count used to presize the shard tables (0 is fine).
func NewHash(name string, sizeHint int) *Hash {
	h := &Hash{name: name}
	bits := tableBits(sizeHint / hashShards)
	for i := range h.shards {
		h.shards[i].tab.Store(newHashTable(bits))
	}
	return h
}

// Name implements Index.
func (h *Hash) Name() string { return h.name }

func (h *Hash) shard(key uint64) *hashShard {
	return &h.shards[(key*fib)>>(64-hashShardBits)]
}

// Insert implements Index. rid must be below InvalidRecordID-1.
func (h *Hash) Insert(key uint64, rid storage.RecordID) (storage.RecordID, bool) {
	if rid >= storage.InvalidRecordID-1 {
		panic("index: record id out of range for the hash index")
	}
	ref := uint64(rid) + 1
	x := key * fib
	s := h.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tab.Load()
	slot, r := t.probe(x, key)
	switch r {
	case refEmpty:
		if (s.used+1)*4 > len(t.slots)*3 {
			slot, _ = s.rebuild(t, s.live+1).probe(x, key)
		}
		slot.key.Store(key)
		slot.ref.Store(ref)
		s.used++
	case refTomb:
		slot.ref.Store(ref)
	default:
		return storage.RecordID(r - 1), false
	}
	s.live++
	return rid, true
}

// Lookup implements Index.
func (h *Hash) Lookup(key uint64) (storage.RecordID, bool) {
	x := key * fib
	_, r := h.shard(key).tab.Load().probe(x, key)
	if r == refEmpty || r == refTomb {
		return storage.InvalidRecordID, false
	}
	return storage.RecordID(r - 1), true
}

// Prefetch hints the cache line of key's home slot, the first slot Lookup
// probes, so that a Lookup of key soon after finds it cached. The address
// comes from the key alone; the hint reads no slot and never waits for the
// line, so a caller can emit many before the first Lookup.
//
//next700:hotpath
func (h *Hash) Prefetch(key uint64) {
	t := h.shard(key).tab.Load()
	prefetch.Line(unsafe.Pointer(&t.slots[t.home(key*fib)]))
}

// Delete implements Index.
func (h *Hash) Delete(key uint64) bool {
	x := key * fib
	s := h.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, r := s.tab.Load().probe(x, key)
	if r == refEmpty || r == refTomb {
		return false
	}
	slot.ref.Store(refTomb)
	s.live--
	return true
}

// Len implements Index.
func (h *Hash) Len() int {
	n := 0
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		n += s.live
		s.mu.Unlock()
	}
	return n
}

// Iterate implements Index: shard by shard, over each shard's current
// table, without locks.
func (h *Hash) Iterate(fn func(key uint64, rid storage.RecordID) bool) {
	for i := range h.shards {
		t := h.shards[i].tab.Load()
		for j := range t.slots {
			s := &t.slots[j]
			if r := s.ref.Load(); r != refEmpty && r != refTomb {
				if !fn(s.key.Load(), storage.RecordID(r-1)) {
					return
				}
			}
		}
	}
}
