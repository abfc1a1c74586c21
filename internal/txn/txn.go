// Package txn defines the transaction runtime shared by every concurrency
// control protocol: the transaction descriptor with its ordered access set,
// a per-transaction bump allocator for row images, a timestamp source, and
// the abort/conflict error taxonomy.
//
// A single descriptor type serves all protocols. Protocol-specific state is
// carried in two scratch words per access (Obs/Obs2) and a per-descriptor
// scratch pointer, so descriptors are pooled and reused across protocols
// without allocation on the hot path.
package txn

import (
	"errors"
	"sync/atomic"
	"time"

	"next700/internal/stats"
	"next700/internal/storage"
	"next700/internal/xrand"
)

// ErrConflict is returned (wrapped or bare) by protocol operations when the
// transaction must abort due to a serializability conflict. The engine
// treats it as retryable.
var ErrConflict = errors.New("txn: conflict, transaction aborted")

// ErrUserAbort is returned when the transaction body itself requested an
// abort. It is not retried.
var ErrUserAbort = errors.New("txn: aborted by user")

// ErrNotFound is returned by reads of keys that do not exist. It is not
// retried.
var ErrNotFound = errors.New("txn: key not found")

// ErrDeadlineExceeded is returned when a transaction's deadline expires
// while it is blocked (lock wait, durability wait, retry backoff) or before
// an attempt can start. It is terminal: retrying cannot recover the budget.
var ErrDeadlineExceeded = errors.New("txn: deadline exceeded")

// ErrDuplicate is returned by inserts of keys that already exist. It is not
// retried.
var ErrDuplicate = errors.New("txn: duplicate key")

// Kind classifies an entry in a transaction's access set.
type Kind uint8

const (
	// KindRead is a committed-data read.
	KindRead Kind = iota
	// KindWrite is an update buffered in the write set.
	KindWrite
	// KindInsert is a new row, published in indexes at access time and made
	// visible at commit.
	KindInsert
	// KindDelete is a tombstone applied at commit.
	KindDelete
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRead:
		return "read"
	case KindWrite:
		return "write"
	case KindInsert:
		return "insert"
	case KindDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// Access is one entry of the ordered access set.
type Access struct {
	Table *storage.Table
	RID   storage.RecordID
	Kind  Kind
	// Key is the primary-index key for inserts/deletes so commit/abort can
	// publish or retract index entries.
	Key uint64
	// Data is the transaction-local row image for writes and inserts; it
	// points into the descriptor's arena.
	Data []byte
	// Obs and Obs2 are protocol scratch words (observed TID for Silo, wts
	// and rts for TicToc, version pointer for MVCC, lock mode for 2PL...).
	Obs  uint64
	Obs2 uint64
}

// Txn is a transaction descriptor. Descriptors belong to a single worker
// and are reset and reused between transactions.
type Txn struct {
	// ID is the protocol-assigned identity (timestamp for TO/MVCC/wait-die,
	// TID for Silo, 0 until commit for pure OCC schemes that assign late).
	ID uint64
	// Priority is a monotone per-transaction stamp assigned at Begin and
	// stable across retries of the same logical transaction, so wait-die
	// style age-based victim selection is starvation-free.
	Priority uint64
	// ThreadID is the worker slot executing this transaction.
	ThreadID int
	// Deadline is the absolute wall-clock deadline in Unix nanoseconds
	// (0 = none). It survives Reset so every retry of the same logical
	// transaction charges against one budget; protocols consult it before
	// blocking and the engine's retry loop charges backoff sleeps to it.
	// A plain int64 rather than a context.Context keeps the hot path
	// allocation- and interface-free.
	Deadline int64

	// Accesses is the ordered access set.
	Accesses []Access

	// Counter accumulates per-worker statistics.
	Counter *stats.Counter
	// RNG is the worker-local random source for transaction bodies.
	RNG *xrand.RNG

	// Scratch is per-protocol descriptor state (e.g. the MVCC read view).
	Scratch interface{}

	arena    []byte
	arenaOff int
	writeIdx []int

	// writeSig is a Bloom-style signature over the (table, rid) pairs of
	// the non-read entries of Accesses[:writeSigN]. FindWrite builds it
	// lazily once the access set passes writeSigMin, brings it up to date
	// with any entries appended since (directly or by AddAccess), and
	// answers nil without scanning when the pair's bit is clear. Only Reset
	// truncates Accesses; it clears the signature with it.
	writeSig  [writeSigWords]uint64
	writeSigN int
}

// NewTxn returns a descriptor with a private arena.
func NewTxn(threadID int, rng *xrand.RNG, counter *stats.Counter) *Txn {
	return &Txn{
		ThreadID: threadID,
		RNG:      rng,
		Counter:  counter,
		Accesses: make([]Access, 0, 64),
		arena:    make([]byte, 16*1024),
	}
}

// Reset prepares the descriptor for a fresh transaction attempt. Priority is
// preserved (retries keep their age); call ClearPriority between logical
// transactions.
func (t *Txn) Reset() {
	t.ID = 0
	t.Accesses = t.Accesses[:0]
	t.arenaOff = 0
	if t.writeSigN != 0 {
		t.writeSig = [writeSigWords]uint64{}
		t.writeSigN = 0
	}
}

// ClearPriority forgets the wait-die age stamp; the next Begin assigns a
// fresh one.
func (t *Txn) ClearPriority() { t.Priority = 0 }

// Expired reports whether the transaction's deadline has passed. The clock
// is read only when a deadline is set, so deadline-free transactions pay a
// single predictable branch.
func (t *Txn) Expired() bool {
	return t.Deadline != 0 && time.Now().UnixNano() >= t.Deadline
}

// Buf bump-allocates n bytes from the descriptor arena, growing it if
// needed. The memory is valid until Reset.
func (t *Txn) Buf(n int) []byte {
	if t.arenaOff+n > len(t.arena) {
		// Grow by doubling; the old arena stays referenced by earlier
		// accesses until Reset, which is fine — it is garbage afterwards.
		size := 2 * len(t.arena)
		for size < n {
			size *= 2
		}
		t.arena = make([]byte, size) //next700:allowalloc(arena growth is amortized by doubling; the steady state reuses retained capacity)
		t.arenaOff = 0
	}
	b := t.arena[t.arenaOff : t.arenaOff+n : t.arenaOff+n]
	t.arenaOff += n
	return b
}

// AddAccess appends an entry to the access set and returns a pointer to it
// (stable only until the next AddAccess).
//
//next700:hotpath
func (t *Txn) AddAccess(a Access) *Txn {
	t.Accesses = append(t.Accesses, a)
	return t
}

// FindWrite returns the latest write-set entry (write, insert or delete) for
// (table, rid), or nil. Used for own-write visibility. Past writeSigMin
// accesses the write signature answers most misses without a scan, so a
// transaction with many reads does not pay for them on every lookup.
func (t *Txn) FindWrite(table *storage.Table, rid storage.RecordID) *Access {
	if len(t.Accesses) > writeSigMin && !t.mayHaveWrite(table, rid) {
		return nil
	}
	for i := len(t.Accesses) - 1; i >= 0; i-- {
		a := &t.Accesses[i]
		if a.Table == table && a.RID == rid && a.Kind != KindRead {
			return a
		}
	}
	return nil
}

// mayHaveWrite reports whether (table, rid)'s bit is set in the write
// signature, first extending the signature over entries appended since the
// last call. An access set shorter than the signature's cover was truncated
// without Reset, so the signature is rebuilt from scratch.
func (t *Txn) mayHaveWrite(table *storage.Table, rid storage.RecordID) bool {
	n := len(t.Accesses)
	if t.writeSigN > n {
		t.writeSig = [writeSigWords]uint64{}
		t.writeSigN = 0
	}
	for ; t.writeSigN < n; t.writeSigN++ {
		if a := &t.Accesses[t.writeSigN]; a.Kind != KindRead {
			b := writeSigBit(a.Table, a.RID)
			t.writeSig[b>>6] |= 1 << (b & 63)
		}
	}
	b := writeSigBit(table, rid)
	return t.writeSig[b>>6]&(1<<(b&63)) != 0
}

// writeSigMin is the access-set size up to which FindWrite just scans: a
// short scan costs less than hashing into and maintaining the signature.
const writeSigMin = 16

// writeSigWords sizes the write signature: 1024 bits keep false positives
// near 10 % at the ~130 writes of a TPC-C delivery, and Reset clears it in
// two cache lines.
const writeSigWords = 16

// writeSigBit hashes (table, rid) to one of the signature's 1024 bits.
func writeSigBit(table *storage.Table, rid storage.RecordID) uint64 {
	h := uint64(rid)
	if table != nil {
		h += uint64(table.ID()) << 48
	}
	return (h * 0x9E3779B97F4A7C15) >> (64 - 10)
}

// SortedWriteIndices returns the indices of the non-read accesses sorted by
// (table id, rid) — the canonical deadlock-free lock acquisition order used
// by OCC commit phases. The returned slice is descriptor-owned scratch,
// valid until the next call; capacity is retained across transactions so the
// steady state allocates nothing.
//
//next700:hotpath
func (t *Txn) SortedWriteIndices() []int {
	idxs := t.writeIdx[:0]
	for i := range t.Accesses {
		if t.Accesses[i].Kind != KindRead {
			idxs = append(idxs, i)
		}
	}
	// Insertion sort: write sets are small and this avoids the closure and
	// interface allocations of sort.Slice on the commit hot path.
	for i := 1; i < len(idxs); i++ {
		for j := i; j > 0 && writeOrderLess(&t.Accesses[idxs[j]], &t.Accesses[idxs[j-1]]); j-- {
			idxs[j], idxs[j-1] = idxs[j-1], idxs[j]
		}
	}
	t.writeIdx = idxs
	return idxs
}

func writeOrderLess(a, b *Access) bool {
	if a.Table.ID() != b.Table.ID() {
		return a.Table.ID() < b.Table.ID()
	}
	return a.RID < b.RID
}

// HasWrites reports whether the access set contains any mutation.
func (t *Txn) HasWrites() bool {
	for i := range t.Accesses {
		if t.Accesses[i].Kind != KindRead {
			return true
		}
	}
	return false
}

// TimestampSource hands out globally unique, monotonically increasing
// timestamps from a single atomic counter — the classic centralized
// allocator whose contention the many-core experiments quantify.
type TimestampSource struct {
	ctr atomic.Uint64
}

// Next returns the next timestamp (starting at 1; 0 means "none").
func (s *TimestampSource) Next() uint64 { return s.ctr.Add(1) }

// Last returns the most recently issued timestamp.
func (s *TimestampSource) Last() uint64 { return s.ctr.Load() }
