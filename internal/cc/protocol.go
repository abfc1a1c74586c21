// Package cc implements the engine's pluggable concurrency-control
// protocols — the axis of the design space the keynote spends most of its
// time on. Eight protocols are provided behind one interface:
//
//	NO_WAIT    two-phase locking, abort immediately on conflict
//	WAIT_DIE   two-phase locking, age-based wait/abort
//	DL_DETECT  two-phase locking, waits-for graph deadlock detection
//	TIMESTAMP  basic timestamp ordering (T/O)
//	MVCC       multi-version T/O with version chains and GC
//	SILO       OCC with per-record TID words and Silo's commit validation
//	TICTOC     timestamp computation with read-timestamp extension
//	HSTORE     partition-level locking, single-threaded partition semantics
//
// All protocols provide serializability (MVCC can optionally run at weaker
// isolation for the isolation-ablation experiment). Writes are buffered in
// the transaction write set and applied at commit; reads return images that
// remain valid until the transaction ends.
package cc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"next700/internal/storage"
	"next700/internal/txn"
)

// Protocol is the concurrency-control interface the engine composes over.
// Implementations must be safe for concurrent use by the configured number
// of worker threads.
type Protocol interface {
	Loader

	// Name returns the canonical scheme name (e.g. "SILO").
	Name() string

	// Begin initializes protocol state for a transaction attempt. The
	// descriptor has been Reset by the caller.
	Begin(tx *txn.Txn)

	// Read returns a stable image of the record, recording the access. The
	// returned slice must remain valid until Commit/Abort. The caller has
	// already resolved own-writes; Read only sees committed state plus
	// protocol-internal pending state.
	Read(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, error)

	// ReadForUpdate returns a writable after-image buffer seeded with the
	// record's current value and records a write-set entry. Mutations to
	// the buffer become visible atomically at commit.
	ReadForUpdate(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, error)

	// RegisterInsert takes ownership of a freshly allocated record (absent
	// until a writer makes it present) so that it becomes visible to others
	// only at commit, when data is installed and the record made live. The
	// engine publishes the index entry after RegisterInsert returns;
	// concurrent readers that chase it must be handled per protocol
	// (blocked, aborted, or shown an invisible record).
	RegisterInsert(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID, key uint64, data []byte) error

	// RegisterDelete records intent to delete the record at commit. The
	// access it records carries the deleted image in Data: the engine's
	// post-commit index retraction extracts secondary keys from it.
	RegisterDelete(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID, key uint64) error

	// Commit validates and installs the transaction. On success all writes
	// are visible; on txn.ErrConflict the transaction has been fully rolled
	// back (as if Abort ran) and may be retried by the caller.
	Commit(tx *txn.Txn) error

	// Abort rolls back the attempt, releasing all protocol state. The
	// engine retracts index entries for the transaction's inserts after
	// Abort returns.
	Abort(tx *txn.Txn)

	// Prefetch hints the cache lines an access to the record reads first,
	// so that an access that follows finds them cached; Tx.Prefetch and the
	// deterministic executor's lookahead call it for records ahead of their
	// use, and the misses overlap with whatever runs meanwhile. It emits
	// hints only (prefetch.Line): it reads nothing, writes nothing, records
	// no access and never makes a metadata chunk — a record whose metadata
	// does not exist yet is skipped — so it cannot block, allocate or take a
	// lock, and it may hint memory others write plainly, the table arena
	// included.
	Prefetch(tbl *storage.Table, rid storage.RecordID)
}

// PartitionAware is implemented by protocols (H-Store) that need the
// transaction's partition set declared before any access.
type PartitionAware interface {
	// DeclarePartitions acquires whatever partition-level protection the
	// protocol uses. Must be called after Begin and before any access.
	DeclarePartitions(tx *txn.Txn, parts []int) error
}

// PlannerDriven is implemented by a protocol that detects no conflicts
// (QSTORE): it is sound only when a planner has ordered every access to a
// record ahead of time, so only the deterministic executor may drive it.
type PlannerDriven interface {
	// DetectsNoConflicts marks the protocol; it does nothing.
	DetectsNoConflicts()
}

// Loader is the protocol's ownership of a record's committed image: where
// a committed row lives (the table arena, SILO's slot words, MVCC's version
// chain) is the protocol's business, and the engine installs and reads rows
// outside transactions only through these two methods — at load, checkpoint
// apply, log replay, partition clear, index backfill and state digest.
// Neither runs concurrently with a transaction on the same record.
type Loader interface {
	// LoadRecord installs data as the record's committed image, or marks
	// the record absent when data is nil. data is copied; key is the
	// record's primary key.
	LoadRecord(tbl *storage.Table, rid storage.RecordID, key uint64, data []byte)
	// Committed returns the record's committed image and whether the
	// record is present. For quiescent callers only: the image may alias
	// protocol storage that the next commit overwrites.
	Committed(tbl *storage.Table, rid storage.RecordID) ([]byte, bool)
}

// arenaRows is the Loader of the protocols that install writes in place
// (the 2PL family, TIMESTAMP, TICTOC, HSTORE, QSTORE): the committed image
// is the table arena's row, and presence its live bit. Only these protocols
// ever touch the arena, so only their tables ever make arena chunks.
type arenaRows struct{}

// LoadRecord implements Loader. An absent record's row is left as it is:
// nothing reads the row of a record that is not live.
func (arenaRows) LoadRecord(tbl *storage.Table, rid storage.RecordID, key uint64, data []byte) {
	if data != nil {
		copy(tbl.Row(rid), data)
	}
	tbl.SetLive(rid, data != nil)
}

// Committed implements Loader.
func (arenaRows) Committed(tbl *storage.Table, rid storage.RecordID) ([]byte, bool) {
	if !tbl.IsLive(rid) {
		return nil, false
	}
	return tbl.Row(rid), true
}

// arenaPrefetch is the Prefetch of the protocols whose committed image is
// the table arena (the 2PL family, TIMESTAMP, TICTOC, HSTORE, QSTORE): it
// hints the row's lines and its live bit, which every access reads first.
type arenaPrefetch struct{}

// Prefetch implements Protocol.
//
//next700:hotpath
func (arenaPrefetch) Prefetch(tbl *storage.Table, rid storage.RecordID) { tbl.Prefetch(rid) }

// Env carries the shared runtime services protocols draw on.
type Env struct {
	// TS is the central timestamp allocator (TO, MVCC, WAIT_DIE priorities).
	TS *txn.TimestampSource
	// Active tracks per-thread active begin-timestamps for MVCC garbage
	// collection.
	Active *ActiveTable
	// NumThreads is the worker count the engine was configured with.
	NumThreads int
	// NumPartitions is the partition count for HSTORE (>= 1). Records are
	// assigned to partitions by primary key (key mod NumPartitions) unless
	// PartitionOf overrides the mapping.
	NumPartitions int
	// PartitionOf, when non-nil, maps (table, primary key) to a partition
	// for HSTORE. Workloads install it to partition by their own notion of
	// locality (e.g. TPC-C warehouses).
	PartitionOf func(tbl *storage.Table, key uint64) int
	// IsolationLevel tunes MVCC: "serializable" (default), "snapshot",
	// "read-committed".
	IsolationLevel string
}

// NewEnv builds an Env with fresh sources.
func NewEnv(numThreads int) *Env {
	if numThreads <= 0 {
		numThreads = 1
	}
	return &Env{
		TS:            &txn.TimestampSource{},
		Active:        NewActiveTable(numThreads),
		NumThreads:    numThreads,
		NumPartitions: 1,
	}
}

// New constructs the named protocol. Names are case-sensitive canonical
// identifiers; see Names.
func New(name string, env *Env) (Protocol, error) {
	switch name {
	case "NO_WAIT":
		return newTwoPL(env, variantNoWait), nil
	case "WAIT_DIE":
		return newTwoPL(env, variantWaitDie), nil
	case "DL_DETECT":
		return newTwoPL(env, variantDLDetect), nil
	case "TIMESTAMP":
		return newTO(env), nil
	case "MVCC":
		return newMVCC(env), nil
	case "SILO":
		return newSilo(env), nil
	case "TICTOC":
		return newTicToc(env), nil
	case "HSTORE":
		return newHStore(env), nil
	case "QSTORE":
		// Deterministic pass-through: only sound under the queue-oriented
		// scheduler (core.DetExecutor), so it is constructible here but not
		// part of Names' interactive sweep.
		return newQStore(env), nil
	default:
		// Config-time validation, never an abort path: no transaction is
		// running when protocol construction fails.
		return nil, fmt.Errorf("cc: unknown protocol %q", name) //next700:allowabort(config-time constructor error; no abort path reaches this)
	}
}

// Names lists the canonical protocol names in presentation order.
func Names() []string {
	return []string{"NO_WAIT", "WAIT_DIE", "DL_DETECT", "TIMESTAMP", "MVCC", "SILO", "TICTOC", "HSTORE"}
}

// ActiveTable tracks the begin-timestamp of the transaction currently
// running on each worker thread (MaxUint64 when idle). MVCC GC prunes
// versions no active transaction can reach.
type ActiveTable struct {
	slots []atomic.Uint64
}

// NewActiveTable creates a table for n threads.
func NewActiveTable(n int) *ActiveTable {
	at := &ActiveTable{slots: make([]atomic.Uint64, n)}
	for i := range at.slots {
		at.slots[i].Store(^uint64(0))
	}
	return at
}

// Enter marks thread as running a transaction with the given begin-ts.
func (at *ActiveTable) Enter(thread int, ts uint64) {
	if thread < len(at.slots) {
		at.slots[thread].Store(ts)
	}
}

// Leave marks thread idle.
func (at *ActiveTable) Leave(thread int) {
	if thread < len(at.slots) {
		at.slots[thread].Store(^uint64(0))
	}
}

// Min returns the smallest active begin-ts, or MaxUint64 if none.
func (at *ActiveTable) Min() uint64 {
	min := ^uint64(0)
	for i := range at.slots {
		if v := at.slots[i].Load(); v < min {
			min = v
		}
	}
	return min
}

// tableMetas maps table id -> the per-record metadata of a protocol that
// keeps any: one storage.Slots per table, made on the table's first record
// access. Table ids are small and dense. The directory is copy-on-write behind
// one atomic pointer, so resolving a table writes no shared word: every
// record access of every worker goes through here.
type tableMetas[T any] struct {
	mu   sync.Mutex // serializes directory growth
	byID atomic.Pointer[[]*storage.Slots[T]]
	// stride, when set, sizes a table's per-record run of slots; nil is 1.
	stride func(tbl *storage.Table) int
}

func (tm *tableMetas[T]) forTable(tbl *storage.Table) *storage.Slots[T] {
	if s := tm.existing(tbl); s != nil {
		return s
	}
	stride := 1
	if tm.stride != nil {
		stride = tm.stride(tbl)
	}
	return tm.add(tbl.ID(), stride)
}

// existing returns tbl's metadata, or nil if none was created yet.
func (tm *tableMetas[T]) existing(tbl *storage.Table) *storage.Slots[T] {
	if dir, id := tm.byID.Load(), tbl.ID(); dir != nil && id < len(*dir) {
		return (*dir)[id]
	}
	return nil
}

// add installs table id's metadata (once; a racing caller gets the winner's).
//
//next700:allowalloc(first-touch slow path: a table's metadata array is made once, on the table's first record access)
func (tm *tableMetas[T]) add(id, stride int) *storage.Slots[T] {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	var dir []*storage.Slots[T]
	if p := tm.byID.Load(); p != nil {
		dir = *p
	}
	if id < len(dir) && dir[id] != nil {
		return dir[id]
	}
	grown := append([]*storage.Slots[T](nil), dir...)
	for id >= len(grown) {
		grown = append(grown, nil)
	}
	grown[id] = storage.NewSlots[T](stride)
	tm.byID.Store(&grown)
	return grown[id]
}

// get resolves the (first) metadata slot for (tbl, rid).
func (tm *tableMetas[T]) get(tbl *storage.Table, rid storage.RecordID) *T {
	return &tm.forTable(tbl).At(rid)[0]
}

// slots resolves the stride slots for (tbl, rid).
func (tm *tableMetas[T]) slots(tbl *storage.Table, rid storage.RecordID) []T {
	return tm.forTable(tbl).At(rid)
}

// peek resolves the stride slots for (tbl, rid) without creating or growing
// anything: nil when the table's metadata or rid's chunk does not exist yet.
func (tm *tableMetas[T]) peek(tbl *storage.Table, rid storage.RecordID) []T {
	if s := tm.existing(tbl); s != nil {
		return s.Peek(rid)
	}
	return nil
}

// applyWrite installs an access's after-image into the table arena: an
// insert makes the record live, a delete makes it absent. Caller must hold
// whatever write protection the protocol requires.
func applyWrite(a *txn.Access) {
	switch a.Kind {
	case txn.KindWrite, txn.KindInsert:
		copy(a.Table.Row(a.RID), a.Data)
		if a.Kind == txn.KindInsert {
			a.Table.SetLive(a.RID, true)
		}
	case txn.KindDelete:
		a.Table.SetLive(a.RID, false)
	}
}
