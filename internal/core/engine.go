// Package core is the engine kernel: it composes storage tables, index
// structures, a pluggable concurrency-control protocol, and an optional
// write-ahead log into a runnable transaction processing engine — the
// "composable engine" the keynote argues the next 700 designs should be
// instances of.
//
// The public façade package (next700) wraps this kernel with a stable API;
// workloads and benchmarks drive it directly.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"next700/internal/cc"
	"next700/internal/index"
	"next700/internal/stats"
	"next700/internal/storage"
	"next700/internal/txn"
	"next700/internal/wal"
)

// IndexKind selects the index family for a table's primary or secondary
// index.
type IndexKind int

const (
	// IndexHash is a partitioned hash index: point lookups only.
	IndexHash IndexKind = iota
	// IndexBTree is a concurrent B+ tree: point lookups and range scans.
	IndexBTree
)

// Config selects a point in the engine design space.
type Config struct {
	// Protocol is the concurrency-control scheme (see cc.Names).
	Protocol string
	// Threads is the number of worker slots; ThreadIDs passed to NewTx must
	// be < Threads.
	Threads int
	// Partitions is the partition count (HSTORE; also used by workloads).
	Partitions int
	// Isolation tunes MVCC ("serializable" default, "snapshot",
	// "read-committed").
	Isolation string
	// LogMode selects durability: none, value, or command logging.
	LogMode wal.Mode
	// LogDevice is shorthand for a one-stream log: when LogDevices is empty
	// it is normalised to LogDevices = [LogDevice].
	LogDevice wal.Device
	// WALStreams is the log's stream count (0 = len(LogDevices)). The engine
	// logs through one wal.StreamSet at every count: workers append to stream
	// threadID % WALStreams and commit waits block on the epoch-based
	// durable frontier; one stream is the classic single group-commit log.
	WALStreams int
	// LogDevices are the per-stream durable sinks; exactly WALStreams
	// devices are required.
	LogDevices []wal.Device
	// Deprecated: GroupCommitWindow is ignored — the log paces its own flush
	// rounds (wal.StreamSet) — and read by nothing; it stays only because the
	// frozen benchmark/engine.go:108 still sets it.
	GroupCommitWindow time.Duration
	// PartitionWAL shards the parallel WAL by partition instead of worker
	// thread: stream p is partition p's log (WALStreams must equal
	// Partitions, value mode only, at most 64 partitions), commits append to
	// every stream their write set touches, and a stream's device failure
	// degrades only its partition — the log quarantines it, the engine
	// sheds its transactions with ErrPartitionUnavailable, and the healthy
	// partitions keep committing durably. See QuarantinePartition and
	// Checkpointer.RecoverPartition.
	PartitionWAL bool
	// QuarantineStall, when > 0, is the gray-failure escalation threshold
	// of a PartitionWAL log (Open rejects it without one): a stream whose
	// device has held a batch (write plus sync) for this long without
	// acknowledging it is failed and quarantined as if its device had
	// errored. Zero disables stall escalation.
	QuarantineStall time.Duration
}

// normalize fills defaults and validates.
func (c *Config) normalize() error {
	if c.Protocol == "" {
		c.Protocol = "SILO"
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Partitions <= 0 {
		c.Partitions = c.Threads
	}
	if c.LogMode == wal.ModeNone {
		if c.WALStreams > 1 {
			return fmt.Errorf("core: WALStreams requires a logging mode: %w", ErrInvalidUsage)
		}
	} else {
		if len(c.LogDevices) == 0 && c.LogDevice != nil {
			c.LogDevices = []wal.Device{c.LogDevice}
		}
		if len(c.LogDevices) == 0 {
			return fmt.Errorf("core: LogMode %v requires a LogDevice: %w", c.LogMode, ErrInvalidUsage)
		}
		if c.WALStreams <= 0 {
			c.WALStreams = len(c.LogDevices)
		}
		if len(c.LogDevices) != c.WALStreams {
			return fmt.Errorf("core: WALStreams=%d requires exactly that many LogDevices, have %d: %w",
				c.WALStreams, len(c.LogDevices), ErrInvalidUsage)
		}
	}
	if c.QuarantineStall > 0 && !c.PartitionWAL {
		return fmt.Errorf("core: QuarantineStall requires PartitionWAL: %w", ErrInvalidUsage)
	}
	if c.PartitionWAL {
		if c.WALStreams <= 1 {
			return fmt.Errorf("core: PartitionWAL requires WALStreams > 1: %w", ErrInvalidUsage)
		}
		if c.LogMode != wal.ModeValue {
			// Command replay re-executes procedures, which cannot be sliced
			// per partition or replayed idempotently from a fuzzy base.
			return fmt.Errorf("core: PartitionWAL requires value logging, have %v: %w", c.LogMode, ErrInvalidUsage)
		}
		if c.WALStreams != c.Partitions {
			return fmt.Errorf("core: PartitionWAL requires WALStreams == Partitions, have %d streams for %d partitions: %w",
				c.WALStreams, c.Partitions, ErrInvalidUsage)
		}
		if c.Partitions > 64 {
			// The quarantine mask is one uint64 so the hot-path gate is a
			// single atomic load.
			return fmt.Errorf("core: PartitionWAL supports at most 64 partitions, have %d: %w", c.Partitions, ErrInvalidUsage)
		}
	}
	return nil
}

// secondary is a non-primary index with a key extractor.
type secondary struct {
	name    string
	idx     index.Index
	extract func(sch *storage.Schema, row storage.Row, pk uint64) uint64
}

// Table is the engine-level table handle: storage plus its indexes.
type Table struct {
	tbl         *storage.Table
	sch         *storage.Schema
	primary     index.Index
	secondaries []secondary
	// hash is the primary when CreateTable built it as IndexHash, nil for
	// IndexBTree: Tx.Prefetch resolves keys in it and does nothing on a tree.
	hash *index.Hash
}

// Schema returns the table's schema.
func (t *Table) Schema() *storage.Schema { return t.sch }

// Name returns the table name.
func (t *Table) Name() string { return t.sch.Name() }

// NumRows returns the number of allocated row slots.
func (t *Table) NumRows() uint64 { return t.tbl.NumRows() }

// PrimaryLen returns the number of live keys in the primary index.
func (t *Table) PrimaryLen() int { return t.primary.Len() }

// Ranger returns the primary index as a Ranger if it supports scans.
func (t *Table) ranger() (index.Ranger, bool) {
	r, ok := t.primary.(index.Ranger)
	return r, ok
}

// Proc is a registered stored procedure for command logging: it must be
// deterministic given its parameter blob.
type Proc func(tx *Tx, params []byte) error

// Engine is the composed transaction processing engine.
type Engine struct {
	cfg   Config
	env   *cc.Env
	proto cc.Protocol

	// counters holds one cache-line-padded statistics slot per worker
	// thread; NewTx hands out slot threadID. Workers bump their own slot
	// without synchronization and totals are aggregated only at report
	// time, so the commit hot path never bounces a shared cache line.
	counters *stats.CounterSet

	// tables and byID are the engine's one table catalog: CreateTable
	// assigns each table the next id and registers it in both under mu.
	mu     sync.RWMutex
	tables map[string]*Table
	procs  map[int32]Proc
	// byID is the table directory by table id, copy-on-write behind one
	// atomic pointer (CreateTable publishes a grown copy under mu), so
	// tableByID takes no lock: the deterministic executor's
	// lookahead resolves a table per op, and publish's index retraction and
	// replay per access.
	byID atomic.Pointer[[]*Table]

	// logs is the engine's one log (nil when LogMode is none): a StreamSet
	// of Config.WALStreams streams.
	logs   *wal.StreamSet
	closed bool
	// gated is whether a writer of the quiesce gate can exist (command
	// logging or PartitionWAL), fixed at Open; only then do attempts take
	// it. Ungated, a read lock nobody contends would still be a shared line
	// every worker writes twice per transaction. It sits here, with the
	// read-mostly fields, not beside the gates' reader counts.
	gated bool

	// quarMask is the quarantined-partition bitmask (bit p set = partition
	// p unavailable). Under PartitionWAL the log owns it: it sets bit p in
	// the step that fails stream p and clears it on readmission (see
	// wal.NewStreamSetScoped); it stays zero otherwise. The operation and
	// commit gates load it once; in a healthy engine it is zero and the gate
	// is a single branch.
	quarMask atomic.Uint64

	// Every logged transaction read-locks ckptFence, and every transaction
	// on a gated engine quiesce, so workers write their reader counts. The
	// pad keeps those words off the cache lines of the read-mostly fields
	// above (quarMask, gated, logs, byID), whatever offsets the fields above
	// land at.
	_ [64]byte

	// ckptFence serializes every epoch bump against the commit path's
	// publish-to-append window. Logged commits hold the read side from
	// protocol commit through log append, and the epoch only ever advances
	// under the write side: the log's coordinator takes it for each bump
	// (wal.StreamSet.SetEpochGate), so a commit that observed another's
	// published write never tags below it; and a checkpointer takes it to
	// rotate the log, so every commit is wholly before or wholly after the
	// rotation boundary. Uncontended, the read lock is one atomic on the hot
	// path.
	ckptFence sync.RWMutex

	// quiesce is the transaction-attempt gate: on a gated engine every
	// Tx.run attempt and every DetExecutor fragment holds the read side
	// from Begin through commit/abort. Two things take the write side:
	// command-logged checkpoints, to get a true quiescent point — their
	// state cannot be captured fuzzily because command replay re-executes
	// procedures, which is not idempotent against a partially captured
	// prefix — and RecoverPartition's two drains, which exist only under
	// PartitionWAL. Value-mode checkpoints never take it.
	quiesce sync.RWMutex

	// ckptThread is the reserved worker slot for checkpoint reads:
	// cc.NewEnv is sized one past Config.Threads so the online scan can run
	// protocol reads concurrently with a full complement of workers without
	// sharing per-thread protocol state or a statistics cache line.
	ckptThread int

	// ckptTx is the lazily created context used by checkpoint-phase reads.
	ckptTx *Tx
}

// Open builds an engine for the given configuration.
func Open(cfg Config) (*Engine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	// One extra protocol slot beyond the configured workers: the online
	// checkpointer reads through it (see ckptThread).
	env := cc.NewEnv(cfg.Threads + 1)
	env.NumPartitions = cfg.Partitions
	env.IsolationLevel = cfg.Isolation
	proto, err := cc.New(cfg.Protocol, env)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:      cfg,
		env:      env,
		proto:    proto,
		counters: stats.NewCounterSet(cfg.Threads),
		tables:   make(map[string]*Table),
		procs:    make(map[int32]Proc),
	}
	e.byID.Store(new([]*Table))
	e.ckptThread = cfg.Threads
	e.gated = cfg.LogMode == wal.ModeCommand || cfg.PartitionWAL
	if cfg.LogMode != wal.ModeNone {
		if cfg.PartitionWAL {
			e.logs = wal.NewStreamSetScoped(cfg.LogDevices, &e.quarMask, cfg.QuarantineStall)
		} else {
			e.logs = wal.NewStreamSet(cfg.LogDevices, 0)
		}
		e.logs.SetEpochGate(&e.ckptFence)
	}
	return e, nil
}

// Close stops background work and flushes the log.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	if e.logs != nil {
		return e.logs.Close()
	}
	return nil
}

// counterSlot returns the padded statistics slot for a worker thread.
// ThreadIDs beyond the configured worker count (auxiliary contexts) get a
// private counter so they never contend with measured workers.
func (e *Engine) counterSlot(threadID int) *stats.Counter {
	if threadID >= 0 && threadID < e.counters.Len() {
		return e.counters.Slot(threadID)
	}
	return &stats.Counter{}
}

// TotalCounter aggregates every worker slot's statistics. Exact once
// workers are quiescent.
func (e *Engine) TotalCounter() stats.Counter { return e.counters.Total() }

// Protocol returns the active protocol's name.
func (e *Engine) Protocol() string { return e.proto.Name() }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// CreateTable registers a table with a primary index of the given kind and
// assigns it the next table id. Primary keys are caller-supplied uint64s
// (composite keys are bit-packed by the workload layer). A second table
// under a name already taken is ErrInvalidUsage.
func (e *Engine) CreateTable(sch *storage.Schema, primary IndexKind) (*Table, error) {
	t := &Table{sch: sch}
	switch primary {
	case IndexHash:
		t.hash = index.NewHash(sch.Name()+".pk", 0)
		t.primary = t.hash
	case IndexBTree:
		t.primary = index.NewBTree(sch.Name() + ".pk")
	default:
		return nil, fmt.Errorf("core: unknown index kind %d: %w", primary, ErrInvalidUsage)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.tables[sch.Name()]; dup {
		return nil, fmt.Errorf("core: table %q already exists: %w", sch.Name(), ErrInvalidUsage)
	}
	dir := *e.byID.Load()
	t.tbl = storage.NewTable(sch, len(dir))
	e.tables[sch.Name()] = t
	grown := append(append([]*Table(nil), dir...), t)
	e.byID.Store(&grown)
	return t, nil
}

// AddIndex attaches a secondary index. extract derives the (unique) index
// key from a row image and its primary key; non-unique indexes are modeled
// by folding a uniquifier (e.g. the primary key) into the low bits.
// Secondary indexes are maintained on insert and delete, by the table's
// install and remove on every path that adds or drops a record; updates
// must not change indexed columns (the standard research-engine
// restriction).
//
// If the table already holds rows (AddIndex after Load), the existing rows
// are backfilled from the primary index so the new index is complete.
// AddIndex must not run concurrently with transactions.
func (e *Engine) AddIndex(t *Table, name string, kind IndexKind,
	extract func(sch *storage.Schema, row storage.Row, pk uint64) uint64) error {
	var idx index.Index
	switch kind {
	case IndexHash:
		idx = index.NewHash(t.Name()+"."+name, 0)
	case IndexBTree:
		idx = index.NewBTree(t.Name() + "." + name)
	default:
		return fmt.Errorf("core: unknown index kind %d: %w", kind, ErrInvalidUsage)
	}
	var backfillErr error
	if t.tbl.NumRows() > 0 {
		// Backfill: walk the primary index so each live row's key is known.
		t.primary.Iterate(func(key uint64, rid storage.RecordID) bool {
			row, ok := e.proto.Committed(t.tbl, rid)
			if !ok {
				return true
			}
			if _, ok := idx.Insert(extract(t.sch, row, key), rid); !ok {
				backfillErr = fmt.Errorf("core: duplicate key backfilling index %s.%s (pk %d): %w",
					t.Name(), name, key, txn.ErrDuplicate)
				return false
			}
			return true
		})
	}
	if backfillErr != nil {
		return backfillErr
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	t.secondaries = append(t.secondaries, secondary{name: name, idx: idx, extract: extract})
	return nil
}

// Table returns the named table handle, or nil.
func (e *Engine) Table(name string) *Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tables[name]
}

// tableByID resolves a table id to the engine handle.
func (e *Engine) tableByID(id int) *Table {
	dir := *e.byID.Load()
	if id < 0 || id >= len(dir) {
		return nil
	}
	return dir[id]
}

// findSecondary returns the named secondary index of t, or nil.
func (t *Table) findSecondary(name string) *secondary {
	for i := range t.secondaries {
		if t.secondaries[i].name == name {
			return &t.secondaries[i]
		}
	}
	return nil
}

// install gives the record at rid, under key, every index entry but its
// primary one: the table grows to cover rid and each secondary maps
// extract(row, key) to rid. The caller inserts the primary entry, because
// each treats a duplicate differently. ld then installs the image as
// committed; it is nil when the protocol already holds it (Tx.Insert, after
// RegisterInsert). install and remove are the only code that derives a
// secondary key, apart from AddIndex's backfill of a new index.
func (t *Table) install(ld cc.Loader, rid storage.RecordID, key uint64, row storage.Row) {
	for t.tbl.NumRows() <= uint64(rid) {
		t.tbl.Alloc()
	}
	for j := range t.secondaries {
		s := &t.secondaries[j]
		s.idx.Insert(s.extract(t.sch, row, key), rid)
	}
	if ld != nil {
		ld.LoadRecord(t.tbl, rid, key, row)
	}
}

// remove takes the record at rid, under key, out of the primary and every
// secondary index. With ld nil the protocol has already settled the record —
// a committed delete or an aborted insert — and row is the image its access
// carries. Otherwise remove reads the image from ld.Committed, only when a
// secondary needs it, and then marks the record absent.
func (t *Table) remove(ld cc.Loader, rid storage.RecordID, key uint64, row storage.Row) {
	if ld != nil && len(t.secondaries) > 0 {
		//next700:allowalloc(ld is nil on the commit path: only replay and partition clear read the image back)
		row, _ = ld.Committed(t.tbl, rid)
	}
	t.primary.Delete(key)
	if row != nil {
		for j := range t.secondaries {
			s := &t.secondaries[j]
			s.idx.Delete(s.extract(t.sch, row, key))
		}
	}
	if ld != nil {
		//next700:allowalloc(ld is nil on the commit path: only replay and partition clear mark a record absent here)
		ld.LoadRecord(t.tbl, rid, key, nil)
	}
}

// Load inserts a row during the single-threaded load phase, bypassing
// concurrency control: the protocol installs it as the committed image.
// It must not run concurrently with transactions.
func (e *Engine) Load(t *Table, key uint64, row storage.Row) error {
	if len(row) != t.sch.RowSize() {
		return fmt.Errorf("core: row size %d != schema %d for %q: %w", len(row), t.sch.RowSize(), t.Name(), ErrInvalidUsage)
	}
	rid := t.tbl.Alloc()
	if _, ok := t.primary.Insert(key, rid); !ok {
		return fmt.Errorf("core: duplicate key %d loading %q: %w", key, t.Name(), txn.ErrDuplicate)
	}
	t.install(e.proto, rid, key, row)
	return nil
}

// SetPartitioner installs a (table, key) -> partition mapping used by
// HSTORE. Must be called before Load and before transactions run.
func (e *Engine) SetPartitioner(fn func(tbl *Table, key uint64) int) {
	e.env.PartitionOf = func(st *storage.Table, key uint64) int {
		th := e.tableByID(st.ID())
		if th == nil {
			return -1
		}
		return fn(th, key)
	}
}

// RegisterProc registers a stored procedure for command logging and
// recovery. IDs must be stable across restarts.
func (e *Engine) RegisterProc(id int32, fn Proc) error {
	if id == 0 {
		return fmt.Errorf("core: proc id 0 is reserved: %w", ErrInvalidUsage)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.procs[id]; dup {
		return fmt.Errorf("core: proc %d already registered: %w", id, ErrInvalidUsage)
	}
	e.procs[id] = fn
	return nil
}

// proc returns the registered procedure, or nil.
func (e *Engine) proc(id int32) Proc {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.procs[id]
}

// DurableEpoch returns the log's durable epoch frontier (0 when the engine
// is not logging).
func (e *Engine) DurableEpoch() uint64 {
	if e.logs == nil {
		return 0
	}
	return e.logs.DurableEpoch()
}
