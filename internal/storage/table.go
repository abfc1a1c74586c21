package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"next700/internal/prefetch"
)

// RecordID identifies a row slot within a table. IDs are dense, starting at
// 0, and never reused; concurrency-control protocols key their per-record
// metadata off them.
type RecordID uint64

// InvalidRecordID is returned by lookups that find nothing.
const InvalidRecordID = RecordID(1<<64 - 1)

// chunkBits sets the chunk capacity (2^chunkBits rows per chunk). 16 bits =
// 65536 rows keeps chunk allocation rare while bounding wasted tail space.
const chunkBits = 16

const chunkSize = 1 << chunkBits

// Table is a chunked, append-only arena of fixed-width rows. Row allocation
// is lock-free in the common case (atomic bump within the current chunk
// directory); chunk growth takes a mutex. Row access is wait-free.
//
// The table itself performs no concurrency control on row contents — that is
// the cc package's job. Deleted rows are tombstoned, not reclaimed; the
// engine-level garbage collector may reuse them via the free list.
type Table struct {
	schema *Schema
	id     int

	mu     sync.Mutex // guards chunk growth
	chunks atomic.Pointer[[]chunk]
	next   atomic.Uint64 // next RecordID to hand out
}

// chunk is one chunkSize-row slab: the row images and their tombstones,
// published together, so a slot's row and its tombstone appear at once and
// neither access shares a lock word with any other slot.
type chunk struct {
	rows []byte
	dead []atomic.Bool
}

// NewTable creates an empty table over schema.
func NewTable(schema *Schema, id int) *Table {
	t := &Table{schema: schema, id: id}
	empty := make([]chunk, 0, 16)
	t.chunks.Store(&empty)
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// ID returns the catalog-assigned table id.
func (t *Table) ID() int { return t.id }

// Name returns the schema name.
func (t *Table) Name() string { return t.schema.Name() }

// NumRows returns the number of allocated row slots (including tombstoned
// ones).
func (t *Table) NumRows() uint64 { return t.next.Load() }

// Alloc reserves a new row slot and returns its RecordID. The slot's row
// image is zeroed.
func (t *Table) Alloc() RecordID {
	rid := RecordID(t.next.Add(1) - 1)
	t.ensureChunk(rid)
	return rid
}

// ensureChunk guarantees that the chunk containing rid exists.
func (t *Table) ensureChunk(rid RecordID) {
	idx := int(rid >> chunkBits)
	chunks := *t.chunks.Load()
	if idx < len(chunks) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	chunks = *t.chunks.Load()
	for idx >= len(chunks) {
		grown := append(chunks, chunk{
			rows: make([]byte, chunkSize*t.schema.rowSize),
			dead: make([]atomic.Bool, chunkSize),
		})
		t.chunks.Store(&grown)
		chunks = grown
	}
}

// Row returns the row image for rid. The slice aliases table memory; writers
// must hold whatever protection the active concurrency-control protocol
// requires. Panics if rid was never allocated.
func (t *Table) Row(rid RecordID) Row {
	if uint64(rid) >= t.next.Load() {
		//next700:allowalloc(panic path: formatting a programming-error message happens at most once)
		panic(fmt.Sprintf("storage: table %q row %d out of range (allocated %d)",
			t.Name(), rid, t.next.Load()))
	}
	rows := (*t.chunks.Load())[rid>>chunkBits].rows
	off := int(rid&(chunkSize-1)) * t.schema.rowSize
	return rows[off : off+t.schema.rowSize : off+t.schema.rowSize]
}

// Prefetch hints every cache line of rid's row image and its tombstone, so
// that a Row or IsTombstoned soon after finds them cached. The hints read
// neither, never wait for a line and never fault, so Prefetch may run
// beside the row's writers with no protection; a rid whose chunk does not
// exist yet is skipped.
//
//next700:hotpath
func (t *Table) Prefetch(rid RecordID) {
	chunks := *t.chunks.Load()
	idx := int(rid >> chunkBits)
	if idx >= len(chunks) {
		return
	}
	c := &chunks[idx]
	slot := int(rid & (chunkSize - 1))
	prefetch.Line(unsafe.Pointer(&c.dead[slot]))
	row := c.rows[slot*t.schema.rowSize : (slot+1)*t.schema.rowSize]
	for off := 0; off < len(row); off += prefetch.LineSize {
		prefetch.Line(unsafe.Pointer(&row[off]))
	}
	// A row need not start on a line: its last byte may sit on a line the
	// stepped hints miss.
	prefetch.Line(unsafe.Pointer(&row[len(row)-1]))
}

// tombstone returns rid's tombstone; rid's chunk must exist.
func (t *Table) tombstone(rid RecordID) *atomic.Bool {
	return &(*t.chunks.Load())[rid>>chunkBits].dead[rid&(chunkSize-1)]
}

// SetTombstone marks rid deleted (or undeleted, for abort paths).
func (t *Table) SetTombstone(rid RecordID, dead bool) { t.tombstone(rid).Store(dead) }

// IsTombstoned reports whether rid is deleted.
func (t *Table) IsTombstoned(rid RecordID) bool { return t.tombstone(rid).Load() }

// Catalog maps table names to tables and assigns table ids. It is safe for
// concurrent readers once tables are registered; registration itself is
// serialized.
type Catalog struct {
	mu     sync.RWMutex
	byName map[string]*Table
	byID   []*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{byName: make(map[string]*Table)}
}

// CreateTable registers a new table under its schema name.
func (c *Catalog) CreateTable(schema *Schema) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.byName[schema.Name()]; exists {
		return nil, fmt.Errorf("storage: table %q already exists", schema.Name())
	}
	t := NewTable(schema, len(c.byID))
	c.byName[schema.Name()] = t
	c.byID = append(c.byID, t)
	return t, nil
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.byName[name]
}

// TableByID returns the table with the given id, or nil.
func (c *Catalog) TableByID(id int) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if id < 0 || id >= len(c.byID) {
		return nil
	}
	return c.byID[id]
}

// Tables returns all tables in id order.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*Table(nil), c.byID...)
}
