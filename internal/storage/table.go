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

// Table is a record-id allocator with a chunked row arena behind it. Alloc
// hands out dense record ids with one atomic add and touches no memory; a
// row's chunk of the arena is created the first time Row or SetLive reaches
// it (growth takes a mutex, access after that is wait-free). So a protocol
// that keeps its committed rows elsewhere (SILO's slot words, MVCC's version
// chains) and never calls either has record ids and no arena at all.
//
// The table itself performs no concurrency control on row contents — that is
// the cc package's job. Every slot carries a live bit whose zero value means
// absent: a fresh slot reads absent until a writer sets it live, and deleted
// rows are marked absent, not reclaimed.
type Table struct {
	schema *Schema
	id     int

	mu     sync.Mutex              // guards chunk creation
	chunks atomic.Pointer[[]chunk] // copy-on-write directory; a nil rows is a chunk not yet made
	next   atomic.Uint64           // next RecordID to hand out
}

// chunk is one chunkSize-row slab: the row images and their live bits,
// published together, so a slot's row and its live bit appear at once and
// neither access shares a lock word with any other slot.
type chunk struct {
	rows []byte
	live []atomic.Bool
}

// NewTable creates an empty table over schema.
func NewTable(schema *Schema, id int) *Table {
	t := &Table{schema: schema, id: id}
	t.chunks.Store(new([]chunk))
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// ID returns the catalog-assigned table id.
func (t *Table) ID() int { return t.id }

// Name returns the schema name.
func (t *Table) Name() string { return t.schema.Name() }

// NumRows returns the number of allocated record ids (live or not).
func (t *Table) NumRows() uint64 { return t.next.Load() }

// Alloc reserves a new record id. It allocates no arena memory: the slot's
// row, zeroed and absent, exists once Row or SetLive first reaches it.
func (t *Table) Alloc() RecordID {
	return RecordID(t.next.Add(1) - 1)
}

// ArenaChunks returns how many arena chunks exist — memory accounting for
// tests and diagnostics.
func (t *Table) ArenaChunks() int {
	n := 0
	for _, c := range *t.chunks.Load() {
		if c.rows != nil {
			n++
		}
	}
	return n
}

// existing returns the chunk holding rid, or nil if it was never made.
func (t *Table) existing(rid RecordID) *chunk {
	chunks := *t.chunks.Load()
	if idx := int(rid >> chunkBits); idx < len(chunks) && chunks[idx].rows != nil {
		return &chunks[idx]
	}
	return nil
}

// makeChunk returns the chunk holding rid on its first touch: it creates the
// chunk under the growth mutex unless a racing caller already has.
//
//next700:allowalloc(first-touch slow path: one chunk per 65536 rows, made once in the table's lifetime)
func (t *Table) makeChunk(rid RecordID) *chunk {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.existing(rid); c != nil {
		return c
	}
	// Publish a grown copy of the directory: readers holding the old one
	// keep valid chunk headers, since a made chunk is never replaced.
	idx := int(rid >> chunkBits)
	old := *t.chunks.Load()
	grown := make([]chunk, max(len(old), idx+1))
	copy(grown, old)
	grown[idx] = chunk{
		rows: make([]byte, chunkSize*t.schema.rowSize),
		live: make([]atomic.Bool, chunkSize),
	}
	t.chunks.Store(&grown)
	return &grown[idx]
}

// Row returns the row image for rid, creating its arena chunk on first
// touch. The slice aliases table memory; writers must hold whatever
// protection the active concurrency-control protocol requires. Panics if rid
// was never allocated.
func (t *Table) Row(rid RecordID) Row {
	if uint64(rid) >= t.next.Load() {
		//next700:allowalloc(panic path: formatting a programming-error message happens at most once)
		panic(fmt.Sprintf("storage: table %q row %d out of range (allocated %d)",
			t.Name(), rid, t.next.Load()))
	}
	c := t.existing(rid)
	if c == nil {
		c = t.makeChunk(rid)
	}
	off := int(rid&(chunkSize-1)) * t.schema.rowSize
	return c.rows[off : off+t.schema.rowSize : off+t.schema.rowSize]
}

// Prefetch hints every cache line of rid's row image and its live bit, so
// that a Row or IsLive soon after finds them cached. The hints read neither,
// never wait for a line and never fault, so Prefetch may run beside the
// row's writers with no protection; a rid whose chunk does not exist is
// skipped, and nothing is created.
//
//next700:hotpath
func (t *Table) Prefetch(rid RecordID) {
	c := t.existing(rid)
	if c == nil {
		return
	}
	slot := int(rid & (chunkSize - 1))
	prefetch.Line(unsafe.Pointer(&c.live[slot]))
	row := c.rows[slot*t.schema.rowSize : (slot+1)*t.schema.rowSize]
	for off := 0; off < len(row); off += prefetch.LineSize {
		prefetch.Line(unsafe.Pointer(&row[off]))
	}
	// A row need not start on a line: its last byte may sit on a line the
	// stepped hints miss.
	prefetch.Line(unsafe.Pointer(&row[len(row)-1]))
}

// SetLive marks rid present (live) or absent. Marking a slot whose chunk was
// never made absent is a no-op: it already reads absent.
func (t *Table) SetLive(rid RecordID, live bool) {
	c := t.existing(rid)
	if c == nil {
		if !live {
			return
		}
		c = t.makeChunk(rid)
	}
	c.live[rid&(chunkSize-1)].Store(live)
}

// IsLive reports whether rid is present. A slot whose chunk was never made
// is absent, and asking creates nothing.
func (t *Table) IsLive(rid RecordID) bool {
	c := t.existing(rid)
	return c != nil && c.live[rid&(chunkSize-1)].Load()
}

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
