package storage

import (
	"fmt"
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

// Table is a record-id allocator with a row arena behind it. Alloc hands out
// dense record ids with one atomic add and touches no memory; the arena is
// two Slots arrays, row images and live bits, whose chunk for a record is
// made the first time Row or SetLive reaches it. So a protocol that keeps
// its committed rows elsewhere (SILO's slot words, MVCC's version chains) and
// never calls either has record ids and no arena at all.
//
// The table itself performs no concurrency control on row contents — that is
// the cc package's job. Every slot carries a live bit whose zero value means
// absent: a fresh slot reads absent until a writer sets it live, and deleted
// rows are marked absent, not reclaimed.
type Table struct {
	schema *Schema
	id     int
	next   atomic.Uint64 // next RecordID to hand out

	// live's chunk is always made before rows' chunk for the same records
	// (makeChunk), so a made row chunk has its live bits.
	rows Slots[byte] // stride rowSize
	live Slots[atomic.Bool]
}

// NewTable creates an empty table over schema.
func NewTable(schema *Schema, id int) *Table {
	t := &Table{schema: schema, id: id}
	t.rows.init(schema.rowSize)
	t.live.init(1)
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// ID returns the engine-assigned table id.
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

// ArenaChunks returns how many arena chunks (a chunk of rows with its live
// bits) exist — memory accounting for tests and diagnostics.
func (t *Table) ArenaChunks() int { return t.rows.Chunks() }

// makeChunk makes rid's arena chunk on first touch, live bits before rows,
// and returns rid's row image.
func (t *Table) makeChunk(rid RecordID) Row {
	t.live.At(rid)
	return t.rows.At(rid)
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
	if row := t.rows.Peek(rid); row != nil {
		return row
	}
	return t.makeChunk(rid)
}

// Prefetch hints every cache line of rid's row image and its live bit, so
// that a Row or IsLive soon after finds them cached. The hints read neither,
// never wait for a line and never fault, so Prefetch may run beside the
// row's writers with no protection; a rid whose chunk does not exist is
// skipped, and nothing is created.
//
//next700:hotpath
func (t *Table) Prefetch(rid RecordID) {
	row := t.rows.Peek(rid)
	if row == nil {
		return
	}
	prefetch.Line(unsafe.Pointer(t.live.peekFirst(rid)))
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
	bit := t.live.peekFirst(rid)
	if bit == nil {
		if !live {
			return
		}
		t.makeChunk(rid)
		bit = t.live.peekFirst(rid)
	}
	bit.Store(live)
}

// IsLive reports whether rid is present. A slot whose chunk was never made
// is absent, and asking creates nothing.
func (t *Table) IsLive(rid RecordID) bool {
	bit := t.live.peekFirst(rid)
	return bit != nil && bit.Load()
}
