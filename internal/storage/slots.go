package storage

import (
	"sync"
	"sync/atomic"
)

// chunkBits sets the chunk capacity of every Slots array: 2^16 = 65536
// records per chunk keeps chunk creation rare while bounding the tail a
// table's last chunk leaves unused.
const chunkBits = 16

// ChunkRecords is the number of records per chunk of every Slots array — the
// table arena's rows and live bits and every protocol's per-record metadata.
const ChunkRecords = 1 << chunkBits

// Slots is a first-touch array keyed by RecordID: a run of stride E slots per
// record, in chunks of ChunkRecords records. A chunk is made, zeroed, the
// first time At reaches it and is never moved or replaced. The chunk
// directory is copy-on-write behind one atomic pointer, so once a chunk
// exists every access is wait-free and writes no shared word; only chunk
// creation takes the mutex.
//
// The storage layer keeps no protocol state in it: the table arena is two
// Slots (row images and live bits), and each concurrency-control protocol
// keeps its per-record metadata in Slots of its own element type.
type Slots[E any] struct {
	stride int
	mu     sync.Mutex            // serializes chunk creation
	dir    atomic.Pointer[[][]E] // a nil entry is a chunk not yet made
}

// NewSlots returns an empty array of stride slots per record.
func NewSlots[E any](stride int) *Slots[E] {
	s := new(Slots[E])
	s.init(stride)
	return s
}

// init readies a zero Slots, such as a Table's embedded arena, for stride
// slots per record.
func (s *Slots[E]) init(stride int) {
	s.stride = stride
	s.dir.Store(new([][]E))
}

// peekFirst returns rid's first slot, or nil when rid's chunk was never
// made. It creates nothing: it is Peek for a caller that reads one slot, and
// cheap enough to inline into one (Table.IsLive).
func (s *Slots[E]) peekFirst(rid RecordID) *E {
	dir := *s.dir.Load()
	if c := uint64(rid >> chunkBits); c < uint64(len(dir)) && dir[c] != nil {
		return &dir[c][int(rid&(ChunkRecords-1))*s.stride]
	}
	return nil
}

// Peek returns rid's stride slots, or nil when rid's chunk was never made. It
// creates nothing.
func (s *Slots[E]) Peek(rid RecordID) []E {
	dir := *s.dir.Load()
	if c := uint64(rid >> chunkBits); c < uint64(len(dir)) && dir[c] != nil {
		off := int(rid&(ChunkRecords-1)) * s.stride
		return dir[c][off : off+s.stride : off+s.stride]
	}
	return nil
}

// At returns rid's stride slots, making its chunk on first touch.
func (s *Slots[E]) At(rid RecordID) []E {
	if run := s.Peek(rid); run != nil {
		return run
	}
	return s.makeChunk(rid)
}

// makeChunk makes rid's chunk unless a racing caller already has, and
// returns rid's slots in it.
//
//next700:allowalloc(first-touch slow path: one chunk per ChunkRecords records, made once in the array's lifetime)
func (s *Slots[E]) makeChunk(rid RecordID) []E {
	s.mu.Lock()
	defer s.mu.Unlock()
	if run := s.Peek(rid); run != nil {
		return run
	}
	// Publish a grown copy of the directory: a reader holding the old one
	// keeps valid chunk headers, since a made chunk is never replaced.
	old := *s.dir.Load()
	c := int(rid >> chunkBits)
	grown := make([][]E, max(len(old), c+1))
	copy(grown, old)
	grown[c] = make([]E, ChunkRecords*s.stride)
	s.dir.Store(&grown)
	return s.Peek(rid)
}

// Chunks returns how many chunks exist — memory accounting for tests and
// diagnostics.
func (s *Slots[E]) Chunks() int {
	n := 0
	for _, c := range *s.dir.Load() {
		if c != nil {
			n++
		}
	}
	return n
}
