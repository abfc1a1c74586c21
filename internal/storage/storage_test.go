package storage

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("acct", I64("id"), F64("balance"), Str("name", 16))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaLayout(t *testing.T) {
	s := testSchema(t)
	if s.RowSize() != 8+8+2+16 {
		t.Fatalf("row size %d", s.RowSize())
	}
	if s.NumColumns() != 3 {
		t.Fatalf("columns %d", s.NumColumns())
	}
	if s.ColumnIndex("balance") != 1 || s.ColumnIndex("nope") != -1 {
		t.Fatal("column index lookup broken")
	}
	if s.Column(2).Type != TypeString || s.Column(2).Size != 16 {
		t.Fatal("column descriptor wrong")
	}
}

func TestSchemaErrors(t *testing.T) {
	cases := []struct {
		name string
		cols []Column
	}{
		{"", []Column{I64("a")}},
		{"t", nil},
		{"t", []Column{{Name: "", Type: TypeInt64}}},
		{"t", []Column{I64("a"), I64("a")}},
		{"t", []Column{{Name: "s", Type: TypeString, Size: 0}}},
		{"t", []Column{{Name: "s", Type: TypeString, Size: 1 << 17}}},
		{"t", []Column{{Name: "x", Type: ColType(99)}}},
	}
	for i, c := range cases {
		if _, err := NewSchema(c.name, c.cols...); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustSchema("")
}

func TestRowRoundTrip(t *testing.T) {
	s := testSchema(t)
	row := s.NewRow()
	s.SetInt64(row, 0, -42)
	s.SetFloat64(row, 1, 3.5)
	s.SetString(row, 2, []byte("alice"))
	if got := s.GetInt64(row, 0); got != -42 {
		t.Fatalf("int64 %d", got)
	}
	if got := s.GetFloat64(row, 1); got != 3.5 {
		t.Fatalf("float64 %v", got)
	}
	if got := s.GetString(row, 2); !bytes.Equal(got, []byte("alice")) {
		t.Fatalf("string %q", got)
	}
}

func TestRowRoundTripProperty(t *testing.T) {
	s := testSchema(t)
	row := s.NewRow()
	err := quick.Check(func(i int64, f float64, str string) bool {
		if len(str) > 16 {
			str = str[:16]
		}
		s.SetInt64(row, 0, i)
		s.SetFloat64(row, 1, f)
		s.SetString(row, 2, []byte(str))
		return s.GetInt64(row, 0) == i &&
			(s.GetFloat64(row, 1) == f || f != f) && // NaN compares unequal
			bytes.Equal(s.GetString(row, 2), []byte(str))
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestStringTruncation(t *testing.T) {
	s := testSchema(t)
	row := s.NewRow()
	long := bytes.Repeat([]byte("x"), 100)
	s.SetString(row, 2, long)
	if got := s.GetString(row, 2); len(got) != 16 {
		t.Fatalf("truncation failed: %d bytes", len(got))
	}
}

func TestTableAllocAndAccess(t *testing.T) {
	s := testSchema(t)
	tbl := NewTable(s, 0)
	if tbl.NumRows() != 0 {
		t.Fatal("new table not empty")
	}
	rids := make([]RecordID, 100)
	for i := range rids {
		rids[i] = tbl.Alloc()
		row := tbl.Row(rids[i])
		s.SetInt64(row, 0, int64(i))
	}
	for i, rid := range rids {
		if rid != RecordID(i) {
			t.Fatalf("non-dense rid %d at %d", rid, i)
		}
		if got := s.GetInt64(tbl.Row(rid), 0); got != int64(i) {
			t.Fatalf("row %d content %d", i, got)
		}
	}
}

func TestTableChunkGrowth(t *testing.T) {
	s := MustSchema("small", I64("v"))
	tbl := NewTable(s, 0)
	n := ChunkRecords*2 + 10
	for i := 0; i < n; i++ {
		rid := tbl.Alloc()
		s.SetInt64(tbl.Row(rid), 0, int64(i))
	}
	// Verify values across chunk boundaries survived growth.
	for _, i := range []int{0, ChunkRecords - 1, ChunkRecords, ChunkRecords + 1, 2*ChunkRecords - 1, 2 * ChunkRecords, n - 1} {
		if got := s.GetInt64(tbl.Row(RecordID(i)), 0); got != int64(i) {
			t.Fatalf("row %d content %d after growth", i, got)
		}
	}
}

func TestTableRowOutOfRangePanics(t *testing.T) {
	tbl := NewTable(MustSchema("t", I64("v")), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tbl.Row(0)
}

func TestTableConcurrentAlloc(t *testing.T) {
	s := MustSchema("c", I64("v"))
	tbl := NewTable(s, 0)
	const workers, perWorker = 8, 20000
	var wg sync.WaitGroup
	rids := make([][]RecordID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := make([]RecordID, perWorker)
			for i := range mine {
				rid := tbl.Alloc()
				s.SetInt64(tbl.Row(rid), 0, int64(rid))
				mine[i] = rid
			}
			rids[w] = mine
		}(w)
	}
	wg.Wait()
	if tbl.NumRows() != workers*perWorker {
		t.Fatalf("allocated %d rows", tbl.NumRows())
	}
	seen := make(map[RecordID]bool, workers*perWorker)
	for _, batch := range rids {
		for _, rid := range batch {
			if seen[rid] {
				t.Fatalf("duplicate rid %d", rid)
			}
			seen[rid] = true
			if got := s.GetInt64(tbl.Row(rid), 0); got != int64(rid) {
				t.Fatalf("rid %d content %d", rid, got)
			}
		}
	}
}

func TestTombstones(t *testing.T) {
	s := MustSchema("t", I64("v"))
	tbl := NewTable(s, 0)
	rid := tbl.Alloc()
	if tbl.IsLive(rid) {
		t.Fatal("fresh row live")
	}
	tbl.SetLive(rid, true)
	if !tbl.IsLive(rid) {
		t.Fatal("live bit not set")
	}
	tbl.SetLive(rid, false)
	if tbl.IsLive(rid) {
		t.Fatal("live bit not cleared")
	}
}

// TestFreshSlotReadsAbsent: a slot no writer has made live reads absent,
// whether its chunk was never made or a neighbour made it — the zero live bit
// is absence, so an inserter need write nothing before publishing its key.
func TestFreshSlotReadsAbsent(t *testing.T) {
	s := MustSchema("t", I64("v"))
	tbl := NewTable(s, 0)
	first, second := tbl.Alloc(), tbl.Alloc()
	if tbl.IsLive(first) || tbl.ArenaChunks() != 0 {
		t.Fatalf("fresh slot: live %v, %d chunks", tbl.IsLive(first), tbl.ArenaChunks())
	}
	s.SetInt64(tbl.Row(first), 0, 7)
	tbl.SetLive(first, true)
	if tbl.IsLive(second) {
		t.Fatal("fresh slot in a made chunk reads live")
	}
	if tbl.ArenaChunks() != 1 {
		t.Fatalf("%d chunks after one touched row", tbl.ArenaChunks())
	}
}

// TestArenaChunksOnFirstTouch: Alloc makes no chunk; Row and SetLive make
// only the chunk they reach, in any order, and rows in a chunk made first
// survive the directory growth that makes a lower one.
func TestArenaChunksOnFirstTouch(t *testing.T) {
	s := MustSchema("t", I64("v"))
	tbl := NewTable(s, 0)
	for i := 0; i < 3*ChunkRecords; i++ {
		tbl.Alloc()
	}
	if n := tbl.ArenaChunks(); n != 0 {
		t.Fatalf("Alloc made %d chunks", n)
	}
	high := RecordID(2*ChunkRecords + 5)
	s.SetInt64(tbl.Row(high), 0, 42)
	tbl.SetLive(high, true)
	if n := tbl.ArenaChunks(); n != 1 {
		t.Fatalf("one touched row made %d chunks", n)
	}
	tbl.SetLive(3, true)
	if n := tbl.ArenaChunks(); n != 2 {
		t.Fatalf("a second touched chunk made %d chunks in all", n)
	}
	if !tbl.IsLive(high) || s.GetInt64(tbl.Row(high), 0) != 42 || !tbl.IsLive(3) {
		t.Fatal("row or live bit lost when a lower chunk was made")
	}
}

// TestMissingChunkAllocatesNothing: on a chunk never made, a liveness read,
// a Prefetch and marking a slot absent answer from the directory alone.
func TestMissingChunkAllocatesNothing(t *testing.T) {
	tbl := NewTable(MustSchema("t", I64("v"), Str("s", 100)), 0)
	for i := 0; i < 2*ChunkRecords; i++ {
		tbl.Alloc()
	}
	rid := RecordID(ChunkRecords + 17)
	allocs := testing.AllocsPerRun(100, func() {
		if tbl.IsLive(rid) {
			t.Fatal("slot in a missing chunk reads live")
		}
		tbl.Prefetch(rid)
		tbl.SetLive(rid, false)
	})
	if allocs != 0 || tbl.ArenaChunks() != 0 {
		t.Fatalf("%.0f allocs/run, %d chunks made", allocs, tbl.ArenaChunks())
	}
}

func TestColTypeString(t *testing.T) {
	if TypeInt64.String() != "int64" || TypeFloat64.String() != "float64" ||
		TypeString.String() != "string" {
		t.Fatal("stringer broken")
	}
	if ColType(42).String() == "" {
		t.Fatal("unknown type must still render")
	}
}

// TestTombstonesAcrossChunkGrowth: a slot's live bit is made with its row's
// chunk, in a Slots of its own, so a writer that races another chunk's
// creation can set and read its live bit at once, and live bits set before a
// growth survive it.
func TestTombstonesAcrossChunkGrowth(t *testing.T) {
	const workers, perWorker = 4, ChunkRecords/2 + 100 // 2+ growths
	tbl := NewTable(MustSchema("t", I64("v")), 0)
	var wg sync.WaitGroup
	rids := make([][]RecordID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rid := tbl.Alloc()
				live := rid%3 != 0
				tbl.SetLive(rid, live)
				if tbl.IsLive(rid) != live {
					t.Errorf("rid %d: live bit not visible to its writer", rid)
					return
				}
				rids[w] = append(rids[w], rid)
			}
		}(w)
	}
	wg.Wait()
	for _, batch := range rids {
		for _, rid := range batch {
			if tbl.IsLive(rid) != (rid%3 != 0) {
				t.Fatalf("rid %d: live bit lost across chunk growth", rid)
			}
		}
	}
}

// TestSlotsGrowth: a record far past chunk 0 makes only its own chunk, and
// with a stride each record owns its own run of slots, across chunk edges.
func TestSlotsGrowth(t *testing.T) {
	s := NewSlots[uint64](1)
	big := RecordID(ChunkRecords*3 + 5)
	if s.Peek(big) != nil || s.peekFirst(big) != nil || s.Chunks() != 0 {
		t.Fatal("Peek made a chunk")
	}
	s.At(big)[0] = 42
	if s.Peek(big)[0] != 42 || s.Chunks() != 1 {
		t.Fatalf("value lost after growth, or %d chunks made", s.Chunks())
	}
	if s.Peek(0) != nil || s.At(0)[0] != 0 || s.Peek(big)[0] != 42 {
		t.Fatal("a lower chunk was not fresh, or its growth lost a value")
	}

	st := NewSlots[uint64](3)
	rids := []RecordID{0, 1, ChunkRecords - 1, ChunkRecords, big}
	for _, rid := range rids {
		run := st.At(rid)
		if len(run) != 3 || cap(run) != 3 || st.peekFirst(rid) != &run[0] {
			t.Fatalf("rid %d: run of %d slots, cap %d, peekFirst not its first", rid, len(run), cap(run))
		}
		for i := range run {
			run[i] = uint64(rid)*3 + uint64(i)
		}
	}
	for _, rid := range rids {
		for i, v := range st.Peek(rid) {
			if v != uint64(rid)*3+uint64(i) {
				t.Fatalf("rid %d slot %d = %d: runs overlap", rid, i, v)
			}
		}
	}
}

// TestSlotsConcurrentFirstTouch: goroutines reaching the same fresh chunks
// at once, each in its own order, must all land in the one chunk made for
// each; a write to a chunk a racing creator replaced would be lost.
func TestSlotsConcurrentFirstTouch(t *testing.T) {
	const workers, chunks, perWorker = 4, 4, 1000
	s := NewSlots[uint64](1)
	rid := func(w, i int) RecordID {
		return RecordID(((i+w)%chunks)*ChunkRecords + w*perWorker + i)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.At(rid(w, i))[0] = uint64(rid(w, i)) + 1
			}
		}(w)
	}
	wg.Wait()
	if n := s.Chunks(); n != chunks {
		t.Fatalf("%d chunks made, want %d", n, chunks)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			if got := s.Peek(rid(w, i))[0]; got != uint64(rid(w, i))+1 {
				t.Fatalf("rid %d = %d: a write went to a lost chunk", rid(w, i), got)
			}
		}
	}
}
