package txn

import (
	"errors"
	"sync"
	"testing"

	"next700/internal/storage"
	"next700/internal/xrand"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindRead: "read", KindWrite: "write", KindInsert: "insert",
		KindDelete: "delete", Kind(9): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q want %q", k, k.String(), s)
		}
	}
}

func TestBufBumpAllocation(t *testing.T) {
	tx := NewTxn(0, xrand.New(1), nil)
	a := tx.Buf(100)
	b := tx.Buf(100)
	if len(a) != 100 || len(b) != 100 {
		t.Fatal("wrong sizes")
	}
	a[0], b[0] = 1, 2
	if a[0] != 1 {
		t.Fatal("buffers overlap")
	}
	// Capacity is clamped so append cannot bleed into the next buffer.
	if cap(a) != 100 {
		t.Fatalf("cap %d", cap(a))
	}
}

func TestBufGrowth(t *testing.T) {
	tx := NewTxn(0, xrand.New(1), nil)
	small := tx.Buf(10)
	small[0] = 42
	big := tx.Buf(1 << 20) // force arena growth
	if len(big) != 1<<20 {
		t.Fatal("big buf wrong size")
	}
	if small[0] != 42 {
		t.Fatal("old buffer invalidated by growth")
	}
	huge := tx.Buf(5 << 20)
	if len(huge) != 5<<20 {
		t.Fatal("huge buf wrong size")
	}
}

func TestResetReusesArena(t *testing.T) {
	tx := NewTxn(0, xrand.New(1), nil)
	first := tx.Buf(64)
	first[0] = 7
	tx.Accesses = append(tx.Accesses, Access{Kind: KindWrite})
	tx.ID, tx.Epoch = 5, 3
	tx.Priority = 9
	tx.Reset()
	if tx.ID != 0 || tx.Epoch != 0 || len(tx.Accesses) != 0 {
		t.Fatal("reset incomplete")
	}
	if tx.Priority != 9 {
		t.Fatal("reset must preserve priority for retries")
	}
	second := tx.Buf(64)
	if &second[0] != &first[0] {
		t.Fatal("arena not reused after reset")
	}
	tx.ClearPriority()
	if tx.Priority != 0 {
		t.Fatal("ClearPriority failed")
	}
}

func TestFindWrite(t *testing.T) {
	s := storage.MustSchema("t", storage.I64("v"))
	tblA := storage.NewTable(s, 0)
	tblB := storage.NewTable(s, 1)
	tx := NewTxn(0, xrand.New(1), nil)
	tx.Accesses = append(tx.Accesses,
		Access{Table: tblA, RID: 1, Kind: KindRead},
		Access{Table: tblA, RID: 1, Kind: KindWrite, Obs: 1},
		Access{Table: tblB, RID: 1, Kind: KindWrite, Obs: 2},
		Access{Table: tblA, RID: 1, Kind: KindWrite, Obs: 3},
	)
	got := tx.FindWrite(tblA, 1)
	if got == nil || got.Obs != 3 {
		t.Fatalf("FindWrite returned %+v, want latest write", got)
	}
	if tx.FindWrite(tblA, 2) != nil {
		t.Fatal("FindWrite invented an entry")
	}
	if tx.FindWrite(tblB, 1).Obs != 2 {
		t.Fatal("FindWrite wrong table")
	}
}

func TestHasWrites(t *testing.T) {
	tx := NewTxn(0, xrand.New(1), nil)
	if tx.HasWrites() {
		t.Fatal("empty txn has writes")
	}
	tx.Accesses = append(tx.Accesses, Access{Kind: KindRead})
	if tx.HasWrites() {
		t.Fatal("read-only txn has writes")
	}
	tx.Accesses = append(tx.Accesses, Access{Kind: KindDelete})
	if !tx.HasWrites() {
		t.Fatal("delete not seen as write")
	}
}

func TestTimestampSourceUniqueMonotone(t *testing.T) {
	var ts TimestampSource
	const workers, per = 8, 10000
	out := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := make([]uint64, per)
			for i := range mine {
				mine[i] = ts.Next()
			}
			out[w] = mine
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool, workers*per)
	for _, batch := range out {
		prev := uint64(0)
		for _, v := range batch {
			if v == 0 {
				t.Fatal("timestamp 0 issued")
			}
			if v <= prev {
				t.Fatal("per-thread timestamps not increasing")
			}
			prev = v
			if seen[v] {
				t.Fatalf("duplicate timestamp %d", v)
			}
			seen[v] = true
		}
	}
	if ts.Last() != workers*per {
		t.Fatalf("Last() = %d", ts.Last())
	}
}

func TestEpoch(t *testing.T) {
	ep := NewEpoch()
	if ep.Now() != 1 {
		t.Fatalf("initial epoch %d", ep.Now())
	}
	if ep.Advance() != 2 || ep.Now() != 2 {
		t.Fatal("advance broken")
	}
}

func TestErrorsAreDistinct(t *testing.T) {
	errs := []error{ErrConflict, ErrUserAbort, ErrNotFound, ErrDuplicate}
	for i, a := range errs {
		for j, b := range errs {
			if (i == j) != errors.Is(a, b) {
				t.Fatalf("error identity wrong between %v and %v", a, b)
			}
		}
	}
}

// TestFindWriteSignature checks FindWrite against a brute-force scan while
// the write signature is forced into collisions — many writes whose
// (table, rid) pairs share a signature bit with absent pairs — and while
// Accesses is appended to directly, truncated without Reset and reset.
func TestFindWriteSignature(t *testing.T) {
	s := storage.MustSchema("t", storage.I64("v"))
	tables := []*storage.Table{storage.NewTable(s, 0), storage.NewTable(s, 1)}
	tx := NewTxn(0, xrand.New(1), nil)
	want := func(tbl *storage.Table, rid storage.RecordID) *Access {
		for i := len(tx.Accesses) - 1; i >= 0; i-- {
			if a := &tx.Accesses[i]; a.Table == tbl && a.RID == rid && a.Kind != KindRead {
				return a
			}
		}
		return nil
	}
	// Collisions: rids sharing one signature bit; every other one is
	// written, the rest stay absent but find their bit set.
	var colliding []storage.RecordID
	b := writeSigBit(tables[0], 7)
	for rid := storage.RecordID(0); len(colliding) < 16; rid++ {
		if writeSigBit(tables[0], rid) == b {
			colliding = append(colliding, rid)
		}
	}
	probes := colliding
	for rid := storage.RecordID(0); rid < 512; rid++ {
		probes = append(probes, rid)
	}
	checkAll := func(step string) {
		t.Helper()
		for _, tbl := range tables {
			for _, rid := range probes {
				if got, w := tx.FindWrite(tbl, rid), want(tbl, rid); got != w {
					t.Fatalf("%s: FindWrite(%d, %d) = %p, want %p", step, tbl.ID(), rid, got, w)
				}
			}
		}
	}
	// Reads past writeSigMin put FindWrite on the signature path; they
	// never enter the signature themselves.
	for i := 0; i <= writeSigMin; i++ {
		tx.AddAccess(Access{Table: tables[1], RID: storage.RecordID(i), Kind: KindRead})
	}
	for i := 0; i < len(colliding); i += 2 {
		tx.AddAccess(Access{Table: tables[0], RID: colliding[i], Kind: KindWrite})
	}
	checkAll("collisions")
	// Reads never enter the signature; writes appended directly do.
	tx.Accesses = append(tx.Accesses,
		Access{Table: tables[1], RID: 300, Kind: KindRead},
		Access{Table: tables[1], RID: 301, Kind: KindInsert},
		Access{Table: tables[0], RID: 302, Kind: KindDelete})
	checkAll("direct append")
	// A truncation without Reset, then more appends than were removed.
	tx.Accesses = tx.Accesses[:writeSigMin+1]
	checkAll("truncate")
	for rid := storage.RecordID(100); rid < 140; rid++ {
		tx.Accesses = append(tx.Accesses, Access{Table: tables[rid%2], RID: rid, Kind: KindWrite})
	}
	checkAll("regrow")
	tx.Reset()
	checkAll("reset")
	for rid := storage.RecordID(0); rid <= writeSigMin; rid++ {
		tx.Accesses = append(tx.Accesses, Access{Table: tables[1], RID: rid * 5, Kind: KindWrite})
	}
	checkAll("after reset")
}
