package wal

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// memDevice is an in-memory Device with fault injection: writes fail after
// failAfter bytes (0 disables), and Synced tracks how much is "on disk".
type memDevice struct {
	mu        sync.Mutex
	data      []byte
	synced    int
	syncs     int
	failAfter int
}

func (d *memDevice) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failAfter > 0 && len(d.data)+len(p) > d.failAfter {
		room := d.failAfter - len(d.data)
		if room > 0 {
			d.data = append(d.data, p[:room]...)
		}
		return room, errors.New("device full")
	}
	d.data = append(d.data, p...)
	return len(p), nil
}

func (d *memDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.synced = len(d.data)
	d.syncs++
	return nil
}

func (d *memDevice) bytes() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]byte(nil), d.data...)
}

// syncFailDevice accepts writes but fails every Sync with a fixed error.
type syncFailDevice struct {
	memDevice
	err error
}

func (d *syncFailDevice) Sync() error { return d.err }

func valueRecord(id uint64, n int) *CommitRecord {
	cr := &CommitRecord{TxnID: id}
	for i := 0; i < n; i++ {
		cr.Entries = append(cr.Entries, Entry{
			Kind:  EntryKind(i % 3),
			Table: int32(i),
			RID:   uint64(i * 7),
			Key:   uint64(i * 13),
			Data:  []byte(fmt.Sprintf("data-%d-%d", id, i)),
		})
	}
	return cr
}

func TestEncodeDecodeValue(t *testing.T) {
	cr := valueRecord(42, 3)
	framed := cr.Encode(nil)
	var got CommitRecord
	if err := decode(framed[headerSize:], &got); err != nil {
		t.Fatal(err)
	}
	if got.TxnID != 42 || len(got.Entries) != 3 {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	for i := range cr.Entries {
		a, b := cr.Entries[i], got.Entries[i]
		if a.Kind != b.Kind || a.Table != b.Table || a.RID != b.RID ||
			a.Key != b.Key || !bytes.Equal(a.Data, b.Data) {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestEncodeDecodeCommand(t *testing.T) {
	cr := &CommitRecord{TxnID: 7, Proc: 3, Params: []byte{1, 2, 3, 4}}
	framed := cr.Encode(nil)
	var got CommitRecord
	if err := decode(framed[headerSize:], &got); err != nil {
		t.Fatal(err)
	}
	if got.TxnID != 7 || got.Proc != 3 || !bytes.Equal(got.Params, []byte{1, 2, 3, 4}) {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	if len(got.Entries) != 0 {
		t.Fatal("command record has entries")
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	err := quick.Check(func(id uint64, dataA, dataB []byte, key uint64) bool {
		cr := &CommitRecord{TxnID: id, Entries: []Entry{
			{Kind: EntryInsert, Table: 1, RID: 5, Key: key, Data: dataA},
			{Kind: EntryUpdate, Table: 2, RID: 6, Key: key + 1, Data: dataB},
		}}
		framed := cr.Encode(nil)
		var got CommitRecord
		if decode(framed[headerSize:], &got) != nil {
			return false
		}
		return got.TxnID == id &&
			bytes.Equal(got.Entries[0].Data, dataA) &&
			bytes.Equal(got.Entries[1].Data, dataB) &&
			got.Entries[0].Key == key
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestEncodeReusesBuffer(t *testing.T) {
	cr := valueRecord(1, 2)
	buf := make([]byte, 0, 4096)
	framed := cr.Encode(buf)
	if &framed[0] != &buf[:1][0] {
		t.Fatal("Encode did not reuse the provided buffer")
	}
}

func TestWriterImmediateMode(t *testing.T) {
	dev := &memDevice{}
	w := NewWriter(dev, 0) // WaitDurable kicks the coordinator
	rec := valueRecord(1, 1).Encode(nil)
	lsn, err := w.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if w.Durable() < lsn {
		t.Fatal("durable LSN not advanced")
	}
	w.Close()
}

func TestWriterErrorPropagates(t *testing.T) {
	dev := &memDevice{failAfter: 64}
	w := NewWriter(dev, 0)
	big := valueRecord(1, 20).Encode(nil)
	lsn, err := w.Append(big)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(lsn); err == nil {
		t.Fatal("device failure not surfaced")
	}
	if _, err := w.Append(big); err == nil {
		t.Fatal("append after failure should error")
	}
	w.Close()
}

// TestWriterSyncFailureBroadcasts: a failing Sync must poison the writer
// with ErrLogFailed, broadcast-wake every blocked WaitDurable caller, make
// later Appends return the sticky error, and surface the error from Close
// instead of dropping the buffered-but-unsynced state silently.
func TestWriterSyncFailureBroadcasts(t *testing.T) {
	boom := errors.New("disk on fire")
	dev := &syncFailDevice{err: boom}
	w := NewWriter(dev, 0)

	const waiters = 8
	errs := make(chan error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := valueRecord(uint64(i), 1).Encode(nil)
			lsn, err := w.Append(rec)
			if err != nil {
				errs <- err
				return
			}
			errs <- w.WaitDurable(lsn)
		}(i)
	}
	// Every waiter must come back with the sticky error — none may hang.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiters hung after sync failure")
	}
	for i := 0; i < waiters; i++ {
		err := <-errs
		if !errors.Is(err, ErrLogFailed) || !errors.Is(err, boom) {
			t.Fatalf("waiter %d: err=%v, want ErrLogFailed wrapping %v", i, err, boom)
		}
	}
	if !w.Failed() {
		t.Fatal("Failed() false after sync failure")
	}
	if !errors.Is(w.Err(), ErrLogFailed) {
		t.Fatalf("Err()=%v", w.Err())
	}
	// Append after the failure returns the sticky error.
	if _, err := w.Append(valueRecord(99, 1).Encode(nil)); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("Append after failure: %v", err)
	}
	// Close reports the loss instead of silently succeeding.
	if err := w.Close(); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("Close after failure: %v", err)
	}
}

// TestWriterNoWritesAfterFailure: once the device has failed, the flusher
// must stop writing — a later batch landing after a missing one would
// corrupt the log, not extend it.
func TestWriterNoWritesAfterFailure(t *testing.T) {
	dev := &syncFailDevice{err: errors.New("gone")}
	w := NewWriter(dev, 0)
	lsn, _ := w.Append(valueRecord(1, 1).Encode(nil))
	if err := w.WaitDurable(lsn); err == nil {
		t.Fatal("sync failure not surfaced")
	}
	before := len(dev.bytes())
	// Appends are rejected, but even a direct flush must not touch the
	// device again.
	w.s.kick()
	time.Sleep(10 * time.Millisecond)
	if got := len(dev.bytes()); got != before {
		t.Fatalf("device grew from %d to %d bytes after failure", before, got)
	}
	w.Close()
}

// TestWaitDurableAfterLaterFailure: a record that reached the device before
// the failure stays durable; WaitDurable on it must return nil even though
// the writer is now poisoned.
func TestWaitDurableAfterLaterFailure(t *testing.T) {
	dev := &memDevice{}
	w := NewWriter(dev, 0)
	lsn, _ := w.Append(valueRecord(1, 1).Encode(nil))
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	// Poison the writer by hand (simplest deterministic injection).
	w.s.mu.Lock()
	w.s.err = ErrLogFailed
	w.s.failed.Store(true)
	w.s.mu.Unlock()
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatalf("already-durable LSN reported failed: %v", err)
	}
	if err := w.WaitDurable(lsn + 1); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("future LSN after failure: %v", err)
	}
	w.Close()
}

func TestWriterCloseIdempotent(t *testing.T) {
	w := NewWriter(&memDevice{}, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte{1}); err == nil {
		t.Fatal("append after close should fail")
	}
}

func TestReplayOrderAndContent(t *testing.T) {
	dev := &memDevice{}
	w := NewWriter(dev, 0)
	var lsn uint64
	for i := 0; i < 10; i++ {
		rec := valueRecord(uint64(i), 1).Encode(nil)
		lsn, _ = w.Append(rec)
	}
	w.WaitDurable(lsn)
	w.Close()
	var ids []uint64
	st, err := ScanStream(bytes.NewReader(dev.bytes()), func(cr *CommitRecord) error {
		ids = append(ids, cr.TxnID)
		return nil
	}, nil)
	if err != nil || st.Records != 10 {
		t.Fatalf("replay: n=%d err=%v", st.Records, err)
	}
	for i, id := range ids {
		if id != uint64(i) {
			t.Fatalf("order broken: %v", ids)
		}
	}
}

func TestReplayTornTail(t *testing.T) {
	// A marker-free image (the pre-epoch single-stream format), so the cuts
	// below land in the final record rather than in a trailing marker.
	var full []byte
	for i := 0; i < 5; i++ {
		full = append(full, valueRecord(uint64(i), 2).Encode(nil)...)
	}
	// Truncate mid-record at various points: replay must return the intact
	// prefix count and no error.
	for cut := len(full) - 1; cut > len(full)-40 && cut > 0; cut -= 7 {
		st, err := ScanStream(bytes.NewReader(full[:cut]), func(cr *CommitRecord) error { return nil }, nil)
		if err != nil {
			t.Fatalf("torn tail at %d: %v", cut, err)
		}
		if st.Records != 4 {
			t.Fatalf("torn tail at %d: replayed %d, want 4", cut, st.Records)
		}
	}
}

func TestReplayMidStreamCorruption(t *testing.T) {
	dev := &memDevice{}
	w := NewWriter(dev, 0)
	var lsn uint64
	for i := 0; i < 5; i++ {
		lsn, _ = w.Append(valueRecord(uint64(i), 2).Encode(nil))
	}
	w.WaitDurable(lsn)
	w.Close()
	full := dev.bytes()
	// Flip a byte inside the second record's payload.
	full[headerSize+60] ^= 0xFF
	_, err := ScanStream(bytes.NewReader(full), func(cr *CommitRecord) error { return nil }, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption not detected: %v", err)
	}
}

// TestReplayTruncatedHeader: a log ending mid-header (fewer than 8 bytes of
// framing) is a torn tail, not an error, and the torn bytes are accounted.
func TestReplayTruncatedHeader(t *testing.T) {
	dev := &memDevice{}
	w := NewWriter(dev, 0)
	lsn, _ := w.Append(valueRecord(1, 2).Encode(nil))
	w.WaitDurable(lsn)
	w.Close()
	full := dev.bytes()
	for extra := 1; extra < headerSize; extra++ {
		cut := append(append([]byte(nil), full...), make([]byte, extra)...)
		st, err := ScanStream(bytes.NewReader(cut), func(*CommitRecord) error { return nil }, nil)
		if err != nil {
			t.Fatalf("torn header len %d: %v", extra, err)
		}
		if st.Records != 1 || st.TornBytes != int64(extra) {
			t.Fatalf("torn header len %d: records=%d torn=%d", extra, st.Records, st.TornBytes)
		}
	}
}

// TestReplayZeroLengthHeader: a zeroed header (size 0, e.g. a preallocated
// region never written) ends replay cleanly and counts the skipped region.
func TestReplayZeroLengthHeader(t *testing.T) {
	dev := &memDevice{}
	w := NewWriter(dev, 0)
	lsn, _ := w.Append(valueRecord(1, 1).Encode(nil))
	w.WaitDurable(lsn)
	w.Close()
	log := append(dev.bytes(), make([]byte, 32)...) // 8B zero header + 24B slack
	st, err := ScanStream(bytes.NewReader(log), func(*CommitRecord) error { return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 1 || st.TornBytes != 32 {
		t.Fatalf("records=%d torn=%d, want 1/32", st.Records, st.TornBytes)
	}
}

// TestReplayZeroEntryRecord: a legitimate record with an empty payload body
// (no entries, no params) round-trips; zero-length *data* is not confused
// with a zero-length *frame*.
func TestReplayZeroEntryRecord(t *testing.T) {
	dev := &memDevice{}
	w := NewWriter(dev, 0)
	w.Append((&CommitRecord{TxnID: 5}).Encode(nil)) // value record, 0 entries
	lsn, _ := w.Append((&CommitRecord{TxnID: 6, Entries: []Entry{
		{Kind: EntryUpdate, Table: 1, RID: 1, Key: 1, Data: nil}, // zero-length row image
	}}).Encode(nil))
	w.WaitDurable(lsn)
	w.Close()
	var ids []uint64
	st, err := ScanStream(bytes.NewReader(dev.bytes()), func(cr *CommitRecord) error {
		ids = append(ids, cr.TxnID)
		return nil
	}, nil)
	if err != nil || st.Records != 2 || st.TornBytes != 0 {
		t.Fatalf("records=%d torn=%d err=%v", st.Records, st.TornBytes, err)
	}
	if ids[0] != 5 || ids[1] != 6 {
		t.Fatalf("ids %v", ids)
	}
}

// TestReplayMidStreamCorruptionDoesNotTruncate: CRC corruption with intact
// records after it must surface ErrCorrupt — silently truncating there
// would drop acknowledged commits.
func TestReplayMidStreamCorruptionDoesNotTruncate(t *testing.T) {
	dev := &memDevice{}
	w := NewWriter(dev, 0)
	var lsn uint64
	recLen := 0
	for i := 0; i < 5; i++ {
		rec := valueRecord(uint64(i), 2).Encode(nil)
		recLen = len(rec)
		lsn, _ = w.Append(rec)
	}
	w.WaitDurable(lsn)
	w.Close()
	full := dev.bytes()
	// Corrupt the middle (third) record's payload.
	full[2*recLen+headerSize+4] ^= 0xFF
	st, err := ScanStream(bytes.NewReader(full), func(*CommitRecord) error { return nil }, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-stream corruption: err=%v", err)
	}
	if st.Records != 2 {
		t.Fatalf("replayed %d records before corruption, want 2", st.Records)
	}
}

// TestReplayCorruptTailCounted: a final record torn in place (CRC mismatch,
// nothing after it) is dropped without error and accounted as corrupt tail.
func TestReplayCorruptTailCounted(t *testing.T) {
	// Marker-free image: the final frame must be a record, not a marker.
	var full []byte
	for i := 0; i < 3; i++ {
		full = append(full, valueRecord(uint64(i), 2).Encode(nil)...)
	}
	full[len(full)-1] ^= 0xFF // flip last payload byte
	st, err := ScanStream(bytes.NewReader(full), func(*CommitRecord) error { return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 2 || st.CorruptTailRecords != 1 || st.TornBytes == 0 {
		t.Fatalf("records=%d corruptTail=%d torn=%d", st.Records, st.CorruptTailRecords, st.TornBytes)
	}
}

func TestReplayApplyError(t *testing.T) {
	dev := &memDevice{}
	w := NewWriter(dev, 0)
	lsn, _ := w.Append(valueRecord(1, 1).Encode(nil))
	w.WaitDurable(lsn)
	w.Close()
	boom := errors.New("boom")
	_, err := ScanStream(bytes.NewReader(dev.bytes()), func(cr *CommitRecord) error { return boom }, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("apply error not propagated: %v", err)
	}
}

func TestReplayEmpty(t *testing.T) {
	st, err := ScanStream(bytes.NewReader(nil), func(cr *CommitRecord) error { return nil }, nil)
	if st.Records != 0 || err != nil {
		t.Fatalf("empty log: n=%d err=%v", st.Records, err)
	}
}

func TestModeString(t *testing.T) {
	if ModeNone.String() != "none" || ModeValue.String() != "value" || ModeCommand.String() != "command" {
		t.Fatal("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode must render")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	var cr CommitRecord
	cases := [][]byte{
		nil,
		{1},
		{9, 0, 0, 0, 0, 0, 0, 0, 0}, // unknown type
		{payloadValue, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0},                 // claims 5 entries, no data
		{payloadCommand, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 255, 0, 0, 0}, // params overflow
	}
	for i, c := range cases {
		if err := decode(c, &cr); !errors.Is(err, ErrCorrupt) {
			t.Errorf("case %d: want ErrCorrupt, got %v", i, err)
		}
	}
}

func TestEntryRoundTripAllKinds(t *testing.T) {
	for _, k := range []EntryKind{EntryUpdate, EntryInsert, EntryDelete} {
		cr := &CommitRecord{TxnID: 1, Entries: []Entry{{Kind: k, Table: 1, RID: 2, Key: 3, Data: []byte("x")}}}
		framed := cr.Encode(nil)
		var got CommitRecord
		if err := decode(framed[headerSize:], &got); err != nil {
			t.Fatal(err)
		}
		if got.Entries[0].Kind != k {
			t.Fatalf("kind %v lost", k)
		}
	}
	if !reflect.DeepEqual(EntryKind(0), EntryUpdate) {
		t.Fatal("EntryUpdate must be zero value")
	}
}
