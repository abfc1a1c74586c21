package fault

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"next700/internal/testutil"
	"next700/internal/txn"
	"next700/internal/wal"
)

func TestMemDeviceWatermark(t *testing.T) {
	d := &MemDevice{}
	d.Write([]byte("abc"))
	if d.Len() != 3 || d.SyncedLen() != 0 {
		t.Fatalf("len=%d synced=%d", d.Len(), d.SyncedLen())
	}
	d.Sync()
	d.Write([]byte("de"))
	if d.SyncedLen() != 3 || d.Len() != 5 {
		t.Fatalf("len=%d synced=%d", d.Len(), d.SyncedLen())
	}
	if string(d.SyncedBytes()) != "abc" || string(d.Bytes()) != "abcde" {
		t.Fatalf("bytes %q synced %q", d.Bytes(), d.SyncedBytes())
	}
	if d.Syncs() != 1 {
		t.Fatalf("syncs %d", d.Syncs())
	}
}

func TestDeviceCrashTearsCrossingWrite(t *testing.T) {
	mem := &MemDevice{}
	d := NewDevice(mem, Plan{CrashAtByte: 10})
	if n, err := d.Write([]byte("0123456")); n != 7 || err != nil {
		t.Fatalf("pre-crash write: n=%d err=%v", n, err)
	}
	// This write crosses byte 10: 3 bytes land, the rest is torn off.
	n, err := d.Write([]byte("789abcdef"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("crossing write err=%v", err)
	}
	if n != 3 || mem.Len() != 10 {
		t.Fatalf("torn write kept n=%d, device holds %d", n, mem.Len())
	}
	if !d.Crashed() {
		t.Fatal("device not marked crashed")
	}
	// Everything after the crash fails sticky.
	if _, err := d.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write err=%v", err)
	}
	if err := d.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync err=%v", err)
	}
	if mem.Len() != 10 || d.Written() != 10 {
		t.Fatalf("post-crash bytes leaked: mem=%d written=%d", mem.Len(), d.Written())
	}
}

func TestDeviceTransientSyncEvery(t *testing.T) {
	mem := &MemDevice{}
	d := NewDevice(mem, Plan{TransientSyncEvery: 3})
	var fails int
	for i := 0; i < 9; i++ {
		if err := d.Sync(); err != nil {
			if !errors.Is(err, ErrTransientSync) {
				t.Fatalf("sync %d: %v", i, err)
			}
			fails++
		}
	}
	if fails != 3 {
		t.Fatalf("injected %d transient failures, want 3", fails)
	}
	// The failure is transient: the immediate retry after an injected
	// failure succeeds.
	d2 := NewDevice(&MemDevice{}, Plan{TransientSyncEvery: 1})
	if err := d2.Sync(); !errors.Is(err, ErrTransientSync) {
		t.Fatal("every=1 must fail first sync")
	}
}

func TestDeviceDeterministicGivenPlan(t *testing.T) {
	run := func() []bool {
		d := NewDevice(&MemDevice{}, Plan{Seed: 99, TransientSyncProb: 0.5})
		var outcome []bool
		for i := 0; i < 32; i++ {
			outcome = append(outcome, d.Sync() == nil)
		}
		return outcome
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same plan diverged at sync %d", i)
		}
	}
}

func TestIsTransient(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{txn.ErrConflict, true},
		{fmt.Errorf("wrapped: %w", txn.ErrConflict), true},
		{ErrTransientSync, true},
		{fmt.Errorf("flush: %w", ErrTransientSync), true},
		{txn.ErrUserAbort, false},
		{txn.ErrNotFound, false},
		{ErrCrashed, false},
		{wal.ErrLogFailed, false},
		// Sticky wrapper around an exhausted transient: not retryable.
		{fmt.Errorf("%w: %w", wal.ErrLogFailed, ErrTransientSync), false},
		{errors.New("random"), false},
	}
	for i, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("case %d (%v): IsTransient=%v, want %v", i, c.err, got, c.want)
		}
	}
}

// TestLogSurvivesTransientSyncs: a one-stream log must absorb injected
// transient sync failures via bounded retry and still acknowledge
// durability for every record.
func TestLogSurvivesTransientSyncs(t *testing.T) {
	mem := &MemDevice{}
	dev := NewDevice(mem, Plan{TransientSyncEvery: 2})
	w := wal.NewStreamSet([]wal.Device{dev}, 0)
	rec := (&wal.CommitRecord{TxnID: 1, Entries: []wal.Entry{
		{Kind: wal.EntryUpdate, Table: 1, RID: 2, Key: 3, Data: []byte("x")},
	}}).Encode(nil)
	for i := 0; i < 20; i++ {
		epoch, err := w.Append(0, rec)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if err := w.WaitDurable(0, epoch); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	n, err := wal.Replay(bytes.NewReader(mem.SyncedBytes()), func(*wal.CommitRecord) error { return nil })
	if err != nil || n != 20 {
		t.Fatalf("replay n=%d err=%v", n, err)
	}
}

// TestLogCrashGoesSticky: after the device crashes, the log must wake every
// waiter with ErrLogFailed and refuse further appends.
func TestLogCrashGoesSticky(t *testing.T) {
	mem := &MemDevice{}
	dev := NewDevice(mem, Plan{CrashAtByte: 1}) // first write tears immediately
	w := wal.NewStreamSet([]wal.Device{dev}, 0)
	rec := (&wal.CommitRecord{TxnID: 1, Entries: []wal.Entry{
		{Kind: wal.EntryUpdate, Table: 1, RID: 2, Key: 3, Data: []byte("x")},
	}}).Encode(nil)
	epoch, err := w.Append(0, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(0, epoch); !errors.Is(err, wal.ErrLogFailed) || !errors.Is(err, ErrCrashed) {
		t.Fatalf("WaitDurable err=%v, want ErrLogFailed wrapping ErrCrashed", err)
	}
	if !w.Failed() {
		t.Fatal("log not marked failed")
	}
	if _, err := w.Append(0, rec); !errors.Is(err, wal.ErrLogFailed) {
		t.Fatalf("Append after crash err=%v", err)
	}
	if err := w.Close(); !errors.Is(err, wal.ErrLogFailed) {
		t.Fatalf("Close after crash err=%v", err)
	}
}

// TestDeadlineWaiterLeavesItsRecordFlushable: a committer that gives up on
// ErrWaitDeadline while a round is in flight has been told "committed,
// durability unknown" — its staged record must still reach the device once
// the device recovers, without waiting for another committer or for Close to
// close its epoch.
func TestDeadlineWaiterLeavesItsRecordFlushable(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	mem := &MemDevice{}
	dev := NewDevice(mem, Plan{StallSyncAt: 1})
	s := wal.NewStreamSet([]wal.Device{dev}, 0)
	// The first commit's round hangs in Sync; the second stages its record on
	// the open epoch behind it. Both waits run out.
	var last uint64
	for id := uint64(1); id <= 2; id++ {
		rec := (&wal.CommitRecord{TxnID: id, Entries: []wal.Entry{
			{Kind: wal.EntryUpdate, Table: 1, RID: id, Key: id, Data: []byte("x")},
		}}).Encode(nil)
		epoch, err := s.Append(0, rec)
		if err != nil {
			t.Fatal(err)
		}
		err = s.WaitDurableUntil(0, epoch, time.Now().Add(20*time.Millisecond).UnixNano())
		if !errors.Is(err, wal.ErrWaitDeadline) {
			t.Fatalf("commit %d on a stalled device: err=%v, want ErrWaitDeadline", id, err)
		}
		last = epoch
	}
	dev.Release()
	for deadline := time.Now().Add(5 * time.Second); s.DurableEpoch() < last; {
		if time.Now().After(deadline) {
			t.Fatalf("durable epoch %d, want %d: the departed waiter's record was never flushed", s.DurableEpoch(), last)
		}
		time.Sleep(time.Millisecond)
	}
	n, err := wal.Replay(bytes.NewReader(mem.SyncedBytes()), func(*wal.CommitRecord) error { return nil })
	if err != nil || n != 2 {
		t.Fatalf("replay n=%d err=%v, want both records", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
