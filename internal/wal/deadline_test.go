package wal

import (
	"errors"
	"testing"
	"time"

	"next700/internal/testutil"
)

// stallDevice hangs every Sync until released — the minimal gray failure:
// no error is ever reported, progress just stops.
type stallDevice struct{ release chan struct{} }

func (d *stallDevice) Write(p []byte) (int, error) { return len(p), nil }
func (d *stallDevice) Sync() error                 { <-d.release; return nil }

func TestWaitDurableUntilBoundsStalledDevice(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	dev := &stallDevice{release: make(chan struct{})}
	w := NewWriter(dev, 0)
	lsn, err := w.Append(setRecord(1))
	if err != nil {
		t.Fatal(err)
	}

	const wait = 40 * time.Millisecond
	start := time.Now()
	err = w.WaitDurableUntil(lsn, time.Now().Add(wait).UnixNano())
	elapsed := time.Since(start)
	if !errors.Is(err, ErrWaitDeadline) {
		t.Fatalf("err = %v, want ErrWaitDeadline", err)
	}
	if elapsed > wait+2*time.Second {
		t.Fatalf("bounded wait took %v, want ~%v", elapsed, wait)
	}
	// The record stayed staged (indeterminate, not lost): once the device
	// recovers, an unbounded wait sees it durable.
	close(dev.release)
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatalf("WaitDurable after recovery: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitDurableUntilPastDeadlinePendingRecord(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	dev := &stallDevice{release: make(chan struct{})}
	w := NewWriter(dev, 0)
	lsn, err := w.Append(setRecord(1))
	if err != nil {
		t.Fatal(err)
	}
	// A deadline already in the past on a pending record sheds immediately.
	if err := w.WaitDurableUntil(lsn, time.Now().Add(-time.Millisecond).UnixNano()); !errors.Is(err, ErrWaitDeadline) {
		t.Fatalf("err = %v, want ErrWaitDeadline", err)
	}
	close(dev.release)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitDurableUntilDurableRecordIgnoresDeadline(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	dev := &stallDevice{release: make(chan struct{})}
	close(dev.release) // healthy device
	w := NewWriter(dev, 0)
	lsn, err := w.Append(setRecord(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	// Durability already achieved: even an expired deadline reports success.
	if err := w.WaitDurableUntil(lsn, time.Now().Add(-time.Millisecond).UnixNano()); err != nil {
		t.Fatalf("err = %v, want nil for an already-durable record", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
