// Package fault provides deterministic, seed-driven fault injection for the
// durability path: a chaos wal.Device that tears writes at a planned byte
// offset, fails syncs transiently, and injects I/O latency; an in-memory
// MemDevice that tracks the synced watermark so a crash's surviving prefix
// can be reconstructed exactly; and the error classifier (IsTransient) the
// engine and harness share to decide whether an abort is worth retrying.
//
// Every injected behavior is a pure function of the Plan, including its
// Seed, so a failing torture seed replays identically. That discipline —
// durability and recovery as an independently verifiable component — is the
// unbundling argument of Lomet et al. applied to the design-space sweep:
// a point in the space is only trustworthy if it survives faults, not just
// the happy path.
package fault

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"next700/internal/txn"
	"next700/internal/wal"
	"next700/internal/xrand"
)

// Plan scripts a Device's faults. The zero value injects nothing and adds
// no overhead beyond a mutex per operation.
type Plan struct {
	// Seed drives latency jitter and probabilistic sync failures. Two
	// devices with equal Plans inject identical fault sequences.
	Seed uint64
	// CrashAtByte, when > 0, crashes the device once that many bytes have
	// been written: the crossing write is torn at the boundary (a partial
	// final record on the device) and every later Write or Sync fails with
	// ErrCrashed, which is sticky.
	CrashAtByte int64
	// TransientSyncEvery, when > 0, fails every Nth Sync with a retryable
	// error (ErrTransientSync). The log flusher's bounded retry clears it.
	TransientSyncEvery int
	// TransientSyncProb additionally fails each Sync with this probability,
	// drawn from the seeded RNG (still deterministic given the Plan).
	TransientSyncProb float64
	// StallSyncAt, when > 0, hangs the device starting at the Nth Sync call
	// (1-based): the sync neither fails nor completes until Release is
	// called. Unlike a crash or sticky failure, a stall is the "gray
	// failure" a deadline must bound — the writer is healthy as far as
	// error reporting goes, it just never comes back.
	StallSyncAt int
	// StallRelease, when > 0, schedules an automatic Release that long
	// after the stall begins, so a seeded plan can model a device that
	// freezes and recovers without test orchestration.
	StallRelease time.Duration
	// WriteLatency and SyncLatency delay each operation; LatencyJitter adds
	// a seeded uniform extra in [0, LatencyJitter) on top of both.
	WriteLatency  time.Duration
	SyncLatency   time.Duration
	LatencyJitter time.Duration
	// WriteByteLatency adds a per-byte delay to each Write on top of
	// WriteLatency, modeling a bandwidth-limited device: a single log
	// stream serializes behind its own transfer time, which is what makes
	// splitting the log across streams pay off. One microsecond per byte
	// models ~1 MB/s.
	WriteByteLatency time.Duration
}

// ErrCrashed is the sticky error every operation returns at and after the
// planned crash point. It is not transient: no retry can resurrect the
// device.
var ErrCrashed = errors.New("fault: device crashed")

// TransientError is an injected failure that a retry may clear. It
// implements the Transient marker interface the wal flush loop
// checks before going sticky.
type TransientError struct {
	// Op names the failed operation ("sync", "write").
	Op string
}

// Error implements error.
func (e *TransientError) Error() string {
	return "fault: injected transient " + e.Op + " failure"
}

// Transient marks the error retryable.
func (e *TransientError) Transient() bool { return true }

// ErrTransientSync is the injected transient sync failure.
var ErrTransientSync = &TransientError{Op: "sync"}

// IsTransient classifies an error as retryable: serialization conflicts
// (txn.ErrConflict) and self-declared transient device faults. Sticky log
// failure (wal.ErrLogFailed), device crashes, user aborts, and application
// errors are not transient — retrying them cannot succeed. The engine's
// retry loop and the torture/bench harnesses share this single judgment so
// an error class is never retried in one layer and fataled in another.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	// A sticky log failure may wrap a transient sync error (retries were
	// exhausted); the sticky wrapper wins.
	if errors.Is(err, wal.ErrLogFailed) || errors.Is(err, ErrCrashed) {
		return false
	}
	if errors.Is(err, txn.ErrConflict) {
		return true
	}
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// Device wraps an inner wal.Device with the Plan's faults. All state is
// guarded by a mutex; a log stream's flusher is single-threaded, but
// tests may probe the device concurrently.
type Device struct {
	inner wal.Device
	plan  Plan

	mu       sync.Mutex
	rng      *xrand.RNG
	written  int64
	syncs    int
	crashed  bool
	stallCh  chan struct{} // non-nil once a stall has begun; closed on release
	released bool          // Release called: no further stalls
}

// NewDevice builds a chaos device over inner following plan.
func NewDevice(inner wal.Device, plan Plan) *Device {
	return &Device{inner: inner, plan: plan, rng: xrand.New(plan.Seed)}
}

// Write implements wal.Device. A write crossing the planned crash offset is
// torn: the prefix up to the offset reaches the inner device, the rest is
// lost, and the device is dead from then on.
func (d *Device) Write(p []byte) (int, error) {
	d.delay(d.plan.WriteLatency + d.plan.WriteByteLatency*time.Duration(len(p)))
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return 0, ErrCrashed
	}
	if c := d.plan.CrashAtByte; c > 0 && d.written+int64(len(p)) > c {
		keep := int(c - d.written)
		if keep > 0 {
			n, _ := d.inner.Write(p[:keep])
			d.written += int64(n)
		}
		d.crashed = true
		return keep, fmt.Errorf("%w (torn write at byte %d)", ErrCrashed, c)
	}
	n, err := d.inner.Write(p)
	d.written += int64(n)
	return n, err
}

// Sync implements wal.Device with planned transient failures and stalls.
// A stalled Sync parks until Release (explicit or via Plan.StallRelease)
// and then completes normally — the hang is invisible to error handling,
// which is exactly what makes it dangerous to unbounded waiters.
func (d *Device) Sync() error {
	d.delay(d.plan.SyncLatency)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	d.syncs++
	if at := d.plan.StallSyncAt; at > 0 && d.syncs >= at && !d.released {
		if d.stallCh == nil {
			d.stallCh = make(chan struct{})
			if d.plan.StallRelease > 0 {
				time.AfterFunc(d.plan.StallRelease, d.Release)
			}
		}
		ch := d.stallCh
		// Park outside the mutex so observers (Stalled, Written, Release
		// itself) stay responsive while the device hangs.
		d.mu.Unlock()
		<-ch
		d.mu.Lock()
		if d.crashed {
			return ErrCrashed
		}
	}
	if n := d.plan.TransientSyncEvery; n > 0 && d.syncs%n == 0 {
		return ErrTransientSync
	}
	if p := d.plan.TransientSyncProb; p > 0 && d.rng.Bool(p) {
		return ErrTransientSync
	}
	return d.inner.Sync()
}

// Release unblocks a stalled Sync and disarms any further planned stalls.
// Safe to call at any time, from any goroutine, more than once.
func (d *Device) Release() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.released = true
	if d.stallCh != nil {
		select {
		case <-d.stallCh:
			// already closed
		default:
			close(d.stallCh)
		}
	}
}

// Stalled reports whether a Sync is currently parked on the stall.
func (d *Device) Stalled() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stallCh != nil && !d.released
}

// Crashed reports whether the planned crash point has been reached.
func (d *Device) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// Written returns the bytes that reached the inner device.
func (d *Device) Written() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.written
}

// Syncs returns the number of Sync attempts observed (including injected
// failures).
func (d *Device) Syncs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncs
}

// delay sleeps for base plus seeded jitter, outside the device mutex.
func (d *Device) delay(base time.Duration) {
	j := d.plan.LatencyJitter
	if base <= 0 && j <= 0 {
		return
	}
	dur := base
	if j > 0 {
		d.mu.Lock()
		dur += time.Duration(d.rng.Uint64n(uint64(j)))
		d.mu.Unlock()
	}
	if dur > 0 {
		time.Sleep(dur)
	}
}

// MemDevice is the in-memory wal.Device used by tests and the torture
// harness. It records every written byte and the synced watermark: bytes
// before the watermark are what a crash is guaranteed to preserve, bytes
// after it may or may not survive (the harness cuts them at a seeded
// offset to model an arbitrarily torn tail).
type MemDevice struct {
	mu     sync.Mutex
	data   []byte
	synced int
	syncs  int
}

// Write implements wal.Device.
func (d *MemDevice) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.data = append(d.data, p...)
	return len(p), nil
}

// Sync implements wal.Device, advancing the durable watermark.
func (d *MemDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.synced = len(d.data)
	d.syncs++
	return nil
}

// Bytes returns a copy of everything written, synced or not.
func (d *MemDevice) Bytes() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]byte(nil), d.data...)
}

// SyncedBytes returns a copy of the synced prefix — the bytes durability
// was acknowledged against.
func (d *MemDevice) SyncedBytes() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]byte(nil), d.data[:d.synced]...)
}

// Len returns the total bytes written.
func (d *MemDevice) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.data)
}

// SyncedLen returns the synced watermark.
func (d *MemDevice) SyncedLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.synced
}

// Syncs returns the number of successful Sync calls.
func (d *MemDevice) Syncs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncs
}
