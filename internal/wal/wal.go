// Package wal implements write-ahead logging for the engine: binary
// redo-only commit records (value logging) or stored-procedure invocations
// (command logging), one group-commit log — StreamSet: N device streams
// under a global epoch, N=1 being the classic single log — that batches
// fsyncs across worker threads, and crash recovery that replays each
// stream's CRC-validated prefix up to the epoch frontier and stops cleanly
// at a torn tail.
//
// The two logging modes bracket the design space the durability experiment
// (E8) explores: value logging pays per-write log volume but replays
// mechanically; command logging is nearly free at runtime but must
// re-execute transaction logic (serially, or with PACMAN-style dependency
// parallelism) at recovery.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"
)

// Mode selects the logging strategy.
type Mode int

const (
	// ModeNone disables durability.
	ModeNone Mode = iota
	// ModeValue logs after-images of every mutated record per commit.
	ModeValue
	// ModeCommand logs the transaction's procedure id and parameters.
	ModeCommand
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeValue:
		return "value"
	case ModeCommand:
		return "command"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// EntryKind classifies one mutation inside a value-logged commit record.
type EntryKind uint8

const (
	// EntryUpdate is an in-place after-image.
	EntryUpdate EntryKind = iota
	// EntryInsert is a new record (key carries the primary index key).
	EntryInsert
	// EntryDelete removes the key.
	EntryDelete
)

// Entry is one mutation of a value-logged commit.
type Entry struct {
	Kind  EntryKind
	Table int32
	RID   uint64
	Key   uint64
	Data  []byte
}

// CommitRecord is the unit of logging: everything a committed transaction
// changed (value mode) or the command that reproduces it (command mode).
type CommitRecord struct {
	TxnID uint64
	// Epoch is the durability epoch the record was appended under: the
	// StreamSet stamps it at append time and recovery truncates the merged
	// streams to the last epoch fully present across all of them. Zero marks
	// a record from a pre-epoch single-stream log, which always replays.
	Epoch uint64
	// Entries is set in value mode.
	Entries []Entry
	// Proc/Params are set in command mode.
	Proc   int32
	Params []byte
}

// record framing: [len u32][crc u32][payload]; crc covers payload.
const headerSize = 8

const (
	payloadValue   = byte(1)
	payloadCommand = byte(2)
	// payloadEpoch is a per-stream epoch marker: a flusher syncing through
	// epoch C appends one to certify that every record of this stream with
	// Epoch < C precedes it on the device. Markers carry only the epoch.
	payloadEpoch = byte(3)
)

// epochOffset is the byte offset of the Epoch field inside a framed
// value/command record: header + type byte + TxnID. StreamSet.Append patches
// the epoch (and re-seals the CRC) in place under the stream mutex, which is
// what makes per-stream epoch tags monotone.
const epochOffset = headerSize + 1 + 8

// Encode serializes the record into buf (reusing its storage) and returns
// the framed bytes.
//
//next700:hotpath
func (cr *CommitRecord) Encode(buf []byte) []byte {
	b := buf[:0]
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	if cr.Proc != 0 || cr.Params != nil {
		b = append(b, payloadCommand)
		b = binary.LittleEndian.AppendUint64(b, cr.TxnID)
		b = binary.LittleEndian.AppendUint64(b, cr.Epoch)
		b = binary.LittleEndian.AppendUint32(b, uint32(cr.Proc))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(cr.Params)))
		b = append(b, cr.Params...)
	} else {
		b = append(b, payloadValue)
		b = binary.LittleEndian.AppendUint64(b, cr.TxnID)
		b = binary.LittleEndian.AppendUint64(b, cr.Epoch)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(cr.Entries)))
		for i := range cr.Entries {
			e := &cr.Entries[i]
			b = append(b, byte(e.Kind))
			b = binary.LittleEndian.AppendUint32(b, uint32(e.Table))
			b = binary.LittleEndian.AppendUint64(b, e.RID)
			b = binary.LittleEndian.AppendUint64(b, e.Key)
			b = binary.LittleEndian.AppendUint32(b, uint32(len(e.Data)))
			b = append(b, e.Data...)
		}
	}
	payload := b[headerSize:]
	binary.LittleEndian.PutUint32(b[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:], crc32.ChecksumIEEE(payload))
	return b
}

// ErrCorrupt reports a CRC mismatch inside the log (as opposed to a clean
// torn tail, which ScanStream treats as end-of-log).
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrClosed is returned by operations on a log after Close: Append
// rejects new records and waiters that cannot become durable report it
// (wrapped). It is a typed class — callers distinguish an orderly shutdown
// from a device failure (ErrLogFailed) with errors.Is.
var ErrClosed = errors.New("wal: writer closed")

// errClosedBeforeDurable is the prebuilt waiter-side wrapping of ErrClosed
// (prebuilt so the durability wait path stays allocation-free).
var errClosedBeforeDurable = fmt.Errorf("wal: writer closed before durability: %w", ErrClosed)

// ErrLogFailed is the sticky log error: once the device has failed
// non-transiently, every Append and WaitDurable wraps it, all blocked
// waiters are woken, and the engine turns subsequent commits into clean
// aborts instead of hanging on durability that can never arrive.
var ErrLogFailed = errors.New("wal: log device failed")

// transient is implemented by injected device errors a retry may clear
// (see internal/fault). Any other flush error is sticky and fails the
// log permanently.
type transient interface{ Transient() bool }

// isTransient reports whether err (or anything it wraps) marks itself
// retryable.
func isTransient(err error) bool {
	var t transient
	return errors.As(err, &t) && t.Transient()
}

// maxSyncRetries bounds re-Sync attempts on transient device errors before
// the flusher declares the device dead.
const maxSyncRetries = 8

// decode parses one payload into cr. Data slices alias the payload.
func decode(payload []byte, cr *CommitRecord) error {
	if len(payload) < 17 {
		return ErrCorrupt
	}
	typ := payload[0]
	cr.TxnID = binary.LittleEndian.Uint64(payload[1:])
	cr.Epoch = binary.LittleEndian.Uint64(payload[9:])
	rest := payload[17:]
	switch typ {
	case payloadCommand:
		if len(rest) < 8 {
			return ErrCorrupt
		}
		cr.Proc = int32(binary.LittleEndian.Uint32(rest))
		n := int(binary.LittleEndian.Uint32(rest[4:]))
		rest = rest[8:]
		if len(rest) < n {
			return ErrCorrupt
		}
		cr.Params = rest[:n]
		cr.Entries = nil
	case payloadValue:
		if len(rest) < 4 {
			return ErrCorrupt
		}
		n := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		cr.Proc, cr.Params = 0, nil
		cr.Entries = cr.Entries[:0]
		for i := 0; i < n; i++ {
			if len(rest) < 25 {
				return ErrCorrupt
			}
			var e Entry
			e.Kind = EntryKind(rest[0])
			e.Table = int32(binary.LittleEndian.Uint32(rest[1:]))
			e.RID = binary.LittleEndian.Uint64(rest[5:])
			e.Key = binary.LittleEndian.Uint64(rest[13:])
			dn := int(binary.LittleEndian.Uint32(rest[21:]))
			rest = rest[25:]
			if len(rest) < dn {
				return ErrCorrupt
			}
			e.Data = rest[:dn]
			rest = rest[dn:]
			cr.Entries = append(cr.Entries, e)
		}
	default:
		return ErrCorrupt
	}
	return nil
}

// Device is the durable sink. *os.File satisfies it; tests and the torture
// harness use fault.MemDevice (an in-memory device that tracks the synced
// watermark), usually wrapped in fault.Device for seeded injection of torn
// writes, sync failures, and latency — see internal/fault.
type Device interface {
	io.Writer
	Sync() error
}

// Writer is the single-log face of a one-stream StreamSet: one device,
// LSN := epoch. It owns no buffer, goroutine, or group-commit loop of its
// own — NewStreamSet with one device is the same log.
//
// Deprecated: the engine logs through StreamSet at every stream count; this
// adapter survives only for the perf ledger's wal.writer_* probes and the
// writer poison tests, and goes when they do.
type Writer struct{ s *StreamSet }

// NewWriter starts a one-stream StreamSet over dev. The second parameter is
// deprecated and ignored — it was the epoch ticker's period; the frozen
// benchmark/probes.go:345 and :356 still pass one.
func NewWriter(dev Device, _ time.Duration) *Writer {
	return &Writer{s: newStreamSet([]Device{dev}, nil, 0)}
}

// Append stages a record framed by CommitRecord.Encode (its epoch tag is
// patched in place) and returns the epoch a caller must wait for to know it
// is durable.
func (w *Writer) Append(rec []byte) (uint64, error) { return w.s.Append(0, rec) }

// WaitDurable blocks until everything appended at or below lsn is on the
// device.
func (w *Writer) WaitDurable(lsn uint64) error { return w.s.WaitDurable(0, lsn) }

// WaitDurableUntil is WaitDurable bounded by an absolute deadline in Unix
// nanoseconds (0 means wait forever).
func (w *Writer) WaitDurableUntil(lsn uint64, deadline int64) error {
	return w.s.WaitDurableUntil(0, lsn, deadline)
}

// Close flushes remaining records and stops the log's goroutines, reporting
// the sticky device error if there is one.
func (w *Writer) Close() error { return w.s.Close() }

// Durable returns the durable epoch frontier.
func (w *Writer) Durable() uint64 { return w.s.DurableEpoch() }

// Failed reports whether the log has hit a sticky device failure.
func (w *Writer) Failed() bool { return w.s.Failed() }

// Err returns the sticky error (wrapping ErrLogFailed), or nil.
func (w *Writer) Err() error { return w.s.Err() }

// ErrWaitDeadline is returned by WaitDurableUntil when the deadline passes
// before the record becomes durable. The record stays staged: it may still
// reach the device later, so the caller's outcome is indeterminate (the
// classic commit-wait timeout), but the caller is never stranded on a
// stalled — as opposed to poisoned — device.
var ErrWaitDeadline = errors.New("wal: durability wait deadline exceeded")

// maxRetainedBatchCap bounds the capacity of a stream's recycled batch
// buffer so one oversized group commit does not pin memory for the log's
// lifetime.
const maxRetainedBatchCap = 4 << 20

// ReplayStats describes what a replay pass consumed and what it skipped —
// the raw material for recovery reports (core.RecoveryStats) and for the
// torture harness's prefix accounting.
type ReplayStats struct {
	// Records is the number of intact records applied.
	Records int
	// Markers is the number of intact epoch markers seen (stream logs only).
	Markers int
	// Bytes is the total length of the applied records, framing included.
	Bytes int64
	// TornBytes is the length of the trailing torn or zeroed region skipped
	// at end of log: the partial record a crashed write left behind.
	TornBytes int64
	// CorruptTailRecords counts complete-looking final records dropped for a
	// CRC mismatch with nothing after them — torn in place rather than
	// truncated. Mid-stream CRC mismatches are ErrCorrupt instead.
	CorruptTailRecords int
}

// ScanStream scans one log stream, invoking apply for every intact record
// and marker (when non-nil) for every intact epoch marker, in log order. A
// truncated or in-place-torn final frame (a torn write at crash) ends the
// scan without error; damage before the end is ErrCorrupt.
func ScanStream(r io.Reader, apply func(*CommitRecord) error, marker func(epoch uint64) error) (ReplayStats, error) {
	var st ReplayStats
	var cr CommitRecord
	err := scanFrames(r, &st, func(payload []byte) error {
		epoch, isMarker, err := frameEpoch(payload)
		switch {
		case err != nil:
			return err
		case isMarker:
			if marker != nil {
				if err := marker(epoch); err != nil {
					return err
				}
			}
			st.Markers++
		default:
			if err := decode(payload, &cr); err != nil {
				return err
			}
			if err := apply(&cr); err != nil {
				return err
			}
			st.Records++
		}
		st.Bytes += headerSize + int64(len(payload))
		return nil
	})
	return st, err
}

// frameEpoch classifies a non-empty payload and returns the epoch it
// carries: the epoch a marker certifies, or the tag of a commit record. A
// marker-typed payload of the wrong length, or a record too short to hold
// its tag, is ErrCorrupt.
func frameEpoch(payload []byte) (epoch uint64, marker bool, err error) {
	switch {
	case IsMarkerPayload(payload):
		return binary.LittleEndian.Uint64(payload[1:]), true, nil
	case payload[0] != payloadEpoch && len(payload) >= 17:
		return binary.LittleEndian.Uint64(payload[9:]), false, nil
	}
	return 0, false, ErrCorrupt
}

// scanFrames is the one walk over the log's frame format: it hands each
// CRC-valid frame's payload (valid until the next frame) to frame, in order.
// It owns the torn-tail rules: a truncated, zeroed, or in-place-torn final
// frame ends the scan cleanly, counted in st's TornBytes and
// CorruptTailRecords; damage before the end is ErrCorrupt. What the frames
// themselves hold, frame accounts.
func scanFrames(r io.Reader, st *ReplayStats, frame func(payload []byte) error) error {
	var hdr [headerSize]byte
	var payload []byte
	for {
		hn, err := io.ReadFull(r, hdr[:])
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				st.TornBytes += int64(hn) // clean end or torn header
				return nil
			}
			return err
		}
		size := binary.LittleEndian.Uint32(hdr[0:])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if size == 0 || size > 1<<30 {
			// Zeroed/torn tail (e.g. a preallocated region never written):
			// everything from this header on is skipped.
			rest, _ := io.Copy(io.Discard, r)
			st.TornBytes += headerSize + rest
			return nil
		}
		if cap(payload) < int(size) {
			payload = make([]byte, size)
		}
		payload = payload[:size]
		pn, err := io.ReadFull(r, payload)
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				st.TornBytes += headerSize + int64(pn) // torn payload
				return nil
			}
			return err
		}
		if crc32.ChecksumIEEE(payload) != crc {
			// Could be a torn tail (last record) or corruption. Peek: if
			// nothing follows, treat as torn tail.
			var one [1]byte
			if _, err := io.ReadFull(r, one[:]); err == io.EOF {
				st.TornBytes += headerSize + int64(size)
				st.CorruptTailRecords++
				return nil
			}
			return ErrCorrupt
		}
		if err := frame(payload); err != nil {
			return err
		}
	}
}

// IsMarkerPayload reports whether a framed payload is an epoch marker
// rather than a commit record. Exposed for tools that slice raw stream
// images by frame (the torture harness's negative controls).
func IsMarkerPayload(p []byte) bool {
	return len(p) == 9 && p[0] == payloadEpoch
}

// appendMarker frames an epoch marker onto buf.
func appendMarker(buf []byte, epoch uint64) []byte {
	b := append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	b = append(b, payloadEpoch)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	payload := b[len(b)-9:]
	binary.LittleEndian.PutUint32(b[len(b)-9-headerSize:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[len(b)-9-headerSize+4:], crc32.ChecksumIEEE(payload))
	return b
}
