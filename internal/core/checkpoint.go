package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"time"

	"next700/internal/storage"
	"next700/internal/txn"
)

// A checkpoint generation is a set of S slices, one store object each:
// S = Partitions under PartitionWAL, where slice p holds the rows whose
// primary key maps to partition p, and S = 1 otherwise, where slice 0 holds
// every row. Each slice is independently CRC-sealed, so corruption of one
// degrades only that slice's recovery path. The slice format:
//
//	magic "N7CK" | version u32 | slice u32 | epoch u64 | tableCount u32
//	per table: nameLen u32 | name | rowSize u32 | entryCount u64
//	  per entry: key u64 | rid u64 | row bytes (rowSize)
//	crc32 (IEEE) over everything before it
//
// epoch is the slice's fence: the slice holds its rows' effects through that
// epoch and is healed by replaying the log tail past it. The slice count is
// not in the object — the manifest entry's Slices carries it, and the parser
// is told which slice of how many it is looking at.
//
// Entries are written in ascending key order so slices of equal state are
// byte-identical. Only index-reachable rows with a visible committed image
// are written; record ids are preserved so a value-log tail written after
// the checkpoint replays against the restored state.

var checkpointMagic = [4]byte{'N', '7', 'C', 'K'}

// checkpointVersion is the only slice format this build reads or writes.
// (Version 1 was the headerless whole-engine image of older builds.)
const checkpointVersion = 2

// checkpointHeaderLen is magic through tableCount.
const checkpointHeaderLen = 4 + 4 + 4 + 8 + 4

// ErrBadCheckpoint reports a malformed or corrupt checkpoint stream.
var ErrBadCheckpoint = errors.New("core: bad checkpoint")

// errCheckpointVersion marks a CRC-valid object in a format this build does
// not read. That is another build's store, not media corruption an older
// generation could stand in for, so recovery reports it instead of falling
// back.
var errCheckpointVersion = fmt.Errorf("%w: unsupported format version", ErrBadCheckpoint)

// checkpointSlices returns S, the number of slices in a generation.
func (e *Engine) checkpointSlices() int {
	if e.cfg.PartitionWAL {
		return e.cfg.Partitions
	}
	return 1
}

// crcWriter tees writes into a running CRC.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	return cw.w.Write(p)
}

// writeSlice serializes slice part of a generation cut into slices pieces,
// fenced at epoch fence. Each row is captured through a committed-read
// micro-transaction on the reserved checkpoint slot, so no image is ever
// torn. With workers running, different rows may reflect different commit
// points: the result is then consistent only after replaying the value-log
// tail past fence (any commit the scan raced with tags an epoch above it,
// and value replay is idempotent). Command replay re-executes procedures and
// cannot heal such a capture, so the Checkpointer quiesces the engine for
// it — the same scan, meeting no conflict.
func (e *Engine) writeSlice(w io.Writer, part, slices int, fence uint64) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	tables := e.snapshotTables()

	var scratch [checkpointHeaderLen]byte
	copy(scratch[:], checkpointMagic[:])
	binary.LittleEndian.PutUint32(scratch[4:], checkpointVersion)
	binary.LittleEndian.PutUint32(scratch[8:], uint32(part))
	binary.LittleEndian.PutUint64(scratch[12:], fence)
	binary.LittleEndian.PutUint32(scratch[20:], uint32(len(tables)))
	if _, err := cw.Write(scratch[:]); err != nil {
		return err
	}

	for _, t := range tables {
		entries, err := e.collectSlice(t, part, slices)
		if err != nil {
			return err
		}
		name := t.Name()
		binary.LittleEndian.PutUint32(scratch[0:], uint32(len(name)))
		if _, err := cw.Write(scratch[:4]); err != nil {
			return err
		}
		if _, err := io.WriteString(cw, name); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(scratch[0:], uint32(t.sch.RowSize()))
		binary.LittleEndian.PutUint64(scratch[4:], uint64(len(entries)))
		if _, err := cw.Write(scratch[:12]); err != nil {
			return err
		}
		for _, en := range entries {
			binary.LittleEndian.PutUint64(scratch[0:], en.key)
			binary.LittleEndian.PutUint64(scratch[8:], uint64(en.rid))
			if _, err := cw.Write(scratch[:16]); err != nil {
				return err
			}
			if _, err := cw.Write(en.row); err != nil {
				return err
			}
		}
	}

	binary.LittleEndian.PutUint32(scratch[0:], cw.crc)
	if _, err := bw.Write(scratch[:4]); err != nil {
		return err
	}
	return bw.Flush()
}

// ckptEntry is one collected (key, rid, row image) triple.
type ckptEntry struct {
	key uint64
	rid storage.RecordID
	row []byte
}

// rowReadAttempts bounds the committed-read retries per row before the
// checkpoint cycle fails cleanly (no generation is installed). Conflicts
// here are rare: a row is only contended for the length of one commit.
const rowReadAttempts = 64

// collectSlice captures one table's rows of slice part in key order. The
// slice is selected on the index entry, before the row is read, so a
// generation costs one committed read per live row however many slices it
// is cut into. A read that cannot see a committed image (ErrNotFound:
// uncommitted insert, tombstoned residue) skips the row — if it commits, the
// log tail has it; a conflicting read (lock busy under the 2PL variants) is
// retried a bounded number of times.
func (e *Engine) collectSlice(t *Table, part, slices int) ([]ckptEntry, error) {
	entries := make([]ckptEntry, 0, t.primary.Len()/slices)
	t.primary.Iterate(func(key uint64, rid storage.RecordID) bool {
		if slices == 1 || e.partitionOfKey(t.tbl, key) == part {
			entries = append(entries, ckptEntry{key: key, rid: rid})
		}
		return true
	})
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })

	tx := e.checkpointTx()
	out := entries[:0]
	for i := range entries {
		en := entries[i]
		var row []byte
		var err error
		for attempt := 0; ; attempt++ {
			row, err = e.committedRow(tx, t, en.rid)
			if err == nil || errors.Is(err, txn.ErrNotFound) {
				break
			}
			if attempt+1 >= rowReadAttempts {
				return nil, fmt.Errorf("core: checkpoint of %q rid %d: %w", t.Name(), en.rid, err)
			}
			time.Sleep(time.Duration(attempt+1) * 10 * time.Microsecond)
		}
		if err != nil {
			continue // the row is left to the log tail
		}
		en.row = row
		out = append(out, en)
	}
	return out, nil
}

// committedRow reads one committed row image through a throwaway
// transaction: the fuzzy checkpoint runs beside writers, so it cannot use
// the quiescent Loader.Committed (a lock-free arena read races a 2PL or
// TIMESTAMP writer). The image is copied out before the read transaction is
// released, so nothing aliases a per-context buffer the next read reuses or
// memory a writer may recycle.
func (e *Engine) committedRow(tx *Tx, t *Table, rid storage.RecordID) ([]byte, error) {
	tx.inner.Reset()
	e.proto.Begin(tx.inner)
	data, err := e.proto.Read(tx.inner, t.tbl, rid)
	if err != nil {
		e.proto.Abort(tx.inner)
		return nil, err
	}
	row := append([]byte(nil), data...)
	e.proto.Abort(tx.inner)
	return row, nil
}

// checkpointTx lazily creates the dedicated checkpoint-phase context. It
// runs on the reserved protocol slot past the worker range, so its reads
// share no per-thread protocol state or statistics cache line with workers.
func (e *Engine) checkpointTx() *Tx {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ckptTx == nil {
		e.ckptTx = e.NewTx(e.ckptThread, 0xC4EC)
	}
	return e.ckptTx
}

// ckptTableLoad is one fully validated table section of a slice, ready to
// apply. Entry rows alias the slice buffer.
type ckptTableLoad struct {
	t       *Table
	entries []ckptEntry
}

// readSlice reads one slice object in full and validates it with parseSlice,
// applying nothing: a bad slice never partially mutates the engine.
func (e *Engine) readSlice(r io.Reader, part, slices int, replacing bool) ([]ckptTableLoad, uint64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: read: %v", ErrBadCheckpoint, err)
	}
	return e.parseSlice(data, part, slices, replacing)
}

// applyCheckpointPlan applies a fully validated slice plan.
func (e *Engine) applyCheckpointPlan(plan []ckptTableLoad) {
	for _, tl := range plan {
		t := tl.t
		for _, en := range tl.entries {
			t.primary.Insert(en.key, en.rid)
			t.install(e.proto, en.rid, en.key, en.row)
		}
	}
}

// parseSlice verifies the CRC and fully validates a slice without touching
// engine state: it must be slice part, its tables known with matching row
// sizes, record ids in range, keys free of duplicates (within the slice and,
// unless the caller is replacing the slice's partition, against the engine)
// and — when the generation has more than one slice —
// every key must map to part under the engine's partitioner, so a slice
// written under a different partitioning or routed to the wrong partition is
// rejected whole. Returned entry rows alias data.
func (e *Engine) parseSlice(data []byte, part, slices int, replacing bool) ([]ckptTableLoad, uint64, error) {
	if len(data) < checkpointHeaderLen+4 {
		return nil, 0, fmt.Errorf("%w: too short", ErrBadCheckpoint)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, 0, fmt.Errorf("%w: crc mismatch", ErrBadCheckpoint)
	}

	// The length check above covers the fixed header.
	hdr := body[:checkpointHeaderLen]
	body = body[checkpointHeaderLen:]
	if [4]byte(hdr[:4]) != checkpointMagic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != checkpointVersion {
		return nil, 0, fmt.Errorf("%w %d (this build reads version %d)", errCheckpointVersion, v, checkpointVersion)
	}
	if got := int(binary.LittleEndian.Uint32(hdr[8:])); got != part {
		return nil, 0, fmt.Errorf("%w: object is slice %d, want %d", ErrBadCheckpoint, got, part)
	}
	fence := binary.LittleEndian.Uint64(hdr[12:])
	tableCount := int(binary.LittleEndian.Uint32(hdr[20:]))

	take := func(n int) ([]byte, error) {
		if n < 0 || len(body) < n {
			return nil, fmt.Errorf("%w: truncated body", ErrBadCheckpoint)
		}
		out := body[:n]
		body = body[n:]
		return out, nil
	}
	plan := make([]ckptTableLoad, 0, tableCount)
	seenTables := make(map[string]bool, tableCount)
	for ti := 0; ti < tableCount; ti++ {
		b, err := take(4)
		if err != nil {
			return nil, 0, err
		}
		nameLen := int(binary.LittleEndian.Uint32(b))
		if nameLen > 1<<16 {
			return nil, 0, fmt.Errorf("%w: absurd name length", ErrBadCheckpoint)
		}
		nameBytes, err := take(nameLen)
		if err != nil {
			return nil, 0, err
		}
		name := string(nameBytes)
		t := e.Table(name)
		if t == nil {
			return nil, 0, fmt.Errorf("%w: unknown table %q", ErrBadCheckpoint, name)
		}
		if seenTables[name] {
			return nil, 0, fmt.Errorf("%w: table %q appears twice", ErrBadCheckpoint, name)
		}
		seenTables[name] = true
		b, err = take(12)
		if err != nil {
			return nil, 0, err
		}
		rowSize := int(binary.LittleEndian.Uint32(b))
		if rowSize != t.sch.RowSize() {
			return nil, 0, fmt.Errorf("%w: table %q row size %d != schema %d",
				ErrBadCheckpoint, t.Name(), rowSize, t.sch.RowSize())
		}
		count := binary.LittleEndian.Uint64(b[4:])
		// Every rid in a valid slice is below the source table's allocation
		// count. A slice carries 1/slices of the rows but source-table rids,
		// so the body length bounds that count only after scaling by the
		// slice count — under heavy allocation skew a legitimate slice can
		// still exceed it, in which case the parse error costs that slice
		// its bounded-recovery head start (CheckpointFallbacks), never
		// correctness.
		maxRID := uint64(len(data))/16*uint64(slices) + t.tbl.NumRows() + 1
		if count > uint64(len(body)) {
			return nil, 0, fmt.Errorf("%w: truncated body", ErrBadCheckpoint)
		}
		tl := ckptTableLoad{t: t, entries: make([]ckptEntry, 0, count)}
		seenKeys := make(map[uint64]bool, count)
		for i := uint64(0); i < count; i++ {
			b, err = take(16 + rowSize)
			if err != nil {
				return nil, 0, err
			}
			key := binary.LittleEndian.Uint64(b)
			rid := storage.RecordID(binary.LittleEndian.Uint64(b[8:]))
			if uint64(rid) > maxRID {
				return nil, 0, fmt.Errorf("%w: record id %d out of range", ErrBadCheckpoint, rid)
			}
			if seenKeys[key] {
				return nil, 0, fmt.Errorf("%w: duplicate key %d in %q", ErrBadCheckpoint, key, t.Name())
			}
			seenKeys[key] = true
			if slices > 1 {
				if p := e.partitionOfKey(t.tbl, key); p != part {
					return nil, 0, fmt.Errorf("%w: slice %d holds key %d of partition %d", ErrBadCheckpoint, part, key, p)
				}
			}
			if _, exists := t.primary.Lookup(key); exists && !replacing {
				return nil, 0, fmt.Errorf("%w: key %d already present in %q", ErrBadCheckpoint, key, t.Name())
			}
			tl.entries = append(tl.entries, ckptEntry{key: key, rid: rid, row: b[16:]})
		}
		plan = append(plan, tl)
	}
	if len(body) != 0 {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes", ErrBadCheckpoint, len(body))
	}
	return plan, fence, nil
}

// snapshotTables returns the table handles in id order. CreateTable never
// writes a directory it has published, so the caller may keep it as is.
func (e *Engine) snapshotTables() []*Table { return *e.byID.Load() }
