package wal

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Manifest describes a multi-stream log for recovery: how many streams the
// StreamSet was sharded across, plus — when the engine checkpoints online —
// the checkpoint generations and the per-stream log segments with their
// sealing epochs. It has one codec, EncodeManifest/DecodeManifest's JSON
// body plus CRC trailer, and one file form, SaveManifestFile's atomic
// install (see manifest.go): the checkpoint subsystem persists it so, and
// the bench CLI writes it next to the stream files (<logpath>.manifest.json
// beside <logpath>.0 .. <logpath>.N-1) so a later -recover run can pair the
// readers without guessing.
type Manifest struct {
	// Streams is the stream count.
	Streams int `json:"streams"`
	// Mode is the logging mode the streams were written under ("value" or
	// "command"), recorded for operator sanity, not enforced.
	Mode string `json:"mode,omitempty"`
	// Checkpoints lists the retained checkpoint generations, oldest first.
	Checkpoints []ManifestCheckpoint `json:"checkpoints,omitempty"`
	// Segments lists every live log segment in per-stream append order:
	// a stream's on-disk log is the concatenation of its sealed segments
	// followed by its active (ToEpoch == 0) ones.
	Segments []ManifestSegment `json:"segments,omitempty"`
	// TruncatedThrough is the highest sealing epoch of any segment ever
	// pruned from Segments: log history at or below it is gone, so a
	// recovery whose base covers less cannot be complete.
	TruncatedThrough uint64 `json:"truncated_through,omitempty"`
}

// StreamReplayStats reports what a stream replay consumed, truncated, and
// skipped.
type StreamReplayStats struct {
	// Streams is the number of streams replayed.
	Streams int
	// Frontier is the merged durable frontier: the highest epoch fully
	// present across all streams (the minimum of StreamFrontiers' own
	// values under FrontierPerStream).
	Frontier uint64
	// Records is the number of records applied.
	Records int
	// TruncatedRecords counts intact records beyond their stream's replay
	// frontier that were dropped: they belong to epochs some stream may have
	// lost, so replaying them could resurrect a partially durable epoch.
	TruncatedRecords int
	// Markers is the number of intact epoch markers across all streams.
	Markers int
	// Bytes is the framed length of all intact frames across all streams.
	Bytes int64
	// TornBytes sums each stream's trailing torn region.
	TornBytes int64
	// CorruptTailRecords sums the per-stream in-place-torn final records.
	CorruptTailRecords int
	// MaxEpoch is the highest intact epoch tag or marker observed across all
	// streams, including records beyond the frontier that were truncated.
	// Restart recovery feeds it to StreamSet.RaiseEpoch so post-recovery
	// appends tag strictly above everything already in the log.
	MaxEpoch uint64
	// StreamFrontiers holds the epoch each stream was replayed through: the
	// merged Frontier for every stream under FrontierGlobal, the stream's own
	// certified frontier under FrontierPerStream.
	StreamFrontiers []uint64
}

// FrontierRule selects how far each stream of a log replays.
type FrontierRule int

const (
	// FrontierGlobal replays every stream to the last epoch fully present
	// across all of them — thread-affinity logs, where one transaction
	// history is sharded over the streams and a torn tail in one stream must
	// truncate the epoch everywhere.
	FrontierGlobal FrontierRule = iota
	// FrontierPerStream replays each stream to its own certified frontier —
	// partition-affinity logs, where each stream is authoritative for
	// exactly its own partition and one torn or short stream must truncate
	// only its partition's tail, never the healthy partitions' acknowledged
	// epochs. That is the recovery face of quarantine re-certification:
	// after a quarantined stream's set kept committing, healthy streams hold
	// acked epochs far past the dead stream's claim.
	//
	// The apply callback must filter entries to the stream's own partition:
	// a multi-partition record is replicated into every touched stream (one
	// copy per partition, all tagged with one epoch), and in the loss window
	// at a dead stream's frontier a record's copies may survive in some
	// streams but not others. Applying only partition-local entries keeps
	// each partition an exact prefix of its own commit order; an
	// unacknowledged cross-partition commit in that window recovers on the
	// surviving partitions only — acknowledged commits are certified on
	// every touched stream and always recover in full.
	FrontierPerStream
)

// Order is the order ReplayStreams applies the records of one epoch in.
type Order int

const (
	// CommitOrder applies an epoch's records by (txnID, stream), append
	// order breaking ties: command replay re-executes transactions in
	// commit-sequence order, which no stream's append order need follow.
	CommitOrder Order = iota
	// AppendOrder applies a stream replayed to its own frontier in the
	// order its records were appended. Value replay needs it: its
	// applied-if-newer filter orders the writers of one record, but two
	// records that share a key (a delete and a re-insert, on different
	// record ids) are ordered only by when they were appended — the engine
	// retracts a deleted key only after its record is appended, so on one
	// stream the re-insert always follows — while their txnIDs, drawn by a
	// protocol that orders records, not keys, may be inverted.
	//
	// No append order spans streams, so the global merge over several
	// streams orders by (txnID, stream) under either Order: the commit
	// order a protocol that draws its txnIDs at commit (the locking ones,
	// HSTORE) gives a delete before the re-insert of its key.
	AppendOrder
)

// heldRecord is one record awaiting certification (streamScan) or the epoch
// merge (ReplayStreams): its payload lives at buf[off:end] of the owning
// buffer.
type heldRecord struct {
	epoch, txnID uint64
	stream       int
	off, end     int
}

// ReplayStreams replays the N streams written by a StreamSet: it scans each
// stream's intact prefix, computes the stream's certified frontier — proven
// by its epoch markers and by the monotone epoch tags themselves — and
// applies exactly the records at or below the frontier the rule selects,
// ordered by epoch and, within an epoch, by order. A torn tail truncates; intact
// records beyond the frontier are dropped, never resurrected. Records
// tagged epoch 0 (pre-epoch single-stream logs) lie below every frontier
// and always replay.
//
// A stream replayed to its own frontier — every stream under
// FrontierPerStream, and the only stream of a one-stream log — needs no
// merge: it is applied as it is scanned, holding back only the records of
// its newest, not yet certified epoch. Only FrontierGlobal over several
// streams must see every stream's frontier before it can apply anything;
// it buffers the records and merges them by (epoch, txnID, stream), which is
// total and deterministic, whatever the order.
func ReplayStreams(readers []io.Reader, rule FrontierRule, order Order, apply func(stream int, cr *CommitRecord) error) (StreamReplayStats, error) {
	st := StreamReplayStats{Streams: len(readers), StreamFrontiers: make([]uint64, len(readers))}
	if len(readers) == 0 {
		return st, fmt.Errorf("wal: replay needs at least one stream: %w", ErrCorrupt)
	}
	merge := rule == FrontierGlobal && len(readers) > 1
	var cr CommitRecord
	emit := func(stream int, payload []byte) error {
		if err := decode(payload, &cr); err != nil {
			return err
		}
		if err := apply(stream, &cr); err != nil {
			return err
		}
		st.Records++
		return nil
	}
	var buf []byte
	var held []heldRecord
	frontier := ^uint64(0)
	for i, r := range readers {
		sc := streamScan{stream: i, buf: buf, held: held, keep: merge, order: order, emit: emit}
		var fs ReplayStats
		err := scanFrames(r, &fs, sc.frame)
		buf, held = sc.buf, sc.held
		st.Markers += fs.Markers
		st.Bytes += fs.Bytes
		st.TornBytes += fs.TornBytes
		st.CorruptTailRecords += fs.CorruptTailRecords
		if err != nil {
			return st, fmt.Errorf("wal: stream %d: %w", i, err)
		}
		if sc.high > st.MaxEpoch {
			st.MaxEpoch = sc.high
		}
		if sc.high > 0 {
			st.StreamFrontiers[i] = sc.high - 1
		}
		if st.StreamFrontiers[i] < frontier {
			frontier = st.StreamFrontiers[i]
		}
		if !merge {
			// What is still held is the stream's uncertified newest epoch.
			st.TruncatedRecords += len(held)
			buf, held = buf[:0], held[:0]
		}
	}
	st.Frontier = frontier
	if !merge {
		return st, nil
	}
	for i := range st.StreamFrontiers {
		st.StreamFrontiers[i] = st.Frontier
	}
	sortHeld(held)
	for _, h := range held {
		if h.epoch > st.Frontier {
			st.TruncatedRecords++
			continue
		}
		if err := emit(h.stream, buf[h.off:h.end]); err != nil {
			return st, err
		}
	}
	return st, nil
}

// streamScan is the per-stream frame handler behind ReplayStreams. It tracks
// high, the exclusive completeness bound: every record with epoch < high is
// provably intact in this stream. A marker C certifies epochs < C; a
// surviving record tagged e certifies epochs < e (per-stream tags are
// monotone, so everything earlier precedes it on the device and within the
// intact prefix). A record is therefore certified the moment a later frame
// raises high past its tag, and the records held in between all carry the
// stream's newest epoch — bounded by one epoch's commits, not by the log.
// With keep set nothing is emitted during the scan: every record stays held
// for the caller's cross-stream merge.
type streamScan struct {
	stream int
	high   uint64
	buf    []byte
	held   []heldRecord
	keep   bool
	order  Order
	emit   func(stream int, payload []byte) error
}

func (sc *streamScan) frame(payload []byte) error {
	epoch, isMarker, err := frameEpoch(payload)
	if err != nil {
		return err
	}
	if epoch > sc.high {
		sc.high = epoch
		if !sc.keep {
			if err := sc.release(); err != nil {
				return err
			}
		}
	}
	if isMarker {
		return nil
	}
	if !sc.keep && (epoch == 0 || epoch < sc.high) {
		return sc.emit(sc.stream, payload) // untagged, or already certified
	}
	off := len(sc.buf)
	sc.buf = append(sc.buf, payload...)
	sc.held = append(sc.held, heldRecord{
		epoch: epoch, txnID: binary.LittleEndian.Uint64(payload[1:]),
		stream: sc.stream, off: off, end: len(sc.buf),
	})
	return nil
}

// release emits the held group — one epoch's records, now certified — in
// the scan's order.
func (sc *streamScan) release() error {
	if sc.order == CommitOrder {
		sortHeld(sc.held)
	}
	for _, h := range sc.held {
		if err := sc.emit(h.stream, sc.buf[h.off:h.end]); err != nil {
			return err
		}
	}
	sc.buf, sc.held = sc.buf[:0], sc.held[:0]
	return nil
}

// sortHeld orders records by (epoch, txnID, stream), append order breaking
// ties. Streams append nearly in commit-sequence order, so the common case
// is the already-sorted check.
func sortHeld(held []heldRecord) {
	order := func(x, y heldRecord) int {
		return cmp.Or(cmp.Compare(x.epoch, y.epoch), cmp.Compare(x.txnID, y.txnID), x.stream-y.stream)
	}
	if !slices.IsSortedFunc(held, order) {
		slices.SortStableFunc(held, order)
	}
}

// SealSegment prepares one segment file's image for concatenated replay: it
// trims the torn tail (the partial or in-place-torn final frame a crash left
// behind — the same cases ScanStream tolerates at end of stream) and, when
// ceiling > 0, drops every frame tagged with an epoch above the ceiling.
//
// Both matter because a stream's log is the concatenation of its segment
// files: a crashed incarnation's torn tail sits mid-stream once a later
// segment follows it, where the replay scanner would reject it as hard
// corruption; and records beyond the replay frontier that one recovery
// truncated must stay dead in every later recovery, even after new epochs
// grow past them — the manifest's sealing epoch is that replay ceiling.
//
// A sealed image with ceiling > 0 ends with a marker for ceiling+1: the
// sealing epoch is itself a completeness certificate (rotation certifies
// its boundary durable on every stream before the manifest seals at it,
// and recovery seals at the merged frontier, which never exceeds any one
// stream's own complete prefix), and the marker frames that originally
// carried the claim may sit above the ceiling — the rotation boundary's
// marker is boundary+1 — so dropping them without this replacement would
// shrink the stream's provable frontier below epochs the engine already
// acknowledged.
//
// Damage before the final frame is real corruption and returns ErrCorrupt.
// The returned image is a fresh slice; data is not modified.
func SealSegment(data []byte, ceiling uint64) ([]byte, error) {
	out := make([]byte, 0, len(data))
	off := 0
	for off < len(data) {
		if off+headerSize > len(data) {
			break // torn header
		}
		size := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if size <= 0 || size > 1<<30 {
			break // zeroed/torn tail: nothing after this header is usable
		}
		end := off + headerSize + size
		if end > len(data) {
			break // torn payload
		}
		payload := data[off+headerSize : end]
		if crc32.ChecksumIEEE(payload) != crc {
			if end == len(data) {
				break // in-place-torn final record
			}
			return nil, ErrCorrupt
		}
		epoch, _, err := frameEpoch(payload)
		if err != nil {
			return nil, err
		}
		if ceiling == 0 || epoch <= ceiling {
			out = append(out, data[off:end]...)
		}
		off = end
	}
	if ceiling > 0 {
		out = appendMarker(out, ceiling+1)
	}
	return out, nil
}

// ReplayStreamBytes is ReplayStreams under FrontierGlobal and CommitOrder
// over in-memory stream images (tests).
func ReplayStreamBytes(streams [][]byte, apply func(stream int, cr *CommitRecord) error) (StreamReplayStats, error) {
	readers := make([]io.Reader, len(streams))
	for i := range streams {
		readers[i] = bytes.NewReader(streams[i])
	}
	return ReplayStreams(readers, FrontierGlobal, CommitOrder, apply)
}
