package wal

import (
	"cmp"
	"encoding/binary"
	"fmt"
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

// Segment is one piece of a stream's log, as the manifest lists it: a reader
// over its frames and the epoch it was sealed at (ManifestSegment.ToEpoch; 0
// for an active segment).
type Segment struct {
	Reader  io.Reader
	ToEpoch uint64
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
// A stream is its segments in append order, each scanned once, in place. A
// torn tail ends its segment — a crashed incarnation's tail sits mid-stream
// once a later segment follows it — and counts into TornBytes only for an
// active segment; damage before it is ErrCorrupt. A sealed segment replays
// only its frames at or below its sealing epoch, the durable form of an
// earlier recovery's truncation decision; the frames dropped count nowhere.
// Its end certifies the stream complete through the sealing epoch — rotation
// certifies its boundary on every stream before the manifest seals at it,
// and recovery seals at a frontier no higher than any stream's complete
// prefix — because the markers that carried that claim may lie above the
// ceiling (rotation's is boundary+1) and be dropped with it.
//
// A stream replayed to its own frontier — every stream under
// FrontierPerStream, and the only stream of a one-stream log — needs no
// merge: it is applied as it is scanned, holding back only the records of
// its newest, not yet certified epoch. Only FrontierGlobal over several
// streams must see every stream's frontier before it can apply anything;
// it buffers the records and merges them by (epoch, txnID, stream), which is
// total and deterministic, whatever the order.
func ReplayStreams(streams [][]Segment, rule FrontierRule, order Order, apply func(stream int, cr *CommitRecord) error) (StreamReplayStats, error) {
	st := StreamReplayStats{Streams: len(streams), StreamFrontiers: make([]uint64, len(streams))}
	if len(streams) == 0 {
		return st, fmt.Errorf("wal: replay needs at least one stream: %w", ErrCorrupt)
	}
	merge := rule == FrontierGlobal && len(streams) > 1
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
	for i, segs := range streams {
		sc := streamScan{stream: i, st: &st, buf: buf, held: held, keep: merge, order: order, emit: emit}
		err := sc.scan(segs)
		buf, held = sc.buf, sc.held
		if err != nil {
			return st, err
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
// for the caller's cross-stream merge. ceiling is the sealing epoch of the
// segment being scanned (0: active).
type streamScan struct {
	stream  int
	st      *StreamReplayStats
	high    uint64
	ceiling uint64
	buf     []byte
	held    []heldRecord
	keep    bool
	order   Order
	emit    func(stream int, payload []byte) error
}

// scan reads the stream's segments in order, each in place.
func (sc *streamScan) scan(segs []Segment) error {
	for j, sg := range segs {
		sc.ceiling = sg.ToEpoch
		var tail ReplayStats
		if err := scanFrames(sg.Reader, &tail, sc.frame); err != nil {
			return fmt.Errorf("wal: stream %d segment %d: %w", sc.stream, j, err)
		}
		if sg.ToEpoch == 0 {
			sc.st.TornBytes += tail.TornBytes
			sc.st.CorruptTailRecords += tail.CorruptTailRecords
		} else if err := sc.certify(sg.ToEpoch + 1); err != nil {
			return err
		}
	}
	return nil
}

func (sc *streamScan) frame(payload []byte) error {
	epoch, isMarker, err := frameEpoch(payload)
	if err != nil {
		return err
	}
	if sc.ceiling != 0 && epoch > sc.ceiling {
		return nil // past its segment's seal
	}
	if err := sc.certify(epoch); err != nil {
		return err
	}
	sc.st.Bytes += headerSize + int64(len(payload))
	if isMarker {
		sc.st.Markers++
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

// certify raises the completeness bound to epoch when that is higher,
// releasing the group the raise certifies.
func (sc *streamScan) certify(epoch uint64) error {
	if epoch <= sc.high {
		return nil
	}
	sc.high = epoch
	if sc.keep {
		return nil
	}
	return sc.release()
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
