package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"

	"next700/internal/wal"
)

// RecoveryStats reports what a recovery pass did.
type RecoveryStats struct {
	// Records is the number of intact commit records replayed.
	Records int
	// Entries is the number of value-log entries applied (value mode).
	Entries int
	// Skipped counts value-log entries superseded by newer versions of the
	// same record later in the log (applied-if-newer filtering).
	Skipped int
	// Procs is the number of re-executed procedures (command mode).
	Procs int
	// Bytes is the log bytes consumed by intact, replayed records.
	Bytes int64
	// TornBytes is trailing bytes discarded as a torn tail — a record the
	// crash cut off mid-write, which a correct recovery must skip.
	TornBytes int64
	// CorruptTailRecords counts final records dropped because their CRC
	// failed at end-of-stream (torn payload of full length). Corruption
	// before the tail is not skippable and fails recovery instead.
	CorruptTailRecords int
	// Streams is the number of log streams replayed.
	Streams int
	// FrontierEpoch is the merged durable frontier: the last epoch fully
	// present across all streams.
	FrontierEpoch uint64
	// TruncatedRecords counts intact records beyond the frontier that
	// recovery dropped (partially durable epochs are never resurrected).
	TruncatedRecords int
	// CheckpointGen and CheckpointEpoch identify the checkpoint generation
	// store-based recovery restored from (both zero when recovery replayed
	// the full log from the initial load).
	CheckpointGen   uint64
	CheckpointEpoch uint64
	// CheckpointLoaded reports that a checkpoint generation was restored.
	CheckpointLoaded bool
	// CheckpointFallbacks counts newer checkpoint generations skipped
	// because they were missing or corrupt before one loaded.
	CheckpointFallbacks int
	// SkippedOldEpoch counts intact log records dropped because their epoch
	// is already covered by the restored checkpoint.
	SkippedOldEpoch int
	// ManifestFallback reports the recovery manifest was loaded from its
	// previous copy because the newest save was torn.
	ManifestFallback bool
	// MaxEpoch is the highest intact epoch observed anywhere in the replayed
	// streams, truncated records included. Store-based recovery raises the
	// engine's epoch counter past it so post-recovery appends never collide
	// with epochs already in the log.
	MaxEpoch uint64
	// SealedSegments counts inherited active segments this recovery sealed at
	// the replay frontier (or dropped outright when nothing in them was
	// recoverable), making the truncation decision durable: a record this
	// recovery refused to resurrect stays dead in every later recovery.
	SealedSegments int
	// StreamFrontiers holds the epoch each stream was replayed through:
	// FrontierEpoch for every stream of a thread-affinity log, the stream's
	// own certified frontier under partition affinity.
	StreamFrontiers []uint64
	// Appliers is the number of goroutines value replay spread the tail's
	// entries over (GOMAXPROCS). Zero under command logging, whose replay
	// re-executes procedures serially.
	Appliers int
}

// Every recovery is one pipeline in three stages, at one of two scopes: the
// whole engine (every slice, every stream) or, live, one quarantined
// partition (slice p, stream p).
//
//	base  the state the log tail replays over: the caller's pre-loaded
//	      initial state, or — from a checkpoint store — each slice in scope
//	      at its newest loadable generation (resolveBase), falling back to
//	      load() when some slice has none, and to ErrHistoryLost when the
//	      log no longer reaches back to what was resolved;
//	tail  each stream's segments, individually sealed and spliced
//	      (streamImage), replayed up to the epoch frontier (replayTail),
//	      skipping per stream the epochs the base already covers; under
//	      value logging the scan routes each entry by key to one of
//	      GOMAXPROCS appliers (valueReplay, replay.go);
//	seal  store-based recovery only: the scope's active segments are sealed
//	      at the replay frontier (sealActive) and the manifest saying so,
//	      and naming the segments the scope logs into next, is saved
//	      (publishSeal) before anything commits again: the truncation
//	      decision is durable, and no commit is ever acknowledged on a
//	      segment a later recovery would not read.
//
// Recover, RecoverStreams and RecoverFromStore are that pipeline at engine
// scope over different sources; Checkpointer.RecoverPartition (partition.go)
// is the same stages through the same helpers at partition scope. The
// manifest has one writer at a time: bootstrap and RecoverFromStore before the
// engine serves, the Checkpointer (cycles, partition recovery) while it does.

// Recover replays a one-stream log into the engine: RecoverStreams over a
// single reader. The engine must be in its freshly loaded initial state
// (same deterministic load as when the log was written) and must not be
// executing transactions.
//
// Value mode: after-images are applied directly, ordered per record by the
// commit version stamped at log time, with tables grown to cover logged
// record ids and indexes maintained — by GOMAXPROCS appliers, each owning
// the keys routed to it (replay.go).
//
// Command mode: each logged (proc, params) pair is re-executed serially in
// (epoch, commit-sequence) order through the normal transaction path. This
// reproduces the H-Store/VoltDB recovery model; it is exact when the
// commit-sequence order matches the serialization order (single worker or
// HSTORE), which is how the recovery experiment runs it.
//
// Neither mode appends to the engine's own log: the log being replayed stays
// the authoritative record of what it holds, and may be the very file the
// engine logs to.
func (e *Engine) Recover(log io.Reader) (RecoveryStats, error) {
	return e.recoverFrom(recoverySource{logs: []io.Reader{log}})
}

// RecoverStreams replays the N streams of the engine's log: the streams are
// merged by epoch and truncated to the last epoch fully present across all
// of them (see wal.ReplayStreams; pre-epoch marker-free logs replay in
// full). The engine must be freshly loaded, as for Recover.
func (e *Engine) RecoverStreams(logs []io.Reader) (RecoveryStats, error) {
	return e.recoverFrom(recoverySource{logs: logs})
}

// RecoverFromStore performs bounded store-based recovery: restore the
// newest loadable checkpoint generation from att's manifest snapshot, then
// replay only the log tail past its epoch. A generation is a set of slices
// (one per partition under PartitionWAL, where each stream also replays to
// its own certified frontier; one otherwise) and a corrupt or missing slice
// falls back to the next older generation's on its own; with no usable
// checkpoint (or none taken yet) load is called to produce the initial state
// and the full log replays — unless checkpoint cycles have already pruned
// the start of the log, which is ErrHistoryLost. A generation written by a
// build with another image format is an ErrBadCheckpoint, not a fallback.
// The engine must be freshly opened with att.Devices and its schema
// created; transactions must not be running. As for Recover, nothing
// replayed is appended to the log: the sealed segments named by the
// manifest remain the authoritative tail until a later checkpoint prunes
// them, so a second crash before then replays the same state, never a
// doubled one.
func (e *Engine) RecoverFromStore(store CheckpointStore, att *LogAttachment, load func() error) (RecoveryStats, error) {
	return e.recoverFrom(recoverySource{store: store, att: att, load: load})
}

// recoverySource is what one recovery pass restores from: explicit stream
// readers over the engine's pre-loaded state (logs), or a checkpoint store
// with its attachment and the no-usable-checkpoint fallback (store, att,
// load).
type recoverySource struct {
	logs  []io.Reader
	store CheckpointStore
	att   *LogAttachment
	load  func() error
}

// recoverFrom is the recovery pipeline: base, tail, seal.
func (e *Engine) recoverFrom(src recoverySource) (RecoveryStats, error) {
	var rs RecoveryStats
	if e.cfg.LogMode != wal.ModeValue && e.cfg.LogMode != wal.ModeCommand {
		return rs, fmt.Errorf("core: recovery requires a logging mode, have %v: %w", e.cfg.LogMode, ErrInvalidUsage)
	}
	fromStore := src.store != nil
	perPartition := fromStore && e.cfg.PartitionWAL

	// Base: skip[i] is the epoch through which the restored state already
	// covers stream i — the fence of the slice its records replay over: slice
	// i under a partition-sharded log, slice 0 otherwise.
	readers, rule := src.logs, wal.FrontierGlobal
	skip := make([]uint64, len(readers))
	if fromStore {
		m := &src.att.recover
		rs.ManifestFallback = src.att.fellBack
		skip = make([]uint64, m.Streams)
		if perPartition {
			rule = wal.FrontierPerStream
		}
		base, err := e.resolveBase(src.store, m, 0, e.checkpointSlices(), false, &rs)
		if err == nil {
			err = e.installBase(base, src.load, &rs)
		}
		readers = make([]io.Reader, m.Streams)
		for i := 0; i < m.Streams && err == nil; i++ {
			if base != nil {
				skip[i] = base[i%len(base)].fence
			}
			var image []byte
			image, err = streamImage(src.store, m, i, &rs)
			readers[i] = bytes.NewReader(image)
		}
		if err != nil {
			return rs, err
		}
	}

	// Tail.
	var vr *valueReplay
	if e.cfg.LogMode == wal.ModeValue {
		vr = e.newValueReplay(perPartition)
	}
	var tx *Tx
	st, err := e.replayTail(readers, rule, skip, &rs, func(stream int, cr *wal.CommitRecord) error {
		switch {
		case perPartition:
			return vr.record(cr, stream)
		case vr != nil:
			return vr.record(cr, -1)
		}
		rs.Records++
		if tx == nil {
			tx = e.NewTx(0, 0x5ec0Fe5)
			tx.noLog = true
		}
		// Params alias the replay buffer; copy before re-execution.
		params := append([]byte(nil), cr.Params...)
		if err := tx.RunProc(cr.Proc, params); err != nil {
			return fmt.Errorf("core: proc %d replay: %w", cr.Proc, err)
		}
		rs.Procs++
		return nil
	})
	if vr != nil {
		vr.finish(&rs)
	}
	if err != nil {
		return rs, err
	}

	// Seal: post-recovery appends must tag strictly above every epoch
	// already in the log (or covered by the restored base), or a later
	// recovery would merge the incarnations out of order — also when the
	// readers were handed in and the engine appends to the same log.
	base := rs.MaxEpoch
	for _, ep := range skip {
		if ep > base {
			base = ep
		}
	}
	e.logs.RaiseEpoch(base)
	if !fromStore {
		return rs, nil
	}

	// The inherited active segments are sealed; the attachment's own fresh
	// segments, already published, stay active. With nothing inherited to
	// seal the manifest stands as it is.
	sealed, dropped := sealActive(src.att.recover, st.StreamFrontiers, -1, &rs)
	if rs.SealedSegments == 0 {
		return rs, nil
	}
	for i := range src.att.Devices {
		sealed.Segments = append(sealed.Segments, wal.ManifestSegment{Stream: i, Name: segmentName(src.att.Gen, i)})
	}
	_, err = publishSeal(src.store, sealed, dropped)
	return rs, err
}

// replayTail is the pipeline's tail stage: the readers replay to the
// frontier the rule selects, records tagged at or below their stream's skip
// epoch are dropped as already covered by the restored base (untagged
// pre-epoch records predate every base and never are), and what the replay
// consumed is copied out to rs.
func (e *Engine) replayTail(readers []io.Reader, rule wal.FrontierRule, skip []uint64, rs *RecoveryStats,
	apply func(stream int, cr *wal.CommitRecord) error) (wal.StreamReplayStats, error) {
	// Value replay applies a stream replayed to its own frontier in append
	// order, the only order that puts a key's delete before its re-insert
	// on one stream (wal.AppendOrder); the global merge over several
	// streams orders by txnID under either order.
	order := wal.CommitOrder
	if e.cfg.LogMode == wal.ModeValue {
		order = wal.AppendOrder
	}
	st, err := wal.ReplayStreams(readers, rule, order, func(stream int, cr *wal.CommitRecord) error {
		if cr.Epoch != 0 && cr.Epoch <= skip[stream] {
			rs.SkippedOldEpoch++
			return nil
		}
		return apply(stream, cr)
	})
	rs.Bytes, rs.CorruptTailRecords = st.Bytes, st.CorruptTailRecords
	rs.TornBytes += st.TornBytes // on top of what the store's segment seals trimmed
	rs.Streams, rs.FrontierEpoch, rs.MaxEpoch = st.Streams, st.Frontier, st.MaxEpoch
	rs.TruncatedRecords += st.TruncatedRecords
	rs.StreamFrontiers = st.StreamFrontiers
	return st, err
}

// newestFirst returns the manifest's checkpoint generations, newest first —
// the order base resolution falls back through.
func newestFirst(m *wal.Manifest) []wal.ManifestCheckpoint {
	cks := append([]wal.ManifestCheckpoint(nil), m.Checkpoints...)
	sort.Slice(cks, func(i, j int) bool { return cks[i].Gen > cks[j].Gen })
	return cks
}

// ErrHistoryLost reports a store recovery cannot be complete: checkpoint
// cycles pruned the log through an epoch (Manifest.TruncatedThrough) that the
// base recovery could resolve does not cover — every retained copy of some
// slice is missing or corrupt. Replaying what is left over that base would
// silently drop the commits in between, so recovery refuses instead. Match
// with errors.Is.
var ErrHistoryLost = errors.New("core: log history lost")

// sliceBase is one slice's resolved base: the validated load plan of its
// newest loadable generation, and the fence that generation embeds.
type sliceBase struct {
	plan       []ckptTableLoad
	fence, gen uint64
	ok         bool
}

// resolveBase is the base resolver for slices [first, first+n) — every slice
// for whole-engine recovery, one for partition recovery. Every generation in
// the manifest is a set of S slices, and each slice falls back through the
// generations on its own, newest first — a corrupt slice costs its own
// bounded-recovery head start, nobody else's (at S = 1 that is "fall back to
// the previous generation"). Nothing is applied: the result is the parsed
// plans, or nil when some slice in scope has no usable copy (no generation
// taken yet, or a double fault ate every one) and the base is the initial
// load plus the full log for the whole scope — partial initial loads cannot
// be expressed through the load callback, and mixing them with slice state
// would be exactly the silent partial load the format forbids. replacing
// says the scope's current keys are cleared before the plans apply (live
// recovery), so a slice key already in the engine is expected.
func (e *Engine) resolveBase(store CheckpointStore, m *wal.Manifest, first, n int, replacing bool, rs *RecoveryStats) ([]sliceBase, error) {
	S := e.checkpointSlices()
	resolved := make([]sliceBase, n)
	missing := n
	for _, ck := range newestFirst(m) {
		if missing == 0 {
			break
		}
		if ck.Slices == 0 {
			return nil, fmt.Errorf("%w 1: generation %d (%s) is a whole-engine image written by an older build",
				errCheckpointVersion, ck.Gen, ck.Name)
		}
		if ck.Slices != S {
			// A differently-partitioned generation cannot be loaded
			// piecewise; skip it.
			rs.CheckpointFallbacks++
			continue
		}
		for i, p := 0, first; i < n; i, p = i+1, p+1 {
			if resolved[i].ok {
				continue
			}
			var plan []ckptTableLoad
			var fence uint64
			rc, err := store.OpenCheckpoint(sliceName(ck.Name, p))
			if err == nil {
				plan, fence, err = e.readSlice(rc, p, S, replacing)
				rc.Close()
			}
			if errors.Is(err, errCheckpointVersion) {
				return nil, fmt.Errorf("core: recovery slice %s: %w", sliceName(ck.Name, p), err)
			}
			if err != nil {
				rs.CheckpointFallbacks++
				continue // the next-older generation's slice is tried
			}
			resolved[i] = sliceBase{plan: plan, fence: fence, gen: ck.Gen, ok: true}
			missing--
		}
	}
	if missing == 0 {
		for i, sl := range resolved {
			if sl.gen > rs.CheckpointGen {
				rs.CheckpointGen = sl.gen
			}
			if i == 0 || sl.fence < rs.CheckpointEpoch {
				rs.CheckpointEpoch = sl.fence
			}
		}
	}
	if rs.CheckpointEpoch < m.TruncatedThrough {
		return nil, fmt.Errorf("%w: the log is truncated through epoch %d but the restorable base covers %d (%d checkpoint objects unusable)",
			ErrHistoryLost, m.TruncatedThrough, rs.CheckpointEpoch, rs.CheckpointFallbacks)
	}
	if missing > 0 {
		return nil, nil
	}
	return resolved, nil
}

// installBase puts a resolved base in place: the slices' plans — validated
// against the engine (unknown tables, duplicate keys) at parse time and
// key-disjoint, so they compose — or, when resolution found no complete
// base, the load callback's initial state.
func (e *Engine) installBase(base []sliceBase, load func() error, rs *RecoveryStats) error {
	if base == nil {
		if load == nil {
			return nil
		}
		return load()
	}
	for _, sl := range base {
		e.applyCheckpointPlan(sl.plan)
	}
	rs.CheckpointLoaded = true
	return nil
}

// streamImage assembles one stream's log tail: the manifest's segments of
// that stream in generation order, concatenated. Each segment is sealed
// individually before the splice: its torn tail is trimmed (a crash artifact
// that would otherwise sit mid-stream, where the scanner treats it as hard
// corruption) and, for segments a previous recovery or checkpoint sealed,
// frames above the sealing epoch are dropped — the durable form of that
// pass's truncation decision. A segment the store does not have
// (fs.ErrNotExist: published but never written — a crash between publication
// and first append, or an attachment's own siblings in a chained recovery)
// reads as empty; any other error opening one fails the recovery, because
// the segment may hold acknowledged commits. The torn tails trimmed off
// active segments count into rs.TornBytes.
func streamImage(store CheckpointStore, m *wal.Manifest, stream int, rs *RecoveryStats) ([]byte, error) {
	var image []byte
	for _, sg := range m.Segments {
		if sg.Stream != stream {
			continue
		}
		rc, err := store.OpenSegment(sg.Name)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("core: recovery segment %s: %w", sg.Name, err)
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, fmt.Errorf("core: recovery segment %s: %w", sg.Name, err)
		}
		clean, err := wal.SealSegment(data, sg.ToEpoch)
		if err != nil {
			return nil, fmt.Errorf("core: recovery segment %s: %w", sg.Name, err)
		}
		if sg.ToEpoch == 0 {
			rs.TornBytes += int64(len(data) - len(clean))
		}
		image = append(image, clean...)
	}
	return image, nil
}

// sealActive is the seal rule, making a store-based recovery's truncation
// decision durable: every active segment in scope (stream only, or every
// stream when only < 0) is sealed at its stream's replay frontier, so any
// intact record beyond it — a commit that was never acknowledged — stays dead
// in every later recovery, even once new epochs grow past it. When nothing in
// the stream was recoverable (frontier zero) its actives are dropped outright.
// It returns m with the segments re-listed and the dropped ones, counting
// both kinds in rs.SealedSegments; nothing is saved.
func sealActive(m wal.Manifest, frontiers []uint64, only int, rs *RecoveryStats) (wal.Manifest, []wal.ManifestSegment) {
	segs := m.Segments
	m.Segments = nil
	var dropped []wal.ManifestSegment
	for _, sg := range segs {
		if sg.ToEpoch == 0 && (only < 0 || sg.Stream == only) {
			rs.SealedSegments++
			if uint(sg.Stream) >= uint(len(frontiers)) || frontiers[sg.Stream] == 0 {
				dropped = append(dropped, sg)
				continue
			}
			sg.ToEpoch = frontiers[sg.Stream]
		}
		m.Segments = append(m.Segments, sg)
	}
	return m, dropped
}

// publishSeal saves a sealed manifest — the scope's fresh active segments
// already appended — then removes the dropped segments, strictly after the
// manifest that no longer names them is durable. saved reports that the
// manifest is the store's current one, whatever the removals then did.
func publishSeal(store CheckpointStore, sealed wal.Manifest, dropped []wal.ManifestSegment) (saved bool, err error) {
	if err := store.SaveManifest(sealed); err != nil {
		return false, fmt.Errorf("core: recovery manifest seal: %w", err)
	}
	for _, sg := range dropped {
		if err := store.RemoveSegment(sg.Name); err != nil {
			return true, fmt.Errorf("core: recovery drop %s: %w", sg.Name, err)
		}
	}
	return true, nil
}
