package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"next700/internal/storage"
	"next700/internal/txn"
	"next700/internal/wal"
)

// This file is the partition-fault isolation layer: with Config.PartitionWAL
// the parallel WAL is sharded by partition instead of worker thread, and the
// partition becomes the unit of failure, degradation, and recovery.
//
//   - Routing: a commit appends its full record to the stream of every
//     partition it wrote (one epoch tag for all copies), so each stream is a
//     self-contained log of its partition's effects.
//   - Quarantine: when a stream's device sticky-fails (or stalls past
//     Config.QuarantineStall), the guard marks the partition quarantined.
//     Transactions touching it abort with the terminal
//     ErrPartitionUnavailable class; healthy partitions keep committing
//     durably against the frontier re-certified over the survivors.
//   - Recovery: Checkpointer.RecoverPartition runs the recovery pipeline
//     (recover.go) for one partition — its newest loadable checkpoint slice,
//     its own stream's certified tail, its segments sealed and a fresh one
//     published — while the rest of the engine serves traffic, then readmits
//     the stream on that segment and lifts the quarantine.
//
// The cross-partition contract matches the per-stream replay contract of
// wal.FrontierPerStream: an acknowledged commit is certified on every
// stream it touched and always recovers in full; an unacknowledged commit in
// a failed partition's loss window may recover on its healthy partitions
// only. Reads that completed before a quarantine may likewise have observed
// state the failed partition later rolls back to its durable frontier —
// cross-partition read dependencies on that never-acknowledged suffix are
// not tracked.

// ErrPartitionUnavailable is the terminal abort class for transactions that
// touch a quarantined partition while the engine degrades around a
// partition fault. It is never retried; Run accounts it as
// Counter.PartitionAborts. Match with errors.Is.
var ErrPartitionUnavailable = errors.New("core: partition unavailable")

// errPartitionGate is prebuilt because the quarantine gate sits on
// operation and commit hot paths.
var errPartitionGate = fmt.Errorf("core: transaction touches quarantined partition: %w", ErrPartitionUnavailable)

// errStreamStalled is the cause recorded when the guard escalates a
// sustained gray stall (no sync progress with a flush in flight for
// Config.QuarantineStall) to a stream failure.
var errStreamStalled = fmt.Errorf("core: log stream sync stalled: %w", ErrPartitionUnavailable)

// ErrCheckpointQuarantined defers checkpoint cycles while any
// partition is quarantined: a generation taken then could not rotate the
// dead stream, and its slice for the quarantined partition would capture
// memory state ahead of that partition's durable frontier.
var ErrCheckpointQuarantined = errors.New("core: checkpoint deferred: partition quarantined")

// partitionOfKey maps a primary key to its partition: the installed
// partitioner when one is set (out-of-range answers fall back), key mod
// Partitions otherwise — the same default HSTORE uses, so WAL routing and
// protocol partitioning always agree.
//
//next700:hotpath
func (e *Engine) partitionOfKey(st *storage.Table, key uint64) int {
	if fn := e.env.PartitionOf; fn != nil {
		if p := fn(st, key); p >= 0 && p < e.cfg.Partitions {
			return p
		}
	}
	return int(key % uint64(e.cfg.Partitions))
}

// partitionGate aborts an operation that touches a quarantined partition.
// In a healthy engine (any mode) the gate is one atomic load of a zero
// mask; the partition is computed only while a quarantine is in force.
//
//next700:hotpath
func (t *Tx) partitionGate(tbl *Table, key uint64) error {
	e := t.eng
	mask := e.quarMask.Load()
	if mask == 0 {
		return nil
	}
	if mask&(1<<uint(e.partitionOfKey(tbl.tbl, key))) != 0 {
		return errPartitionGate
	}
	return nil
}

// collectStreams computes the set of partitions the transaction's write set
// touches into t.streamScratch (ascending, deduplicated through the
// returned bitmask). Scratch capacity is pre-sized to the partition bound,
// so the commit path allocates nothing.
//
//next700:hotpath
func (t *Tx) collectStreams() uint64 {
	e := t.eng
	inner := t.inner
	var mask uint64
	for i := range inner.Accesses {
		a := &inner.Accesses[i]
		if a.Kind == txn.KindRead {
			continue
		}
		mask |= 1 << uint(e.partitionOfKey(a.Table, a.Key))
	}
	sc := t.streamScratch[:0]
	for m, p := mask, 0; m != 0; m, p = m>>1, p+1 {
		if m&1 != 0 {
			sc = append(sc, p)
		}
	}
	t.streamScratch = sc
	return mask
}

// wrapPartitionErr classifies a per-stream log failure as a partition
// outage in partition-affinity mode, so callers (and the torture oracle)
// see every loss on a failed partition under one terminal class.
//
//next700:allowalloc(stream-failure path: never taken while the log is healthy)
func (e *Engine) wrapPartitionErr(err error) error {
	if e.cfg.PartitionWAL && errors.Is(err, wal.ErrStreamFailed) {
		return fmt.Errorf("%w: %w", ErrPartitionUnavailable, err)
	}
	return err
}

// QuarantinedPartitions returns the quarantine bitmask (bit p set =
// partition p unavailable).
func (e *Engine) QuarantinedPartitions() uint64 { return e.quarMask.Load() }

// quarantine marks partition p unavailable and excludes its stream from the
// durable frontier. The mask is set before the frontier re-certifies so no
// new transaction can route a commit at the dead stream while healthy
// waiters are being released. Idempotent.
func (e *Engine) quarantine(p int) {
	bit := uint64(1) << uint(p)
	for {
		old := e.quarMask.Load()
		if old&bit != 0 {
			return
		}
		if e.quarMask.CompareAndSwap(old, old|bit) {
			break
		}
	}
	// The stream is failed (the guard only quarantines after the failure
	// signal); Quarantine re-certifies the frontier over the survivors.
	_ = e.logs.Quarantine(p)
}

// QuarantinePartition fails partition p's stream (if it has not already
// failed) and quarantines it — the manual form of what the guard does on a
// device failure, for operators, benchmarks, and tests.
func (e *Engine) QuarantinePartition(p int) error {
	if !e.cfg.PartitionWAL {
		return fmt.Errorf("core: QuarantinePartition requires PartitionWAL: %w", ErrInvalidUsage)
	}
	if p < 0 || p >= e.cfg.Partitions {
		return fmt.Errorf("core: partition %d out of range: %w", p, ErrInvalidUsage)
	}
	if err := e.logs.FailStream(p, nil); err != nil {
		return err
	}
	e.quarantine(p)
	return nil
}

// partitionGuard is the quarantine monitor: it converts per-stream failure
// signals into partition quarantines, and escalates sustained gray stalls
// (claim stagnant with a flush in flight for Config.QuarantineStall) into
// failures. One goroutine per engine, started only in partition mode.
func (e *Engine) partitionGuard() {
	defer close(e.guardDone)
	type stallState struct {
		claim uint64
		since time.Time
	}
	n := e.logs.NumStreams()
	states := make([]stallState, n)
	var tickC <-chan time.Time
	if e.cfg.QuarantineStall > 0 {
		interval := e.cfg.QuarantineStall / 4
		if interval <= 0 {
			interval = e.cfg.QuarantineStall
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		tickC = tick.C
	}
	for {
		select {
		case <-e.guardStop:
			return
		case i, ok := <-e.logs.FailureC():
			if !ok {
				return
			}
			// The signal can outlive the failure it reports:
			// QuarantinePartition quarantines on its own, and RecoverPartition
			// may have readmitted the stream before the guard gets here.
			if e.logs.StreamFailed(i) {
				e.quarantine(i)
			}
		case now := <-tickC:
			// A stalled stream is one whose flusher has held a batch the
			// device will not acknowledge — claim frozen, flush in flight —
			// for the full window. Neither the distance between claim and
			// epoch nor buffered bytes would do as the signal. The
			// log runs one flush round at a time, so a wedged
			// sync pins the epoch at claim+1 for as long as it hangs; and the
			// hung batch is already swapped out of the staging buffer, while
			// the healthy streams sit on staged records, claims frozen, until
			// the hung stream is failed.
			for i := range states {
				if e.logs.StreamFailed(i) {
					continue
				}
				claim := e.logs.StreamClaim(i)
				if claim != states[i].claim || !e.logs.StreamPending(i) {
					states[i] = stallState{claim: claim}
					continue
				}
				if states[i].since.IsZero() {
					states[i].since = now
					continue
				}
				if now.Sub(states[i].since) >= e.cfg.QuarantineStall {
					// The failure signal loops back through FailureC, which
					// performs the quarantine.
					_ = e.logs.FailStream(i, errStreamStalled)
				}
			}
		}
	}
}

// clearPartition removes every record of partition p from memory: primary
// and secondary index entries are retracted and the protocol marks the
// records absent. Safe while healthy-partition traffic runs, provided the
// quarantine mask already covers p and the attempt gate has been drained
// since (no live transaction can then be touching p's records).
func (e *Engine) clearPartition(p int) {
	for _, t := range e.snapshotTables() {
		// Collect first: deleting under Iterate would mutate the index
		// mid-walk.
		keys := make([]uint64, 0, 64)
		rids := make([]storage.RecordID, 0, 64)
		t.primary.Iterate(func(key uint64, rid storage.RecordID) bool {
			if e.partitionOfKey(t.tbl, key) == p {
				keys = append(keys, key)
				rids = append(rids, rid)
			}
			return true
		})
		if len(t.secondaries) > 0 {
			owned := make(map[storage.RecordID]struct{}, len(rids))
			for _, rid := range rids {
				owned[rid] = struct{}{}
			}
			for j := range t.secondaries {
				t.secondaries[j].retractOwned(owned)
			}
		}
		for i, key := range keys {
			t.primary.Delete(key)
			e.proto.LoadRecord(t.tbl, rids[i], key, nil)
		}
	}
}

// retractOwned deletes every entry of the secondary index that points at an
// owned record.
func (s *secondary) retractOwned(owned map[storage.RecordID]struct{}) {
	var stale []uint64
	s.idx.Iterate(func(key uint64, rid storage.RecordID) bool {
		if _, ok := owned[rid]; ok {
			stale = append(stale, key)
		}
		return true
	})
	for _, key := range stale {
		s.idx.Delete(key)
	}
}

// PartitionFrontier returns the quarantined partition's certified durable
// epoch: every commit it acknowledged is tagged at or below it. It is the
// epoch RecoverPartition recovers to. An engine without PartitionWAL, an
// out-of-range p, and a stream that has certified nothing all have no
// frontier: 0.
func (e *Engine) PartitionFrontier(p int) uint64 {
	if !e.cfg.PartitionWAL || p < 0 || p >= e.cfg.Partitions {
		return 0
	}
	if claim := e.logs.StreamClaim(p); claim > 0 {
		return claim - 1
	}
	return 0
}

// RecoverPartition rebuilds quarantined partition p from the checkpoint store
// while the engine serves traffic on its healthy partitions, then readmits
// the partition's stream and lifts the quarantine: the recovery pipeline
// (recover.go) at the scope of slice p and stream p, run by the run-time
// owner of the manifest.
//
//	base  slice p at its newest loadable generation; with none, load (p's
//	      initial rows; nil when the partition had no pre-log state) and the
//	      full tail. Base and tail are resolved before anything is touched:
//	      an error up to there (ErrBadCheckpoint for a foreign format,
//	      ErrHistoryLost when the log no longer reaches back to the base)
//	      leaves the partition quarantined and its memory as it was. Then the
//	      attempt gate drains, p's in-memory state is cleared and the base
//	      installed.
//	tail  stream p's segments, applying only p's entries with epochs in
//	      (slice fence, PartitionFrontier(p)]: the certified prefix. Records
//	      beyond the frontier were never acknowledged and stay dead, exactly
//	      like whole-engine recovery.
//	seal  stream p's active segments are sealed at the frontier and a fresh
//	      one is published in the manifest, before the stream is readmitted
//	      on it.
//
// When it returns nil, everything the partition has acknowledged — before the
// fault or from now on — is in segments the manifest names: a crash at any
// later point recovers it, with or without a checkpoint cycle in between. An
// error after the base stage leaves the partition quarantined and the call
// repeatable. load runs under the checkpointer's mutex: it must not call back
// into the Checkpointer.
func (c *Checkpointer) RecoverPartition(p int, load func() error) (RecoveryStats, error) {
	e := c.e
	if !e.cfg.PartitionWAL {
		return RecoveryStats{}, fmt.Errorf("core: RecoverPartition requires PartitionWAL: %w", ErrInvalidUsage)
	}
	if p < 0 || p >= e.cfg.Partitions {
		return RecoveryStats{}, fmt.Errorf("core: partition %d out of range: %w", p, ErrInvalidUsage)
	}
	if e.quarMask.Load()&(1<<uint(p)) == 0 {
		return RecoveryStats{}, fmt.Errorf("core: partition %d is not quarantined: %w", p, ErrInvalidUsage)
	}
	// No cycle runs beside the rebuild, and the manifest it reads is the one
	// it replaces.
	c.mu.Lock()
	rs, err := c.rebuildPartition(p, load)
	c.mu.Unlock()
	if err != nil {
		return rs, err
	}
	bit := uint64(1) << uint(p)
	for {
		old := e.quarMask.Load()
		if e.quarMask.CompareAndSwap(old, old&^bit) {
			break
		}
	}
	return rs, nil
}

// rebuildPartition is RecoverPartition's pipeline, from base resolution to
// the stream's readmission, with c.mu held.
func (c *Checkpointer) rebuildPartition(p int, load func() error) (RecoveryStats, error) {
	var rs RecoveryStats
	e := c.e

	// Base and tail are resolved against the manifest before the partition
	// is touched. The live claim caps the tail at the epochs the stream
	// acknowledged before it died; it froze when the stream failed.
	frontier := e.PartitionFrontier(p)
	base, err := e.resolveBase(c.store, &c.manifest, p, 1, true, &rs)
	if err != nil {
		return rs, err
	}
	tail, err := streamImage(c.store, &c.manifest, p, &rs)
	if err != nil {
		return rs, err
	}
	skip := []uint64{0}
	if base != nil {
		skip[0] = base[0].fence
	}

	// Attempt-gate drain: afterwards every in-flight transaction began
	// after the quarantine mask was set and is gated off p entirely.
	e.quiesce.Lock()
	e.quiesce.Unlock() //nolint:staticcheck // empty critical section is the drain
	e.clearPartition(p)
	if err := e.installBase(base, load, &rs); err != nil {
		return rs, err
	}

	vr := e.newValueReplay(true)
	_, err = e.replayTail([]io.Reader{bytes.NewReader(tail)}, wal.FrontierPerStream, skip, &rs, func(_ int, cr *wal.CommitRecord) error {
		if cr.Epoch > frontier {
			rs.TruncatedRecords++
			return nil
		}
		return vr.record(cr, p)
	})
	vr.finish(&rs)
	if err != nil {
		return rs, err
	}
	rs.Streams, rs.FrontierEpoch = 1, frontier

	// Seal. As in a checkpoint cycle the segment exists before a manifest
	// names it, and the generation number is consumed once one does.
	name := segmentName(c.nextGen, p)
	dev, err := c.store.CreateSegment(name)
	if err != nil {
		return rs, fmt.Errorf("core: partition %d recovery segment: %w", p, err)
	}
	frontiers := make([]uint64, p+1)
	frontiers[p] = frontier
	sealed, dropped := sealActive(c.manifest, frontiers, p, &rs)
	sealed.Segments = append(sealed.Segments, wal.ManifestSegment{Stream: p, Name: name})
	saved, err := publishSeal(c.store, sealed, dropped)
	if saved {
		c.manifest, c.nextGen = sealed, c.nextGen+1
	}
	if err == nil {
		// Second drain before readmitting: nothing may sit between an append
		// to the old incarnation and its durability wait when the stream
		// comes back healthy.
		e.quiesce.Lock()
		e.quiesce.Unlock() //nolint:staticcheck // empty critical section is the drain
		err = e.logs.Readmit(p, dev)
	}
	if err != nil {
		closeDevice(dev)
		return rs, err
	}
	// The stream has left its dead incarnation's devices — one per rotation
	// it started since the last completed cycle, S apart in c.cur.
	for i := p; i < len(c.cur); i += e.cfg.Partitions {
		closeDevice(c.cur[i])
	}
	c.cur[p] = dev
	return rs, nil
}
