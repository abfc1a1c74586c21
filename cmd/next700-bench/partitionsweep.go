package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"next700/internal/core"
	"next700/internal/fault"
	"next700/internal/harness"
	"next700/internal/storage"
	"next700/internal/wal"
)

// The partition sweep measures the three promises of partition-fault
// isolation on one engine lifecycle:
//
//  1. Degradation is contained: with one partition quarantined, the
//     surviving partitions' per-partition goodput stays at its healthy
//     level, and every loss on the dark partition classifies as the
//     terminal ErrPartitionUnavailable (counted as partition_aborts).
//  2. Recovery is proportional to the fault: rebuilding the one dark
//     partition live (newest checkpoint slice + its own stream tail, while
//     the engine keeps serving) is measurably faster than recovering the
//     whole engine from the same store state.
//  3. Both recoveries agree: the dark partition's state after live
//     RecoverPartition equals its state after whole-engine
//     RecoverFromStore of a crash-surviving store copy — and a commit the
//     readmitted partition acknowledges survives a crash right after it.

// partitionRetainTarget is the acceptance bar for degradation containment:
// surviving partitions must retain at least this fraction of their healthy
// per-partition goodput while one partition is dark.
const partitionRetainTarget = 0.8

// partSweepRecords is each partition's key count: small enough that slices
// stay cheap, large enough that recovery does real index and copy work.
const partSweepRecords = 2048

// partSweepOpsPerTxn is the read-modify-write count per transaction; all
// keys stay inside the worker's home partition.
const partSweepOpsPerTxn = 4

// partitionSweep is one engine lifecycle reported as four rows — the healthy
// and degraded goodput phases, then the two recoveries of the same history.
// Of the common parameters it uses partitions, Duration (per measured
// phase) and Seed.
func partitionSweep(c common) sweep {
	P := c.partitions
	if P <= 1 {
		P = 4
	}
	if P > 16 {
		P = 16
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	target := P - 1
	return sweep{
		name: "partition",
		title: fmt.Sprintf("partition-fault sweep, SILO + partition-affinity WAL, %d partitions × %d records, %s per phase",
			P, partSweepRecords, c.Duration),
		params: map[string]interface{}{
			"protocol": "SILO", "partitions": P, "records_per_partition": partSweepRecords,
			"quarantined_partition": target, "phase_ms": ms(c.Duration).Value, "retain_target": partitionRetainTarget,
		},
		axes: []string{"phase"},
		cols: []string{"goodput_tps", "per_partition_tps", "partition_aborts", "checkpoint_ms", "recover_ms", "tail_records", "checkpoint_loaded"},
		run: func(s *sweepRun) error {
			store := fault.NewMemStore(fault.StoreChaos{Seed: c.Seed})
			att, err := core.InitCheckpointLog(store, P, wal.ModeValue)
			if err != nil {
				return err
			}
			e, tbl, err := partSweepEngine(P, att.Devices)
			if err != nil {
				return err
			}
			defer e.Close()
			if err := partSweepLoad(e, tbl, P, -1); err != nil {
				return fmt.Errorf("load: %w", err)
			}
			ck, err := e.NewCheckpointer(store, 2, att.Devices)
			if err != nil {
				return err
			}
			wl := &partRMW{tbl: tbl, parts: P}
			phase := func(d time.Duration, seed uint64) (harness.Result, error) {
				return harness.Drive(e, wl, harness.RunOptions{Duration: d, Seed: seed})
			}
			goodput := func(phase string, r harness.Result, parts int, m map[string]metric) float64 {
				m["goodput_tps"] = perSec(r.Tps)
				m["per_partition_tps"] = perSec(r.Tps / float64(parts))
				s.row(map[string]interface{}{"phase": phase}, m)
				return r.Tps / float64(parts)
			}

			// Phase 1: healthy goodput, all partitions committing.
			healthy, err := phase(c.Duration, c.Seed)
			if err != nil {
				return fmt.Errorf("healthy phase: %w", err)
			}
			healthyPerPart := goodput("healthy", healthy, P, map[string]metric{})

			// One generation, then a tail burst so every stream has history
			// past its slice — the single-partition recovery replays that tail.
			t0 := time.Now()
			if err := ck.CheckpointNow(); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			s.row(map[string]interface{}{"phase": "checkpoint"}, map[string]metric{"checkpoint_ms": ms(time.Since(t0))})
			if _, err := phase(c.Duration/2, c.Seed^0x9e37); err != nil {
				return fmt.Errorf("tail burst: %w", err)
			}

			// Quarantine one partition and measure the survivors: the dark
			// partition's worker keeps attempting and commits nothing, and a
			// loss there of any class but ErrPartitionUnavailable ends its
			// worker with an error.
			if err := e.QuarantinePartition(target); err != nil {
				return fmt.Errorf("quarantine: %w", err)
			}
			degraded, derr := phase(c.Duration, c.Seed^0x7f4a)
			survivingPerPart := goodput("degraded", degraded, P-1,
				map[string]metric{"partition_aborts": count(degraded.PartitionAborts)})
			s.check("aborts_all_partition_class", derr == nil && degraded.PartitionAborts > 0,
				"%d partition aborts; a loss of another class: %v", degraded.PartitionAborts, derr)
			retained := 0.0
			if healthyPerPart > 0 {
				retained = survivingPerPart / healthyPerPart
			}
			s.target("retain_target", retained >= partitionRetainTarget,
				"surviving partitions retained %.0f%% of healthy per-partition goodput, target %.0f%%",
				retained*100, partitionRetainTarget*100)

			// Snapshot the store before repairing anything: the whole-engine
			// recovery below rebuilds from this same moment, so the two recovery
			// times answer "one partition vs everything" for identical history.
			surv := store.Survivor(fault.StoreChaos{Seed: c.Seed + 1})

			// Live single-partition recovery: the engine resolves the newest
			// loadable slice and the stream's tail from the store itself.
			recovered := func(phase string, rs core.RecoveryStats, took time.Duration) {
				s.row(map[string]interface{}{"phase": phase}, map[string]metric{
					"recover_ms":        ms(took),
					"tail_records":      count(uint64(rs.Records)),
					"checkpoint_loaded": flag01(rs.CheckpointLoaded),
				})
			}
			t0 = time.Now()
			rs, err := ck.RecoverPartition(target, func() error { return partSweepLoad(e, tbl, P, target) })
			partTook := time.Since(t0)
			if err != nil {
				return fmt.Errorf("RecoverPartition: %w", err)
			}
			recovered("recover_partition", rs, partTook)
			digestLive, err := partSweepDigest(e, tbl, P, target)
			if err != nil {
				return fmt.Errorf("digest: %w", err)
			}
			// The readmitted partition must take commits again, durably: a
			// second crash image, taken now, must hold this one.
			if err := partSweepCommitOne(e, tbl, P, target); err != nil {
				return fmt.Errorf("post-recovery commit: %w", err)
			}
			digestCommitted, err := partSweepDigest(e, tbl, P, target)
			if err != nil {
				return fmt.Errorf("digest: %w", err)
			}
			surv2 := store.Survivor(fault.StoreChaos{Seed: c.Seed + 2})
			e.Close()

			// Whole-engine recovery of the same store states.
			whole := func(surv *fault.MemStore) (rs core.RecoveryStats, took time.Duration, digest uint32, err error) {
				att2, err := core.AttachCheckpointLog(surv)
				if err != nil {
					return
				}
				e2, tbl2, err := partSweepEngine(P, att2.Devices)
				if err != nil {
					return
				}
				defer e2.Close()
				t0 := time.Now()
				rs, err = e2.RecoverFromStore(surv, att2, func() error { return partSweepLoad(e2, tbl2, P, -1) })
				took = time.Since(t0)
				if err != nil {
					return rs, took, 0, fmt.Errorf("RecoverFromStore: %w", err)
				}
				digest, err = partSweepDigest(e2, tbl2, P, target)
				return
			}
			rs2, wholeTook, digestWhole, err := whole(surv)
			if err != nil {
				return err
			}
			recovered("recover_engine", rs2, wholeTook)
			s.check("recovered_digest_match", digestLive == digestWhole,
				"partition %d after live recovery %08x, after whole-engine recovery %08x", target, digestLive, digestWhole)
			_, _, digestReadmitted, err := whole(surv2)
			if err != nil {
				return err
			}
			s.check("readmitted_commit_durable", digestReadmitted == digestCommitted && digestCommitted != digestLive,
				"partition %d after its post-readmission commit %08x, recovered from a crash right after it %08x",
				target, digestCommitted, digestReadmitted)
			s.target("recover_speedup_target", partTook < wholeTook,
				"single-partition recovery %v vs whole-engine %v", partTook, wholeTook)
			return nil
		},
	}
}

// partSweepEngine opens the partition-affinity engine and its account table.
// Keys map to partitions by the default key mod P rule, so worker p owns
// keys {i*P + p}.
func partSweepEngine(P int, devs []wal.Device) (*core.Engine, *core.Table, error) {
	e, err := core.Open(core.Config{
		Protocol:     "SILO",
		Threads:      P,
		Partitions:   P,
		LogMode:      wal.ModeValue,
		WALStreams:   P,
		LogDevices:   devs,
		PartitionWAL: true,
	})
	if err != nil {
		return nil, nil, err
	}
	tbl, err := e.CreateTable(storage.MustSchema("acct", storage.I64("v")), core.IndexHash)
	if err != nil {
		e.Close()
		return nil, nil, err
	}
	return e, tbl, nil
}

// partSweepLoad zero-loads every key of partition only (or of all
// partitions when only is -1). It is both the initial load and the recovery
// fallback callbacks.
func partSweepLoad(e *core.Engine, tbl *core.Table, P, only int) error {
	sch := tbl.Schema()
	row := sch.NewRow()
	sch.SetInt64(row, 0, 0)
	for p := 0; p < P; p++ {
		if only >= 0 && p != only {
			continue
		}
		for i := 0; i < partSweepRecords; i++ {
			if err := e.Load(tbl, uint64(i*P+p), row); err != nil {
				return err
			}
		}
	}
	return nil
}

// partRMW is the partition sweep's load: each worker is homed to partition
// ThreadID mod parts, and each transaction read-modify-writes
// partSweepOpsPerTxn of its home keys. On a quarantined home it backs off
// the way a client would before the harness counts the partition abort.
type partRMW struct {
	tbl   *core.Table
	parts int
}

func (w *partRMW) Name() string { return "partition-rmw" }

// Setup is a no-op: the sweep loads the engine, and recovery reloads it.
func (w *partRMW) Setup(*core.Engine) error { return nil }

func (w *partRMW) RunOne(tx *core.Tx) error {
	home, sch := tx.ThreadID()%w.parts, w.tbl.Schema()
	err := tx.Run(func(tx *core.Tx) error {
		for i := 0; i < partSweepOpsPerTxn; i++ {
			r, err := tx.Update(w.tbl, uint64(tx.RNG().Intn(partSweepRecords)*w.parts+home))
			if err != nil {
				return err
			}
			sch.SetInt64(r, 0, sch.GetInt64(r, 0)+1)
		}
		return nil
	})
	if errors.Is(err, core.ErrPartitionUnavailable) {
		time.Sleep(100 * time.Microsecond)
	}
	return err
}

// partSweepDigest folds the target partition's committed key/value pairs
// into a CRC, read through a transaction so the digest sees only committed
// state.
func partSweepDigest(e *core.Engine, tbl *core.Table, P, target int) (uint32, error) {
	h := crc32.NewIEEE()
	var buf [16]byte
	tx := e.NewTx(0, 1)
	sch := tbl.Schema()
	err := tx.Run(func(tx *core.Tx) error {
		for i := 0; i < partSweepRecords; i++ {
			key := uint64(i*P + target)
			r, err := tx.Read(tbl, key)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(buf[0:8], key)
			binary.LittleEndian.PutUint64(buf[8:16], uint64(sch.GetInt64(r, 0)))
			h.Write(buf[:])
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}

// partSweepCommitOne commits one update on the recovered partition — the
// readmission sanity check.
func partSweepCommitOne(e *core.Engine, tbl *core.Table, P, target int) error {
	tx := e.NewTx(0, 2)
	sch := tbl.Schema()
	return tx.Run(func(tx *core.Tx) error {
		r, err := tx.Update(tbl, uint64(target))
		if err != nil {
			return err
		}
		sch.SetInt64(r, 0, sch.GetInt64(r, 0)+1)
		return nil
	})
}
