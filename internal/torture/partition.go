// Partition-fault torture: the quarantine/degradation/recovery arc under a
// seeded device failure or process crash, checked against exact oracles.
//
// The workload is partition-local by construction — partition p owns
// accounts {i*P + p} and counter counterPartBase + p, and every transfer
// stays inside its partition — so each partition's recovered state is a
// pure function of its own committed prefix, which makes the digest oracle
// exact: whichever way a partition was recovered — live from the store while
// the others served, or with the whole engine after a crash — its counter
// MUST equal the acknowledged commit count (an acknowledged commit's epoch is
// covered by the stream's claim; an unacknowledged one is beyond the frontier
// and must be truncated — there is no slack in either direction), and every
// account must equal the replay of exactly that plan prefix.
//
// While partition t is dark, the other partitions must not degrade at all:
// their workers finish every transaction, every loss on t classifies as
// core.ErrPartitionUnavailable (anything else is a verdict failure), and a
// stamped Adya isolation probe pinned to partition 0 runs on the degraded
// engine and must report zero anomalies.
package torture

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"next700/internal/core"
	"next700/internal/fault"
	"next700/internal/storage"
	"next700/internal/wal"
	"next700/internal/xrand"
)

// Typed partition-lane violations, wrapped with the seed for replay.
var (
	// ErrPartitionClass reports a loss on the failed partition that did not
	// classify as core.ErrPartitionUnavailable.
	ErrPartitionClass = errors.New("torture: partition loss with wrong error class")
	// ErrPartitionBleed reports degradation outside the failed partition.
	ErrPartitionBleed = errors.New("torture: healthy partition degraded")
	// ErrPartitionDigest reports a recovered partition whose state is not
	// exactly the replay of its acknowledged commit prefix.
	ErrPartitionDigest = errors.New("torture: recovered partition digest mismatch")
)

// The faults a partition iteration can script. Every arm runs the same
// workers on the same store-backed engine and ends at verifyPartitionDigests.
const (
	// faultNone is the control: every partition completes every transaction.
	faultNone = "none"
	// faultDevice fails one partition's log device mid-run: quarantine,
	// degradation checks, live recovery from the store, one more commit on
	// the readmitted stream.
	faultDevice = "device"
	// faultDeviceCrash goes on from there: the readmitted partition commits
	// the rest of its plan (a checkpoint cycle in between on a seeded coin),
	// then the process crashes and the whole engine recovers from the store —
	// every commit acknowledged after readmission included.
	faultDeviceCrash = "device+crash"
	// faultCrash is a process crash after a mid-run checkpoint: each
	// partition recovers from its own slice plus its own stream tail.
	faultCrash = "crash"
	// faultCrashCorrupt also flips a byte in one partition's newest slice:
	// it must never load silently — recovery reports a fallback and still
	// lands on the exact committed state.
	faultCrashCorrupt = "crash+corrupt-slice"
)

// PartitionConfig scripts one partition-fault iteration.
type PartitionConfig struct {
	// Protocol is the concurrency-control scheme (default SILO).
	Protocol string
	// Partitions is the partition (= worker = stream) count, default 4.
	Partitions int
	// AccountsPerPartition sizes each partition's account set (default 8).
	AccountsPerPartition int
	// TxnsPerPartition is each partition worker's commit target (default 60).
	TxnsPerPartition int
	// Seed drives the failed-partition draw, the crash offset, and every
	// worker's transfer plan.
	Seed uint64
	// Fault is the scripted fault, one of the fault* values (default
	// faultDevice).
	Fault string
}

func (c PartitionConfig) normalized() PartitionConfig {
	if c.Protocol == "" {
		c.Protocol = "SILO"
	}
	if c.Partitions <= 1 {
		c.Partitions = 4
	}
	if c.AccountsPerPartition <= 0 {
		c.AccountsPerPartition = 8
	}
	if c.TxnsPerPartition <= 0 {
		c.TxnsPerPartition = 60
	}
	if c.Fault == "" {
		c.Fault = faultDevice
	}
	return c
}

// PartitionResult summarizes one iteration.
type PartitionResult struct {
	Seed   uint64
	Target int  // the partition whose device fails (-1 without a device fault)
	Fired  bool // the planned device failure was reached during the run
	// Acked is the per-partition acknowledged commit count.
	Acked []int
	// Lost counts the failed partition's attempts that terminated with
	// ErrPartitionUnavailable (the degradation shed).
	Lost int
	// ProbeTxns is the committed stamped-probe transaction count on the
	// degraded engine.
	ProbeTxns int
	// Recovery is the live single-partition recovery's stats, Reboot the
	// whole-engine store recovery's after a process crash.
	Recovery, Reboot core.RecoveryStats
}

// counterPartBase keeps the per-partition commit counters far above any
// account key. The partitioner maps counterPartBase+p to partition p
// explicitly, so the layout works for any partition count.
const counterPartBase = 1 << 20

// partitionPlans builds every partition's deterministic transfer plan.
// Partition p's transfers stay inside its own account set.
func partitionPlans(cfg PartitionConfig) [][]transfer {
	plans := make([][]transfer, cfg.Partitions)
	for p := range plans {
		wrng := xrand.New(cfg.Seed ^ (0xb5297a4d3f84d5b5 * uint64(p+1)))
		plan := make([]transfer, cfg.TxnsPerPartition)
		for i := range plan {
			from := uint64(wrng.Intn(cfg.AccountsPerPartition)*cfg.Partitions + p)
			to := from
			for to == from {
				to = uint64(wrng.Intn(cfg.AccountsPerPartition)*cfg.Partitions + p)
			}
			plan[i] = transfer{from: from, to: to, delta: int64(wrng.IntRange(1, 100))}
		}
		plans[p] = plan
	}
	return plans
}

// buildPartitionEngine opens a partition-affinity engine over devs, installs
// the table-aware partitioner (counters map explicitly; the isolation
// probe's table pins to partition 0 so it can run while another partition is
// dark), and creates the account table.
func buildPartitionEngine(cfg PartitionConfig, devs []wal.Device) (*core.Engine, *core.Table, error) {
	P := cfg.Partitions
	e, err := core.Open(core.Config{
		Protocol:      cfg.Protocol,
		Threads:       P,
		Partitions:    P,
		LogMode:       wal.ModeValue,
		WALStreams:    P,
		LogDevices:    devs,
		PartitionWAL:  true,
		EpochInterval: time.Millisecond,
	})
	if err != nil {
		return nil, nil, err
	}
	e.SetPartitioner(func(tbl *core.Table, key uint64) int {
		if tbl.Name() == "verify_probe" {
			return 0
		}
		if key >= counterPartBase {
			return int(key-counterPartBase) % P
		}
		return int(key % uint64(P))
	})
	sch := storage.MustSchema("acct", storage.I64("v"))
	tbl, err := e.CreateTable(sch, core.IndexHash)
	if err != nil {
		e.Close()
		return nil, nil, err
	}
	return e, tbl, nil
}

// loadPartitions zero-loads the accounts and counter of partition only, or of
// every partition when only is -1. It is the initial load and both recovery
// scopes' base-state callback.
func loadPartitions(cfg PartitionConfig, e *core.Engine, tbl *core.Table, only int) error {
	sch := tbl.Schema()
	row := sch.NewRow()
	for p := 0; p < cfg.Partitions; p++ {
		if only >= 0 && p != only {
			continue
		}
		for i := 0; i <= cfg.AccountsPerPartition; i++ {
			key := uint64(i*cfg.Partitions + p)
			if i == cfg.AccountsPerPartition {
				key = counterPartBase + uint64(p)
			}
			if err := e.Load(tbl, key, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// runPartitionPlans is the lane's one worker body: partition p's worker runs
// its plan from its acknowledged count up to index hi, counting acknowledged
// commits into acked. Losses are legitimate only on the dark partition and
// only with the partition class — its worker keeps attempting, degradation
// must be shed, not wedged; the count is returned. Anything else is a
// verdict: ErrPartitionClass on the dark partition, ErrPartitionBleed off it.
func runPartitionPlans(cfg PartitionConfig, e *core.Engine, tbl *core.Table, plans [][]transfer, acked []int, hi, dark int) (int, error) {
	lost := make([]int, cfg.Partitions)
	hard := make([]error, cfg.Partitions)
	var wg sync.WaitGroup
	for p := range plans {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			tx := e.NewTx(p, cfg.Seed^uint64(p)+uint64(acked[p])+1)
			for _, tr := range plans[p][min(acked[p], hi):hi] {
				err := tx.Run(func(tx *core.Tx) error {
					return applyTransfer(tx, tbl, counterPartBase+uint64(p), tr)
				})
				switch {
				case err == nil:
					acked[p]++
				case p == dark && errors.Is(err, core.ErrPartitionUnavailable):
					lost[p]++
				default:
					hard[p] = err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for p, err := range hard {
		if err != nil {
			class := ErrPartitionBleed
			if p == dark {
				class = ErrPartitionClass
			}
			return 0, fmt.Errorf("%w: partition %d: %v (seed %d)", class, p, err, cfg.Seed)
		}
	}
	for p := range plans {
		if p != dark && acked[p] < hi {
			return 0, fmt.Errorf("%w: partition %d acked %d/%d (seed %d)", ErrPartitionBleed, p, acked[p], hi, cfg.Seed)
		}
	}
	if dark < 0 {
		return 0, nil
	}
	return lost[dark], nil
}

// RunPartition executes one partition-fault iteration on a store-backed
// partition-affinity engine: run the plans under cfg.Fault, recover — one
// partition live, the whole engine after a crash, or both in turn — and hold
// every recovered state to the digest oracle.
func RunPartition(cfg PartitionConfig) (PartitionResult, error) {
	cfg = cfg.normalized()
	P, N := cfg.Partitions, cfg.TxnsPerPartition
	res := PartitionResult{Seed: cfg.Seed, Target: -1, Acked: make([]int, P)}
	rng := xrand.New(cfg.Seed)

	store := fault.NewMemStore(fault.StoreChaos{Seed: cfg.Seed})
	att, err := core.InitCheckpointLog(store, P, wal.ModeValue)
	if err != nil {
		return res, err
	}
	target := -1
	if cfg.Fault == faultDevice || cfg.Fault == faultDeviceCrash {
		// The target's segment device is wrapped in a chaos device with a
		// crash offset drawn to land mid-run (value records here carry 3
		// entries, ~110 framed bytes each).
		target = 1 + int(rng.Uint64n(uint64(P-1)))
		att.Devices[target] = fault.NewDevice(att.Devices[target], fault.Plan{
			Seed:        cfg.Seed,
			CrashAtByte: 1 + int64(rng.Uint64n(uint64(N*110)*3/4)),
		})
	}
	res.Target = target
	e, tbl, err := buildPartitionEngine(cfg, att.Devices)
	if err != nil {
		return res, err
	}
	defer e.Close()
	if err := loadPartitions(cfg, e, tbl, -1); err != nil {
		return res, err
	}
	ck, err := e.NewCheckpointer(store, 2, att.Devices)
	if err != nil {
		return res, err
	}
	plans := partitionPlans(cfg)
	run := func(hi, dark int) (int, error) { return runPartitionPlans(cfg, e, tbl, plans, res.Acked, hi, dark) }

	if target < 0 {
		// No device fault: the plans run to the end, around a mid-run
		// checkpoint in the crash arms.
		if cfg.Fault != faultNone {
			if _, err := run(N/2, -1); err != nil {
				return res, err
			}
			if err := ck.CheckpointNow(); err != nil {
				return res, err
			}
		}
		if _, err := run(N, -1); err != nil {
			return res, err
		}
		if cfg.Fault == faultNone {
			return res, verifyPartitionDigests(cfg, e, tbl, plans, res.Acked, -1)
		}
		return rebootPartitions(cfg, rng, e, store, ck.Manifest(), plans, res)
	}

	if res.Lost, err = run(N, target); err != nil {
		return res, err
	}
	res.Fired = res.Lost > 0
	if !res.Fired {
		// The crash offset overshot the run: a clean control iteration.
		if res.Acked[target] != N {
			return res, fmt.Errorf("%w: partition %d acked %d/%d with no observed fault (seed %d)",
				ErrPartitionBleed, target, res.Acked[target], N, cfg.Seed)
		}
		return res, verifyPartitionDigests(cfg, e, tbl, plans, res.Acked, -1)
	}

	// The guard learns of the failure asynchronously via the stream-set's
	// failure channel; the first worker loss can surface slightly earlier.
	deadline := time.Now().Add(5 * time.Second)
	for e.QuarantinedPartitions() != 1<<uint(target) {
		if time.Now().After(deadline) {
			return res, fmt.Errorf("torture: quarantine mask %#x never converged on partition %d (seed %d)",
				e.QuarantinedPartitions(), target, cfg.Seed)
		}
		time.Sleep(time.Millisecond)
	}

	// Healthy-partition digests hold while the failed partition is dark.
	if err := verifyPartitionDigests(cfg, e, tbl, plans, res.Acked, target); err != nil {
		return res, err
	}

	// Stamped isolation probe on the degraded engine — its table is pinned to
	// partition 0 by the partitioner, so it never touches the dark one:
	// quarantine must not cost the survivors their isolation. (Not in the arm
	// that reboots: the rebooted engine would have to know the probe's table.)
	if cfg.Fault == faultDevice {
		if res.ProbeTxns, err = runProbe(e, "degraded", P, probePartition0Txns, cfg.Seed); err != nil {
			return res, err
		}
	}

	// Live recovery from the store: the failed segment's synced prefix is
	// guaranteed; its unsynced written tail survives up to a seeded cut (the
	// claim cap truncates whatever un-certified bytes survive).
	for _, sg := range ck.Manifest().Segments {
		if sg.Stream == target && sg.ToEpoch == 0 {
			store.TearSegment(sg.Name, rng)
		}
	}
	res.Recovery, err = ck.RecoverPartition(target, func() error { return loadPartitions(cfg, e, tbl, target) })
	if err != nil {
		return res, fmt.Errorf("torture: partition recovery failed (seed %d): %w", cfg.Seed, err)
	}

	// Digest oracle at the recovered frontier: the recovered counter must
	// equal the acked count exactly, and the accounts must replay to that
	// prefix.
	if err := verifyPartitionDigests(cfg, e, tbl, plans, res.Acked, -1); err != nil {
		return res, err
	}

	// The partition is back in service: it must accept new durable commits —
	// the next entry of its plan, or under faultDeviceCrash all the rest of
	// it, around a checkpoint cycle on a seeded coin. Any loss is a verdict
	// now.
	next := res.Acked[target] + 1
	if cfg.Fault == faultDeviceCrash {
		next = N
		if rng.Bool(0.5) {
			if _, err := run((res.Acked[target]+N)/2, -1); err != nil {
				return res, err
			}
			if err := ck.CheckpointNow(); err != nil {
				return res, err
			}
		}
	}
	if _, err := run(next, -1); err != nil {
		return res, fmt.Errorf("torture: readmitted partition %d rejected a commit: %w", target, err)
	}
	if cfg.Fault == faultDevice {
		return res, verifyPartitionDigests(cfg, e, tbl, plans, res.Acked, -1)
	}
	return rebootPartitions(cfg, rng, e, store, ck.Manifest(), plans, res)
}

// rebootPartitions is the process crash and what follows: the engine goes
// down, what the store's disk would hold is re-attached (with one partition's
// newest slice corrupted under faultCrashCorrupt) and recovered whole into a
// fresh engine, and every partition must hold exactly what it acknowledged.
func rebootPartitions(cfg PartitionConfig, rng *xrand.RNG, e *core.Engine, store *fault.MemStore, m wal.Manifest,
	plans [][]transfer, res PartitionResult) (PartitionResult, error) {
	if err := e.Close(); err != nil {
		return res, err
	}
	survivor := store.Survivor(fault.StoreChaos{Seed: cfg.Seed + 1})
	if cfg.Fault == faultCrashCorrupt {
		newest := m.Checkpoints[len(m.Checkpoints)-1]
		if newest.Slices != cfg.Partitions {
			return res, fmt.Errorf("torture: checkpoint generation not sliced: %+v (seed %d)", m.Checkpoints, cfg.Seed)
		}
		part := int(rng.Uint64n(uint64(cfg.Partitions)))
		if !survivor.FlipCheckpointByte(core.CheckpointSliceName(newest.Name, part), 16+int(rng.Uint64n(64))) {
			return res, fmt.Errorf("torture: no slice object to corrupt (seed %d)", cfg.Seed)
		}
	}
	att, err := core.AttachCheckpointLog(survivor)
	if err != nil {
		return res, err
	}
	e2, tbl2, err := buildPartitionEngine(cfg, att.Devices)
	if err != nil {
		return res, err
	}
	defer e2.Close()
	res.Reboot, err = e2.RecoverFromStore(survivor, att, func() error { return loadPartitions(cfg, e2, tbl2, -1) })
	if err != nil {
		return res, fmt.Errorf("torture: store recovery failed (seed %d): %w", cfg.Seed, err)
	}
	if cfg.Fault == faultCrashCorrupt && res.Reboot.CheckpointFallbacks == 0 {
		return res, fmt.Errorf("torture: corrupt slice loaded silently (seed %d)", cfg.Seed)
	}
	return res, verifyPartitionDigests(cfg, e2, tbl2, plans, res.Acked, -1)
}

// verifyPartitionDigests checks every partition except skip against its
// exact oracle: counter == acked commits, every account == the replay of
// exactly that plan prefix.
func verifyPartitionDigests(cfg PartitionConfig, e *core.Engine, tbl *core.Table, plans [][]transfer, acked []int, skip int) error {
	sch := tbl.Schema()
	tx := e.NewTx(0, cfg.Seed+0xd16e57)
	read := func(key uint64) (int64, error) {
		var v int64
		err := tx.Run(func(tx *core.Tx) error {
			r, err := tx.Read(tbl, key)
			if err != nil {
				return err
			}
			v = sch.GetInt64(r, 0)
			return nil
		})
		return v, err
	}
	for p := 0; p < cfg.Partitions; p++ {
		if p == skip {
			continue
		}
		got, err := read(counterPartBase + uint64(p))
		if err != nil {
			return fmt.Errorf("torture: partition %d counter read (seed %d): %w", p, cfg.Seed, err)
		}
		if got != int64(acked[p]) {
			return fmt.Errorf("%w: partition %d counter %d, acked %d (seed %d)",
				ErrPartitionDigest, p, got, acked[p], cfg.Seed)
		}
		expected := make(map[uint64]int64, cfg.AccountsPerPartition)
		for i := 0; i < acked[p]; i++ {
			tr := plans[p][i]
			expected[tr.from] -= tr.delta
			expected[tr.to] += tr.delta
		}
		for i := 0; i < cfg.AccountsPerPartition; i++ {
			key := uint64(i*cfg.Partitions + p)
			v, err := read(key)
			if err != nil {
				return fmt.Errorf("torture: partition %d account read (seed %d): %w", p, cfg.Seed, err)
			}
			if v != expected[key] {
				return fmt.Errorf("%w: partition %d account %d = %d, prefix replay gives %d (seed %d)",
					ErrPartitionDigest, p, key, v, expected[key], cfg.Seed)
			}
		}
	}
	return nil
}

// probePartition0Txns is each probe worker's transaction count on the
// degraded engine — small, because the probe runs inside every iteration.
const probePartition0Txns = 30
