// Partition-fault torture: the quarantine/degradation/recovery arc under a
// seeded device failure, checked against exact oracles.
//
// The workload is partition-local by construction — partition p owns
// accounts {i*P + p} and counter counterPartBase + p, and every transfer
// stays inside its partition — so each partition's recovered state is a
// pure function of its own committed prefix, which makes the digest oracle
// exact: after quarantining partition t and recovering it live from its own
// stream tail, the recovered counter MUST equal the acknowledged commit
// count (an acknowledged commit's epoch is covered by the stream's claim; an
// unacknowledged one is beyond the frontier and must be truncated — there is
// no slack in either direction), and every account must equal the replay of
// exactly that plan prefix.
//
// While partition t is dark, the other partitions must not degrade at all:
// their workers finish every transaction, every loss on t classifies as
// core.ErrPartitionUnavailable (anything else is a verdict failure), and a
// stamped Adya isolation probe pinned to partition 0 runs on the degraded
// engine and must report zero anomalies.
package torture

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"next700/internal/core"
	"next700/internal/fault"
	"next700/internal/storage"
	"next700/internal/verify"
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
	// NoFault disables the device failure: a control iteration that must
	// complete with zero losses anywhere.
	NoFault bool
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
	return c
}

// PartitionResult summarizes one iteration.
type PartitionResult struct {
	Seed   uint64
	Target int  // the partition whose device fails (-1 when NoFault)
	Fired  bool // the planned crash point was reached during the run
	// Acked is the per-partition acknowledged commit count.
	Acked []int
	// Lost counts the failed partition's attempts that terminated with
	// ErrPartitionUnavailable (the degradation shed).
	Lost int
	// ProbeTxns is the committed stamped-probe transaction count on the
	// degraded engine.
	ProbeTxns int
	// Recovery is the live single-partition recovery's stats.
	Recovery core.RecoveryStats
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

// loadPartition zero-loads partition p's accounts and counter. It is both
// the initial load (called for every p) and RecoverPartition's base-state
// callback (called for the cleared partition alone).
func loadPartition(cfg PartitionConfig, e *core.Engine, tbl *core.Table, p int) error {
	sch := tbl.Schema()
	row := sch.NewRow()
	load := func(key uint64) error {
		sch.SetInt64(row, 0, 0)
		return e.Load(tbl, key, row)
	}
	for i := 0; i < cfg.AccountsPerPartition; i++ {
		if err := load(uint64(i*cfg.Partitions + p)); err != nil {
			return err
		}
	}
	return load(counterPartBase + uint64(p))
}

// RunPartition executes one partition-fault iteration: fail exactly one
// partition's log device mid-run, verify graceful degradation on the live
// engine, then recover the partition in place and verify the digest oracle.
func RunPartition(cfg PartitionConfig) (PartitionResult, error) {
	cfg = cfg.normalized()
	P := cfg.Partitions
	res := PartitionResult{Seed: cfg.Seed, Target: -1, Acked: make([]int, P)}
	rng := xrand.New(cfg.Seed)

	target := -1
	if !cfg.NoFault {
		target = 1 + int(rng.Uint64n(uint64(P-1)))
	}
	res.Target = target

	// Devices: the target's is wrapped in a chaos device with a crash
	// offset drawn to land mid-run (value records here carry 2 entries,
	// ~110 framed bytes each).
	perStream := cfg.TxnsPerPartition * 110
	mems := make([]*fault.MemDevice, P)
	devs := make([]wal.Device, P)
	for i := range mems {
		mems[i] = &fault.MemDevice{}
		devs[i] = mems[i]
	}
	if target >= 0 {
		devs[target] = fault.NewDevice(mems[target], fault.Plan{
			Seed:        cfg.Seed,
			CrashAtByte: 1 + int64(rng.Uint64n(uint64(perStream)*3/4)),
		})
	}

	e, tbl, err := buildPartitionEngine(cfg, devs)
	if err != nil {
		return res, err
	}
	defer e.Close()
	for p := 0; p < P; p++ {
		if err := loadPartition(cfg, e, tbl, p); err != nil {
			return res, err
		}
	}

	plans := partitionPlans(cfg)
	sch := tbl.Schema()
	lost := make([]int, P)
	hard := make([]error, P)
	var wg sync.WaitGroup
	for p := 0; p < P; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			tx := e.NewTx(p, cfg.Seed^uint64(p)+1)
			for _, tr := range plans[p] {
				err := tx.Run(func(tx *core.Tx) error {
					bump := func(key uint64, d int64) error {
						r, err := tx.Update(tbl, key)
						if err != nil {
							return err
						}
						sch.SetInt64(r, 0, sch.GetInt64(r, 0)+d)
						return nil
					}
					if err := bump(counterPartBase+uint64(p), 1); err != nil {
						return err
					}
					if err := bump(tr.from, -tr.delta); err != nil {
						return err
					}
					return bump(tr.to, tr.delta)
				})
				if err == nil {
					res.Acked[p]++
					continue
				}
				// Losses are legitimate only on the failed partition and
				// only with the partition class; the worker keeps
				// attempting — degradation must be shed, not wedged.
				if p != target || !errors.Is(err, core.ErrPartitionUnavailable) {
					hard[p] = err
					return
				}
				lost[p]++
			}
		}(p)
	}
	wg.Wait()

	for p, err := range hard {
		if err != nil {
			if p == target {
				return res, fmt.Errorf("%w: partition %d: %v (seed %d)", ErrPartitionClass, p, err, cfg.Seed)
			}
			return res, fmt.Errorf("%w: partition %d: %v (seed %d)", ErrPartitionBleed, p, err, cfg.Seed)
		}
	}
	res.Lost = lost2sum(lost)
	res.Fired = res.Lost > 0
	for p := 0; p < P; p++ {
		if p != target && res.Acked[p] != cfg.TxnsPerPartition {
			return res, fmt.Errorf("%w: partition %d acked %d/%d (seed %d)",
				ErrPartitionBleed, p, res.Acked[p], cfg.TxnsPerPartition, cfg.Seed)
		}
	}

	if !res.Fired {
		// The crash offset overshot the run (or NoFault): a clean control
		// iteration. Verify full digests and stop.
		if target >= 0 && res.Acked[target] != cfg.TxnsPerPartition {
			return res, fmt.Errorf("%w: partition %d acked %d/%d with no observed fault (seed %d)",
				ErrPartitionBleed, target, res.Acked[target], cfg.TxnsPerPartition, cfg.Seed)
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

	// Stamped isolation probe on the degraded engine, pinned to partition
	// 0: quarantine must not cost the survivors their isolation.
	n, err := probePartition0(cfg, e)
	res.ProbeTxns = n
	if err != nil {
		return res, err
	}

	// Live recovery: the failed partition's synced prefix is guaranteed;
	// its unsynced written tail survives up to a seeded cut (the claim cap
	// truncates whatever un-certified bytes survive).
	data := mems[target].Bytes()
	cut := mems[target].SyncedLen()
	if len(data) > cut {
		cut += int(rng.Uint64n(uint64(len(data)-cut) + 1))
	}
	rs, err := e.RecoverPartition(target,
		func() error { return loadPartition(cfg, e, tbl, target) },
		nil, bytes.NewReader(data[:cut]), &fault.MemDevice{})
	if err != nil {
		return res, fmt.Errorf("torture: partition recovery failed (seed %d): %w", cfg.Seed, err)
	}
	res.Recovery = rs

	// Digest oracle at the recovered frontier: an acknowledged commit's
	// epoch is covered by the stream claim, an unacknowledged one is beyond
	// the frontier — the recovered counter must equal the acked count
	// exactly, and the accounts must replay to that prefix.
	if err := verifyPartitionDigests(cfg, e, tbl, plans, res.Acked, -1); err != nil {
		return res, err
	}

	// The partition is back in service: it must accept new durable commits.
	tx := e.NewTx(0, cfg.Seed+0x5eed)
	if err := tx.Run(func(tx *core.Tx) error {
		r, err := tx.Update(tbl, counterPartBase+uint64(target))
		if err != nil {
			return err
		}
		sch.SetInt64(r, 0, sch.GetInt64(r, 0)+1)
		return nil
	}); err != nil {
		return res, fmt.Errorf("torture: readmitted partition %d rejected a commit (seed %d): %w",
			target, cfg.Seed, err)
	}
	return res, nil
}

func lost2sum(lost []int) int {
	n := 0
	for _, l := range lost {
		n += l
	}
	return n
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

// probePartition0 runs the stamped Adya isolation probe on the degraded
// engine. The probe table is pinned to partition 0 by the partitioner, so
// its transactions never touch the quarantined partition.
func probePartition0(cfg PartitionConfig, e *core.Engine) (int, error) {
	probe := verify.NewProbe(verify.ProbeConfig{Keys: 8, MinOps: 2, MaxOps: 4})
	hist := verify.NewHistory(cfg.Partitions)
	probe.AttachHistory(hist)
	if err := probe.Setup(e); err != nil {
		return 0, err
	}
	errs := make([]error, cfg.Partitions)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Partitions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx := e.NewTx(w, cfg.Seed^uint64(w)*0x9e3779b9+7)
			for i := 0; i < probePartition0Txns; i++ {
				if err := probe.RunOne(tx); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("torture: degraded-engine probe worker %d (seed %d): %w", w, cfg.Seed, err)
		}
	}
	final, err := probe.FinalVersions(e)
	if err != nil {
		return 0, err
	}
	rep := hist.Check(final)
	if !rep.Ok() {
		return rep.Txns, fmt.Errorf("%w: %s (seed %d)", ErrIsolation, rep.Anomalies[0], cfg.Seed)
	}
	return rep.Txns, nil
}

// PartitionStoreConfig scripts one store-backed partition-recovery
// iteration: sliced checkpoints, a full-process crash, partitioned store
// recovery — optionally with one slice corrupted as a negative control.
type PartitionStoreConfig struct {
	// Protocol, Partitions, AccountsPerPartition, TxnsPerPartition, Seed:
	// as PartitionConfig.
	Protocol             string
	Partitions           int
	AccountsPerPartition int
	TxnsPerPartition     int
	Seed                 uint64
	// CorruptSlice flips one byte in one partition's newest checkpoint
	// slice before recovery. The corrupt slice must NEVER load silently:
	// recovery must report a checkpoint fallback and still land on the
	// exact committed state.
	CorruptSlice bool
}

// PartitionStoreResult summarizes one store-lane iteration.
type PartitionStoreResult struct {
	Seed     uint64
	Slices   int // slice objects the checkpoint generation produced
	Recovery core.RecoveryStats
}

// RunPartitionStore executes one store-lane iteration: run half the
// workload, take a partition-sliced checkpoint, run the rest, crash, and
// recover a fresh engine from the store — each partition from its own
// newest valid slice plus its own stream tail.
func RunPartitionStore(cfg PartitionStoreConfig) (PartitionStoreResult, error) {
	pcfg := PartitionConfig{
		Protocol:             cfg.Protocol,
		Partitions:           cfg.Partitions,
		AccountsPerPartition: cfg.AccountsPerPartition,
		TxnsPerPartition:     cfg.TxnsPerPartition,
		Seed:                 cfg.Seed,
	}.normalized()
	P := pcfg.Partitions
	res := PartitionStoreResult{Seed: cfg.Seed}
	rng := xrand.New(cfg.Seed ^ 0x510e5)

	store := fault.NewMemStore(fault.StoreChaos{Seed: cfg.Seed})
	att, err := core.InitCheckpointLog(store, P, wal.ModeValue)
	if err != nil {
		return res, err
	}
	e, tbl, err := buildPartitionEngine(pcfg, att.Devices)
	if err != nil {
		return res, err
	}
	defer e.Close()
	for p := 0; p < P; p++ {
		if err := loadPartition(pcfg, e, tbl, p); err != nil {
			return res, err
		}
	}

	plans := partitionPlans(pcfg)
	sch := tbl.Schema()
	run := func(p, lo, hi int) error {
		tx := e.NewTx(p, cfg.Seed^uint64(p)+uint64(lo)+1)
		for _, tr := range plans[p][lo:hi] {
			err := tx.Run(func(tx *core.Tx) error {
				bump := func(key uint64, d int64) error {
					r, err := tx.Update(tbl, key)
					if err != nil {
						return err
					}
					sch.SetInt64(r, 0, sch.GetInt64(r, 0)+d)
					return nil
				}
				if err := bump(counterPartBase+uint64(p), 1); err != nil {
					return err
				}
				if err := bump(tr.from, -tr.delta); err != nil {
					return err
				}
				return bump(tr.to, tr.delta)
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	phase := func(lo, hi int) error {
		errs := make([]error, P)
		var wg sync.WaitGroup
		for p := 0; p < P; p++ {
			wg.Add(1)
			go func(p int) { defer wg.Done(); errs[p] = run(p, lo, hi) }(p)
		}
		wg.Wait()
		return errors.Join(errs...)
	}

	half := pcfg.TxnsPerPartition / 2
	if err := phase(0, half); err != nil {
		return res, err
	}
	ck, err := e.NewCheckpointer(store, 2, att.Devices)
	if err != nil {
		return res, err
	}
	if err := ck.CheckpointNow(); err != nil {
		return res, err
	}
	m := ck.Manifest()
	if len(m.Checkpoints) == 0 || m.Checkpoints[len(m.Checkpoints)-1].Slices != P {
		return res, fmt.Errorf("torture: checkpoint generation not sliced: %+v (seed %d)", m.Checkpoints, cfg.Seed)
	}
	res.Slices = P
	if err := phase(half, pcfg.TxnsPerPartition); err != nil {
		return res, err
	}
	if err := e.Close(); err != nil {
		return res, err
	}

	survivor := store.Survivor(fault.StoreChaos{Seed: cfg.Seed + 1})
	if cfg.CorruptSlice {
		ckName := m.Checkpoints[len(m.Checkpoints)-1].Name
		part := int(rng.Uint64n(uint64(P)))
		if !survivor.FlipCheckpointByte(core.CheckpointSliceName(ckName, part), 16+int(rng.Uint64n(64))) {
			return res, fmt.Errorf("torture: no slice object to corrupt (seed %d)", cfg.Seed)
		}
	}

	att2, err := core.AttachCheckpointLog(survivor)
	if err != nil {
		return res, err
	}
	e2, tbl2, err := buildPartitionEngine(pcfg, att2.Devices)
	if err != nil {
		return res, err
	}
	defer e2.Close()
	rs, err := e2.RecoverFromStore(survivor, att2, func() error {
		for p := 0; p < P; p++ {
			if err := loadPartition(pcfg, e2, tbl2, p); err != nil {
				return err
			}
		}
		return nil
	})
	res.Recovery = rs
	if err != nil {
		return res, fmt.Errorf("torture: store recovery failed (seed %d): %w", cfg.Seed, err)
	}
	if cfg.CorruptSlice && rs.CheckpointFallbacks == 0 {
		return res, fmt.Errorf("torture: corrupt slice loaded silently (seed %d)", cfg.Seed)
	}

	// Clean close: everything was acknowledged, so the digest oracle is the
	// full plan for every partition.
	acked := make([]int, P)
	for p := range acked {
		acked[p] = pcfg.TxnsPerPartition
	}
	return res, verifyPartitionDigests(pcfg, e2, tbl2, plans, acked, -1)
}
