package torture

import (
	"fmt"
	"sync"

	"next700/internal/core"
	"next700/internal/fault"
)

// This file is the checkpoint-chaos torture harness: the transfer workload
// runs against an engine whose WAL segments and checkpoint objects live in
// a fault.MemStore, checkpoint cycles fire mid-traffic, and the store
// crashes at a scripted lifecycle point — mid-checkpoint-write, between the
// checkpoint installing and the manifest sealing, between sealing and
// truncation, anywhere. The survivor store is then re-attached and bounded
// recovery (newest loadable checkpoint + log tail) must hand back a
// prefix-consistent engine. Runs chain across incarnations: recover, run
// more traffic, checkpoint, crash again — the repeated-crash shape that
// exercises epoch continuity, truncation retention, and sealed-segment
// replay ceilings across the whole manifest history.

// CkptConfig scripts one checkpoint-chaos torture run. The embedded Config
// supplies the workload (protocol, log mode, workers, plan sizes, seed);
// its crash-offset fields (NoCrash, WALStreams, TransientSyncEvery,
// SkipTailRecords, VerifyRecovered) are unused here — the chaos lives in
// the store script instead.
type CkptConfig struct {
	Config
	// Streams is the checkpoint log's stream count (default 2).
	Streams int
	// Keep is the checkpoint generations to retain (default 2).
	Keep int
	// CheckpointEvery makes each worker request a checkpoint cycle after
	// every N of its own commits (default TxnsPerWorker/4), so cycles race
	// live traffic and the scripted store ops land at varying cycle steps.
	CheckpointEvery int
	// Incarnations is the number of run-crash-recover rounds (default 1).
	Incarnations int
	// Chaos scripts the first incarnation's store. CrashAtOp must leave room
	// for bootstrap: InitCheckpointLog spends Streams+1 mutating ops before
	// any traffic runs.
	Chaos fault.StoreChaos
	// RepeatChaos re-arms the Chaos script (with a per-incarnation seed) in
	// every survivor store, so every incarnation crashes, not just the
	// first. CrashAtOp must then also clear AttachCheckpointLog and the
	// recovery seal (Streams+2 ops) at the start of each incarnation.
	RepeatChaos bool
	// FlipNewestCheckpoint corrupts one byte of the newest checkpoint
	// generation in each survivor before recovery: recovery must fall back
	// to the previous generation and replay the longer tail.
	FlipNewestCheckpoint bool
	// FlipAllCheckpoints corrupts every retained generation — the negative
	// control: once truncation has pruned early segments, no checkpoint
	// means the full history is gone and the harness must detect the
	// durability violation.
	FlipAllCheckpoints bool
}

func (c CkptConfig) normalized() CkptConfig {
	c.Config = c.Config.normalized()
	if c.Streams < 1 {
		c.Streams = 2
	}
	if c.Keep <= 0 {
		c.Keep = 2
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = c.TxnsPerWorker / 4
		if c.CheckpointEvery <= 0 {
			c.CheckpointEvery = 1
		}
	}
	if c.Incarnations <= 0 {
		c.Incarnations = 1
	}
	return c
}

// CkptIncarnation summarizes one run-crash-recover round.
type CkptIncarnation struct {
	// Acked is the commits acknowledged across all workers this round.
	Acked int
	// Stopped is the workers that quit on a terminal error (log death after
	// the store crash); each may hide one committed-but-unacked txn.
	Stopped int
	// StoreCrashed reports the scripted store crash fired this round.
	StoreCrashed bool
	// Cycles and CycleFailures are the checkpointer's counts for the round.
	Cycles, CycleFailures int
	// Recovery is what the post-crash bounded recovery did.
	Recovery core.RecoveryStats
	// Checkpoints, Segments, and SegmentBytes describe the survivor store
	// after recovery sealed it — the footprint the retention lanes bound.
	Checkpoints, Segments int
	SegmentBytes          int64
}

// CkptResult summarizes a checkpoint-chaos run.
type CkptResult struct {
	Seed         uint64
	Incarnations []CkptIncarnation
}

// ckptWorkload derives incarnation inc's workload config: same shape, a
// distinct seed, so each round executes a fresh deterministic plan.
func (c CkptConfig) ckptWorkload(inc int) Config {
	w := c.Config
	w.Seed = c.Seed ^ (uint64(inc) * 0xA24BAED4963EE407)
	return w
}

// RunCkpt executes one checkpoint-chaos torture run and verifies that every
// incarnation's recovery is prefix-consistent. A nil error means every
// invariant held in every incarnation.
func RunCkpt(cfg CkptConfig) (CkptResult, error) {
	cfg = cfg.normalized()
	res := CkptResult{Seed: cfg.Seed}

	store := fault.NewMemStore(cfg.Chaos)
	att, err := core.InitCheckpointLog(store, cfg.Streams, cfg.LogMode)
	if err != nil {
		return res, fmt.Errorf("torture: checkpoint log bootstrap (seed %d): %w", cfg.Seed, err)
	}
	e, tbl, err := buildEngine(cfg.ckptWorkload(0), att.Devices, false)
	if err != nil {
		return res, err
	}
	if _, err := e.RecoverFromStore(store, att, func() error { return loadInitial(cfg.Config, e, tbl) }); err != nil {
		e.Close()
		return res, fmt.Errorf("torture: initial load (seed %d): %w", cfg.Seed, err)
	}

	// Cross-incarnation expectations: the committed prefix baseline per
	// worker, and the exact account state those prefixes produce.
	baseline := make([]int64, cfg.Workers)
	expected := make(map[uint64]int64)
	var expHot int64

	for inc := 0; inc < cfg.Incarnations; inc++ {
		wcfg := cfg.ckptWorkload(inc)
		var ir CkptIncarnation

		ck, err := e.NewCheckpointer(store, cfg.Keep, att.Devices)
		if err != nil {
			e.Close()
			return res, err
		}

		acked := make([]int, cfg.Workers)
		stopped := make([]bool, cfg.Workers)
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				seed, plan := planWorker(wcfg, w)
				tx := e.NewTx(w, seed)
				for i, tr := range plan {
					if err := tx.RunProc(procTransfer, encodeParams(uint32(w), tr.from, tr.to, tr.delta, tr.hot)); err != nil {
						stopped[w] = true
						return
					}
					acked[w]++
					if (i+1)%cfg.CheckpointEvery == 0 {
						// Cycle failures (including the scripted store crash)
						// are recorded in the checkpointer's stats; the
						// worker keeps going until its own log dies.
						_ = ck.CheckpointNow()
					}
				}
			}(w)
		}
		wg.Wait()
		st := ck.Stats()
		ir.Cycles, ir.CycleFailures = st.Cycles, st.Failures
		ir.StoreCrashed = store.Crashed()
		for w := 0; w < cfg.Workers; w++ {
			ir.Acked += acked[w]
			if stopped[w] {
				ir.Stopped++
			}
		}
		e.Close() // a failed close just reports the already-observed log death

		// Reboot: the survivor store models the post-crash disk — installed
		// checkpoints whole, segment bytes to their synced watermark plus a
		// seeded cut of the unsynced tail.
		next := fault.StoreChaos{Seed: cfg.Seed + uint64(inc)*0x9E37 + 1}
		if cfg.RepeatChaos && inc+1 < cfg.Incarnations {
			next = cfg.Chaos
			next.Seed = cfg.Chaos.Seed + uint64(inc) + 1
		}
		store = store.Survivor(next)
		if cfg.FlipNewestCheckpoint || cfg.FlipAllCheckpoints {
			if err := flipCheckpoints(store, cfg.FlipAllCheckpoints); err != nil {
				return res, err
			}
		}

		att, err = core.AttachCheckpointLog(store)
		if err != nil {
			return res, fmt.Errorf("torture: re-attach (seed %d, incarnation %d): %w", cfg.Seed, inc, err)
		}
		e, tbl, err = buildEngine(wcfg, att.Devices, false)
		if err != nil {
			return res, err
		}
		e2, tbl2 := e, tbl
		rs, err := e.RecoverFromStore(store, att, func() error { return loadInitial(cfg.Config, e2, tbl2) })
		ir.Recovery = rs
		if err != nil {
			e.Close()
			res.Incarnations = append(res.Incarnations, ir)
			return res, fmt.Errorf("torture: recovery failed (seed %d, incarnation %d): %w", cfg.Seed, inc, err)
		}
		ir.Checkpoints = len(store.CheckpointNames())
		ir.Segments = len(store.SegmentNames())
		ir.SegmentBytes = store.TotalSegmentBytes()

		err = checkCkptState(wcfg, e, tbl, acked, stopped, baseline, expected, &expHot)
		res.Incarnations = append(res.Incarnations, ir)
		if err != nil {
			e.Close()
			return res, fmt.Errorf("%w (incarnation %d)", err, inc)
		}
	}
	e.Close()
	return res, nil
}

// flipCheckpoints corrupts one mid-object byte of the newest retained
// checkpoint generation (or of every generation, for the negative control).
func flipCheckpoints(store *fault.MemStore, all bool) error {
	m, _, err := store.LoadManifest()
	if err != nil {
		return err
	}
	if len(m.Checkpoints) == 0 {
		return fmt.Errorf("torture: no checkpoint generation to corrupt")
	}
	targets := m.Checkpoints[len(m.Checkpoints)-1:]
	if all {
		targets = m.Checkpoints
	}
	for _, ck := range targets {
		// These lanes run thread-affinity logs: one slice per generation.
		// Offset 52 is the same byte of the first row section that offset 40
		// was before the 12-byte slice header.
		if name := core.CheckpointSliceName(ck.Name, 0); !store.FlipCheckpointByte(name, 52) {
			return fmt.Errorf("torture: could not corrupt checkpoint %s", name)
		}
	}
	return nil
}

// checkCkptState verifies the recovered engine against the cross-incarnation
// invariants and folds this incarnation's committed prefixes into the
// running expectations. baseline, expected, and expHot are updated in place.
func checkCkptState(cfg Config, e *core.Engine, tbl *core.Table, acked []int, stopped []bool,
	baseline []int64, expected map[uint64]int64, expHot *int64) error {
	sch := tbl.Schema()
	tx := e.NewTx(0, 1)
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

	prefixes := make([]int64, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		total, err := read(counterBase + uint64(w))
		if err != nil {
			return err
		}
		prefix := total - baseline[w]
		if prefix < int64(acked[w]) {
			return fmt.Errorf("%w: worker %d recovered %d commits this round, acked %d (seed %d)",
				ErrDurability, w, prefix, acked[w], cfg.Seed)
		}
		limit := int64(acked[w])
		if stopped[w] {
			limit++ // the terminal error may hide one committed-but-unacked txn
		}
		if prefix > limit {
			return fmt.Errorf("%w: worker %d recovered %d commits this round, committed at most %d (seed %d)",
				ErrConsistency, w, prefix, limit, cfg.Seed)
		}
		prefixes[w] = prefix
		baseline[w] = total
	}

	// Fold the committed prefixes of this incarnation's deterministic plans
	// into the cumulative expected state, then demand an exact match: the
	// recovered state must be precisely the result of replaying every
	// incarnation's committed prefix, nothing more, nothing reordered.
	for w := 0; w < cfg.Workers; w++ {
		_, plan := planWorker(cfg, w)
		for i := int64(0); i < prefixes[w]; i++ {
			tr := plan[i]
			expected[tr.from] -= tr.delta
			expected[tr.to] += tr.delta
			if tr.hot {
				*expHot++
			}
		}
	}
	for w := 0; w < cfg.Workers; w++ {
		var sum int64
		for i := 0; i < cfg.AccountsPerWorker; i++ {
			key := uint64(w*cfg.AccountsPerWorker + i)
			v, err := read(key)
			if err != nil {
				return err
			}
			sum += v
			if v != expected[key] {
				return fmt.Errorf("%w: account %d recovered %d, prefix replay gives %d (seed %d)",
					ErrState, key, v, expected[key], cfg.Seed)
			}
		}
		if sum != 0 {
			return fmt.Errorf("%w: worker %d account sum %d != 0 (seed %d)",
				ErrAtomicity, w, sum, cfg.Seed)
		}
	}
	if v, err := read(hotKey); err != nil {
		return err
	} else if v != *expHot {
		return fmt.Errorf("%w: hot row recovered %d, prefix replay gives %d (seed %d)",
			ErrState, v, *expHot, cfg.Seed)
	}
	return nil
}

// interface conformance pin: the chaos store must keep satisfying the
// engine's store contract structurally (fault cannot import core).
var _ core.CheckpointStore = (*fault.MemStore)(nil)
