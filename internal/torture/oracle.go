package torture

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"next700/internal/core"
	"next700/internal/fault"
	"next700/internal/verify"
	"next700/internal/wal"
	"next700/internal/xrand"
)

// reboot is the crash and what follows: the engine goes down, the store is
// replaced by what its disk would hold — installed objects whole, each
// segment to its synced watermark plus a seeded cut of its unsynced tail —
// the arm's tampering is applied, and a fresh engine recovers from it.
func (c *cell) reboot(r int) (core.RecoveryStats, error) {
	c.shut()
	c.store = c.store.Survivor(fault.StoreChaos{})
	var err error
	switch c.Fault {
	case FaultCorruptSlice, FaultCorruptAll:
		err = corrupt(c.store, c.rng, c.Fault == FaultCorruptAll)
	case FaultDropRecord:
		err = dropRecord(c.store)
	}
	if err != nil {
		return core.RecoveryStats{}, err
	}
	att, err := core.AttachCheckpointLog(c.store)
	if err != nil {
		return core.RecoveryStats{}, fmt.Errorf("torture: re-attach: %w", err)
	}
	return c.open(att, r+1 < c.Rounds)
}

// shut closes the executor and the engine; a failed close only reports the
// log death the round already observed.
func (c *cell) shut() {
	if c.x != nil {
		c.x.Close()
		c.x = nil
	}
	if c.e != nil {
		c.e.Close()
		c.e = nil
	}
}

// corrupt flips a byte of one slice of the newest checkpoint generation, or
// of every slice of every generation.
func corrupt(store *fault.MemStore, rng *xrand.RNG, all bool) error {
	m, _, err := store.LoadManifest()
	if err != nil {
		return err
	}
	gens := m.Checkpoints
	if !all && len(gens) > 0 {
		gens = gens[len(gens)-1:]
	}
	for _, g := range gens {
		for p := 0; p < g.Slices; p++ {
			if !all {
				p = int(rng.Uint64n(uint64(g.Slices)))
			}
			if name := core.CheckpointSliceName(g.Name, p); !store.FlipCheckpointByte(name, 16+int(rng.Uint64n(64))) {
				return fmt.Errorf("torture: no checkpoint slice %s to corrupt", name)
			}
			if !all {
				break
			}
		}
	}
	return nil
}

// dropRecord drops the last commit record of stream 0, and every frame after
// it, from the newest segment holding one: acknowledged history is gone.
func dropRecord(store *fault.MemStore) error {
	m, _, err := store.LoadManifest()
	if err != nil {
		return err
	}
	for i := len(m.Segments) - 1; i >= 0; i-- {
		if m.Segments[i].Stream != 0 {
			continue
		}
		rc, err := store.OpenSegment(m.Segments[i].Name)
		if err != nil {
			return err
		}
		b, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return err
		}
		last := -1
		for off := 0; off+8 <= len(b); {
			size := int(binary.LittleEndian.Uint32(b[off:]))
			if size <= 0 || off+8+size > len(b) {
				break
			}
			if !wal.IsMarkerPayload(b[off+8 : off+8+size]) {
				last = off
			}
			off += 8 + size
		}
		if last < 0 {
			continue
		}
		// Creating a segment under an existing name replaces its bytes.
		dev, err := store.CreateSegment(m.Segments[i].Name)
		if err == nil {
			_, err = dev.Write(b[:last])
		}
		if err == nil {
			err = dev.Sync()
		}
		return err
	}
	return errors.New("torture: no commit record to drop")
}

// matchDigest finds the reference batch k whose digest the recovered engine
// has and holds it to acked ≤ k ≤ acked + 1: a failed batch may have become
// durable without being acknowledged. Under a Checkpointer every cycle uses
// up a log epoch, so the recovered frontier epoch is no batch index — the
// digest is what names the batch.
func (c *cell) matchDigest(refs [][32]byte) (int, error) {
	got := c.e.StateDigest()
	k, limit := slices.Index(refs, got), c.batches
	if c.inflight[0] > 0 {
		limit++ // the run ended on a failed batch
	}
	switch {
	case k < 0:
		return k, fmt.Errorf("%w: digest %x", ErrDeterminism, got)
	case k < c.batches:
		return k, fmt.Errorf("%w: recovered batch %d, acked %d", ErrDurability, k, c.batches)
	case k > limit:
		return k, fmt.Errorf("%w: recovered batch %d, committed at most %d", ErrConsistency, k, limit)
	}
	return k, nil
}

// check holds the engine to the oracle against this round's acknowledgements:
// every worker but skip (the dark partition) recovered between its acked and
// acked + in-flight commits, its accounts sum to zero, and every account and
// the hot row are exactly the replay of the recovered prefixes of every round
// so far. With fold set, this round's prefixes join that history.
func (c *cell) check(skip int, fold bool) error {
	sch := c.tbl.Schema()
	tx := c.e.NewTx(0, c.Seed+0xd16e57)
	read := func(key uint64) (int64, error) {
		var v int64
		err := tx.Run(func(tx *core.Tx) error {
			r, err := tx.Read(c.tbl, key)
			if err == nil {
				v = sch.GetInt64(r, 0)
			}
			return err
		})
		if err != nil {
			err = fmt.Errorf("torture: read %d: %w", key, err)
		}
		return v, err
	}
	prefix := make([]int, c.workers)
	expected := make(map[uint64]int64)
	var hot int64
	for w := range prefix {
		if w != skip {
			total, err := read(counterBase + uint64(w))
			if err != nil {
				return err
			}
			n := int(total) - len(c.done[w])
			if n < c.acked[w] {
				return fmt.Errorf("%w: worker %d recovered %d commits, acked %d", ErrDurability, w, n, c.acked[w])
			}
			if limit := c.acked[w] + c.inflight[w]; n > limit {
				return fmt.Errorf("%w: worker %d recovered %d commits, committed at most %d", ErrConsistency, w, n, limit)
			}
			prefix[w] = n
		}
		for _, trs := range [][]transfer{c.done[w], c.plans[w][:prefix[w]]} {
			for _, tr := range trs {
				expected[tr.from] -= tr.delta
				expected[tr.to] += tr.delta
				if tr.hot {
					hot++
				}
			}
		}
	}
	for w := range prefix {
		if w == skip {
			continue
		}
		var sum int64
		got := make([]int64, accountsPerWorker)
		for i := range got {
			v, err := read(uint64(i*c.workers + w))
			if err != nil {
				return err
			}
			got[i], sum = v, sum+v
		}
		if sum != 0 {
			return fmt.Errorf("%w: worker %d account sum %d", ErrAtomicity, w, sum)
		}
		for i, v := range got {
			if key := uint64(i*c.workers + w); v != expected[key] {
				return fmt.Errorf("%w: account %d recovered %d, prefix replay gives %d", ErrState, key, v, expected[key])
			}
		}
	}
	if skip < 0 {
		if v, err := read(hotKey); err != nil {
			return err
		} else if v != hot {
			return fmt.Errorf("%w: hot row recovered %d, prefix replay gives %d", ErrState, v, hot)
		}
	}
	if fold {
		for w := range prefix {
			c.done[w] = append(c.done[w], c.plans[w][:prefix[w]]...)
		}
	}
	return nil
}

// probeConfig is the stamped probe's table: small, because it runs in every
// value-logged interactive cell.
var probeConfig = verify.ProbeConfig{Keys: 8, MinOps: 2, MaxOps: 4}

// probe runs the stamped Adya probe — workers × probeTxns stamped
// transactions on a table of its own — on e and checks the recorded
// history. It returns the committed probe transaction count.
func probe(e *core.Engine, workers int, seed uint64) (int, error) {
	p := verify.NewProbe(probeConfig)
	hist := verify.NewHistory(workers)
	p.AttachHistory(hist)
	if err := p.Setup(e); err != nil {
		return 0, err
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := e.NewTx(w, seed^uint64(w)*2654435761+1)
			for i := 0; i < probeTxns && errs[w] == nil; i++ {
				errs[w] = p.RunOne(tx)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, fmt.Errorf("torture: probe: %w", err)
	}
	final, err := p.FinalVersions(e)
	if err != nil {
		return 0, err
	}
	rep := hist.Check(final)
	if !rep.Ok() {
		return rep.Txns, fmt.Errorf("%w: %s", ErrIsolation, rep.Anomalies[0])
	}
	return rep.Txns, nil
}
