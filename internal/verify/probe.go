package verify

import (
	"fmt"
	"runtime"

	"next700/internal/core"
	"next700/internal/storage"
)

// Recordable is implemented by workloads that can record a stamped history
// for verification. The harness's opt-in Verify mode attaches a History
// before setup and checks it (against the workload's final versions) after
// the run.
type Recordable interface {
	// AttachHistory installs the history the workload must record into.
	AttachHistory(h *History)
	// FinalVersions reads the final version stamp of every verified key
	// from the quiesced engine.
	FinalVersions(e *core.Engine) (map[uint64]int64, error)
}

// maxProbeOps bounds a probe transaction's footprint so key planning fits
// in a stack array on the driver hot path.
const maxProbeOps = 16

// ProbeConfig parameterizes the stamped probe workload.
type ProbeConfig struct {
	// Keys is the table size; small values make the run contended
	// (default 16).
	Keys uint64
	// MinOps and MaxOps bound the distinct keys touched per transaction
	// (defaults 2 and 4; MaxOps is capped at 16).
	MinOps, MaxOps int
	// WriteRatio is the per-op probability of an update (default 0.5).
	WriteRatio float64
	// Index selects the primary index family (hash default, btree for the
	// ordered variant).
	Index core.IndexKind
	// CrossFraction is the probability a deterministic-probe transaction
	// appends a delivery-dependency pair (OpReadSend -> OpRecvUpdate), so
	// the conformance matrix covers cross-partition stitching too. Used by
	// DetProbe only; the interactive Probe ignores it.
	CrossFraction float64
}

func (c ProbeConfig) normalized() ProbeConfig {
	if c.Keys == 0 {
		c.Keys = 16
	}
	if c.MinOps <= 0 {
		c.MinOps = 2
	}
	if c.MaxOps < c.MinOps {
		c.MaxOps = c.MinOps + 2
	}
	if c.MaxOps > maxProbeOps {
		c.MaxOps = maxProbeOps
	}
	if c.WriteRatio <= 0 {
		c.WriteRatio = 0.5
	}
	return c
}

// Probe is the stamped verification workload: each transaction touches a
// few distinct keys of a two-column (stamp, prev) table, writing fresh
// stamps and recording every observation into a History. It implements the
// workload interface the harness drives (Name/Setup/RunOne) plus
// Recordable, so any harness run — including next700-bench -verify — can
// turn a measurement into a checked history.
type Probe struct {
	cfg  ProbeConfig
	hist *History
	sch  *storage.Schema
	tbl  *core.Table
}

// NewProbe builds a probe with defaults applied.
func NewProbe(cfg ProbeConfig) *Probe {
	return &Probe{cfg: cfg.normalized()}
}

// Name identifies the workload in reports.
func (p *Probe) Name() string { return "verify" }

// Config returns the normalized configuration.
func (p *Probe) Config() ProbeConfig { return p.cfg }

// History returns the attached history (nil until attached or Setup).
func (p *Probe) History() *History { return p.hist }

// AttachHistory implements Recordable.
func (p *Probe) AttachHistory(h *History) { p.hist = h }

// Setup creates and loads the stamped table. If no history was attached, a
// fresh one sized to the engine's worker count is created.
func (p *Probe) Setup(e *core.Engine) error {
	if p.hist == nil {
		p.hist = NewHistory(e.Config().Threads)
	}
	p.sch = storage.MustSchema("verify_probe", storage.I64("stamp"), storage.I64("prev"))
	tbl, err := e.CreateTable(p.sch, p.cfg.Index)
	if err != nil {
		return err
	}
	p.tbl = tbl
	row := p.sch.NewRow()
	for k := uint64(0); k < p.cfg.Keys; k++ {
		p.sch.SetInt64(row, 0, 0) // stamp 0: the loader's version
		p.sch.SetInt64(row, 1, -1)
		if err := e.Load(tbl, k, row); err != nil {
			return err
		}
	}
	return nil
}

// RunOne executes one stamped transaction, recording committed reads and
// writes (and aborted attempts) into the worker's recorder. The key plan is
// drawn before the body so retried attempts replay the same plan.
func (p *Probe) RunOne(tx *core.Tx) error {
	rec := p.hist.Recorder(tx.ThreadID())
	rng := tx.RNG()
	n := p.cfg.MinOps
	if spread := p.cfg.MaxOps - p.cfg.MinOps; spread > 0 {
		n += rng.Intn(spread + 1)
	}
	var keys [maxProbeOps]uint64
	var writeMask uint32
	for i := 0; i < n; i++ {
		for {
			k := rng.Uint64n(p.cfg.Keys)
			dup := false
			for j := 0; j < i; j++ {
				if keys[j] == k {
					dup = true
					break
				}
			}
			if !dup {
				keys[i] = k
				break
			}
		}
		if rng.Bool(p.cfg.WriteRatio) {
			writeMask |= 1 << i
		}
	}
	err := tx.Run(func(tx *core.Tx) error {
		rec.Begin()
		for i := 0; i < n; i++ {
			// Yield per op to force dense transaction interleavings:
			// that is the point of a verification run.
			runtime.Gosched()
			k := keys[i]
			if writeMask&(1<<i) != 0 {
				r, err := tx.Update(p.tbl, k)
				if err != nil {
					return err
				}
				prev := p.sch.GetInt64(r, 0)
				stamp := rec.Write(k, prev)
				p.sch.SetInt64(r, 0, stamp)
				p.sch.SetInt64(r, 1, prev)
			} else {
				r, err := tx.Read(p.tbl, k)
				if err != nil {
					return err
				}
				rec.Read(k, p.sch.GetInt64(r, 0))
			}
		}
		return nil
	})
	if err != nil {
		rec.Abort()
		return err
	}
	rec.Commit()
	return nil
}

// FinalVersions implements Recordable: it reads every key's final stamp
// from the quiesced engine so Check can cross-verify the chain heads.
func (p *Probe) FinalVersions(e *core.Engine) (map[uint64]int64, error) {
	if p.tbl == nil {
		return nil, fmt.Errorf("verify: probe not set up")
	}
	final := make(map[uint64]int64, p.cfg.Keys)
	tx := e.NewTx(0, 1)
	err := tx.Run(func(tx *core.Tx) error {
		for k := uint64(0); k < p.cfg.Keys; k++ {
			r, err := tx.Read(p.tbl, k)
			if err != nil {
				return err
			}
			final[k] = p.sch.GetInt64(r, 0)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return final, nil
}
