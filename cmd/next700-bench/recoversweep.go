package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"next700/internal/core"
	"next700/internal/harness"
	"next700/internal/wal"
	"next700/internal/workload"
)

// The recovery sweep answers the recovery-time-objective question the way
// the WAL sweep answers the bandwidth one: build the same transaction
// history four times — once with no checkpoints (recovery = full-log
// replay) and three times with checkpoints every N, 4N, and 16N commits —
// then crash-attach each store and measure how long RecoverFromStore takes
// to reproduce the state. Bounded recovery means the checkpointed times
// track the log tail left past the last checkpoint, not the total history.

// recoverSpeedupTarget is the acceptance bar: the finest checkpoint
// interval must recover at least this many times faster than full replay.
const recoverSpeedupTarget = 5.0

// recoverSweepOpts is what the recovery sweep takes beyond the common
// parameters (of which it uses Threads and Seed).
type recoverSweepOpts struct {
	Txns    int // total committed transactions of history per point
	Every   int // finest checkpoint interval in commits (points: 0, 16N, 4N, N)
	Keep    int
	Streams int
	Dir     string // checkpoint store scratch dir ("" = temp, removed after)
}

func recoverSweep(c common, o recoverSweepOpts) sweep {
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if o.Txns <= 0 {
		o.Txns = 125_000
	}
	if o.Every <= 0 {
		o.Every = 2000
	}
	if o.Keep <= 0 {
		o.Keep = 2
	}
	if o.Streams < 2 {
		o.Streams = 2
	}
	// ckpt_every_txns = 0 is the no-checkpoint baseline whose recovery
	// replays the full log.
	intervals := []int{0, o.Every * 16, o.Every * 4, o.Every}
	return sweep{
		name: "recovery",
		title: fmt.Sprintf("recovery sweep, SILO + value log, %d txns × %d threads, checkpoint intervals %v",
			o.Txns, c.Threads, intervals),
		params: map[string]interface{}{
			"workload": "ycsb", "protocol": "SILO", "threads": c.Threads, "txns": o.Txns,
			"streams": o.Streams, "keep": o.Keep, "target_speedup": recoverSpeedupTarget,
		},
		axes: []string{"ckpt_every_txns"},
		cols: []string{"ckpt_cycles", "tail_records", "segment_bytes", "recovery_ms", "speedup_vs_full_replay"},
		run: func(s *sweepRun) error {
			base := o.Dir
			if base == "" {
				tmp, err := os.MkdirTemp("", "next700-recover-sweep-")
				if err != nil {
					return err
				}
				defer os.RemoveAll(tmp)
				base = tmp
			}
			var full, speedup float64
			for _, every := range intervals {
				m, digest1, digest2, err := recoverPoint(c, o, filepath.Join(base, fmt.Sprintf("every-%d", every)), every)
				if err != nil {
					return fmt.Errorf("every=%d: %w", every, err)
				}
				if every == 0 {
					full = m["recovery_ms"].Value
				}
				if took := m["recovery_ms"].Value; took > 0 {
					speedup = full / took
				}
				m["speedup_vs_full_replay"] = ratio(speedup)
				s.row(map[string]interface{}{"ckpt_every_txns": every}, m)
				// A second, independent recovery of the same store must
				// reproduce the same state (StateDigest, folded to 32 bits).
				s.check(fmt.Sprintf("redundant_recovery_digest_match[every=%d]", every), digest1 == digest2,
					"digests %08x and %08x", digest1, digest2)
			}
			s.target("speedup_target", speedup >= recoverSpeedupTarget,
				"finest interval recovered %.1fx faster than full replay, target %.1fx", speedup, recoverSpeedupTarget)
			return nil
		},
	}
}

// recoverPoint builds one transaction history with the given checkpoint
// interval, crash-attaches the store, and measures store-based recovery —
// twice: the first is the timed one, and the sealed manifest it leaves must
// make the second reproduce the exact same state (the truncation decisions
// made once stay made).
func recoverPoint(c common, o recoverSweepOpts, dir string, every int) (m map[string]metric, digest1, digest2 uint32, err error) {
	store, err := core.NewDirStore(dir)
	if err != nil {
		return nil, 0, 0, err
	}
	commits, cycles, err := recoverBuildHistory(c, o, store, every)
	if err != nil {
		return nil, 0, 0, err
	}
	// store_bytes is everything on disk at recovery time; segment_bytes is
	// the log-tail portion — the number that truncation keeps bounded.
	storeBytes, segmentBytes, err := storeFootprint(dir)
	if err != nil {
		return nil, 0, 0, err
	}

	digest1, rs, dur, err := recoverOnce(c, o, store)
	if err != nil {
		return nil, 0, 0, err
	}
	if digest2, _, _, err = recoverOnce(c, o, store); err != nil {
		return nil, 0, 0, err
	}
	return map[string]metric{
		"commits":       count(commits),
		"ckpt_cycles":   count(uint64(cycles)),
		"store_bytes":   size(storeBytes),
		"segment_bytes": size(segmentBytes),
		// Recovery provenance: which generation loaded and how much log was
		// actually replayed past it.
		"checkpoint_loaded": flag01(rs.CheckpointLoaded),
		"checkpoint_gen":    count(rs.CheckpointGen),
		"tail_records":      count(uint64(rs.Records)),
		"skipped_old_epoch": count(uint64(rs.SkippedOldEpoch)),
		"appliers":          count(uint64(rs.Appliers)),
		"recovery_ms":       ms(dur),
	}, digest1, digest2, nil
}

// recoverSweepWorkload is the sweep's fixed workload shape: update-heavy so
// the log grows with every commit, and small enough that checkpoint cycles
// stay cheap relative to the run.
func recoverSweepWorkload(threads int) *workload.YCSB {
	return workload.NewYCSB(workload.YCSBConfig{
		Records: 32768, OpsPerTxn: 8, ReadRatio: 0.5, MaxThreads: threads,
	})
}

// recoverSweepConfig is the engine both sides of the sweep open: the one
// that builds a history into the store's log and the one that recovers it.
func recoverSweepConfig(c common, o recoverSweepOpts, devs []wal.Device) core.Config {
	return core.Config{
		Protocol: "SILO", Threads: c.Threads,
		LogMode: wal.ModeValue, WALStreams: o.Streams, LogDevices: devs,
	}
}

// checkpointing is the sweep's workload with a checkpoint cycle into store
// every `every` commits (0 = never). The worker whose commit crosses the
// interval runs the cycle inline; the others keep committing — the capture
// is online.
type checkpointing struct {
	*workload.YCSB
	store       *core.DirStore
	devs        []wal.Device
	keep, every int
	ck          *core.Checkpointer
	committed   atomic.Uint64
}

func (w *checkpointing) Setup(e *core.Engine) error {
	if err := w.YCSB.Setup(e); err != nil || w.every == 0 {
		return err
	}
	var err error
	w.ck, err = e.NewCheckpointer(w.store, w.keep, w.devs)
	return err
}

func (w *checkpointing) RunOne(tx *core.Tx) error {
	if err := w.YCSB.RunOne(tx); err != nil {
		return err
	}
	if n := w.committed.Add(1); w.every > 0 && n%uint64(w.every) == 0 {
		return w.ck.CheckpointNow()
	}
	return nil
}

// recoverBuildHistory runs o.Txns committed transactions against a fresh
// engine logging into the store, checkpointing every `every` commits, and
// leaves the engine cleanly closed.
func recoverBuildHistory(c common, o recoverSweepOpts, store *core.DirStore, every int) (commits uint64, cycles int, err error) {
	att, err := core.InitCheckpointLog(store, o.Streams, wal.ModeValue)
	if err != nil {
		return 0, 0, err
	}
	wl := &checkpointing{YCSB: recoverSweepWorkload(c.Threads), store: store, devs: att.Devices, keep: o.Keep, every: every}
	res, err := harness.Run(recoverSweepConfig(c, o, att.Devices), wl,
		harness.RunOptions{Threads: c.Threads, TxnsPerWorker: o.Txns / c.Threads, Seed: c.Seed})
	if err != nil {
		return 0, 0, err
	}
	if wl.ck != nil {
		cycles = wl.ck.Stats().Cycles
	}
	return res.Commits, cycles, nil
}

// recoverOnce attaches the store to a fresh schema-only engine, runs
// store-based recovery, and returns a digest of the recovered state (the
// leading word of core.Engine.StateDigest).
func recoverOnce(c common, o recoverSweepOpts, store *core.DirStore) (digest uint32, rs core.RecoveryStats, dur time.Duration, err error) {
	att, err := core.AttachCheckpointLog(store)
	if err != nil {
		return 0, rs, 0, err
	}
	e, err := core.Open(recoverSweepConfig(c, o, att.Devices))
	if err != nil {
		return 0, rs, 0, err
	}
	defer e.Close()
	wl := recoverSweepWorkload(c.Threads)
	if err := wl.SetupSchema(e); err != nil {
		return 0, rs, 0, err
	}
	t0 := time.Now()
	rs, err = e.RecoverFromStore(store, att, wl.LoadData)
	dur = time.Since(t0)
	if err != nil {
		return 0, rs, dur, err
	}
	sum := e.StateDigest()
	return binary.BigEndian.Uint32(sum[:]), rs, dur, nil
}

// storeFootprint sums the DirStore's on-disk bytes: total and the log
// segments alone.
func storeFootprint(dir string) (total, segments int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, en := range entries {
		info, err := en.Info()
		if err != nil {
			return 0, 0, err
		}
		total += info.Size()
		if strings.HasPrefix(en.Name(), "seg-") {
			segments += info.Size()
		}
	}
	return total, segments, nil
}
