package torture

import (
	"errors"
	"testing"

	"next700/internal/core"
	"next700/internal/fault"
	"next700/internal/wal"
)

// ckptBase is the shared workload shape for the checkpoint-chaos lanes:
// small enough to sweep, large enough for several checkpoint cycles per
// incarnation.
func ckptBase(protocol string, mode wal.Mode, seed uint64) CkptConfig {
	return CkptConfig{
		Config: Config{
			Protocol:          protocol,
			LogMode:           mode,
			Workers:           3,
			AccountsPerWorker: 8,
			TxnsPerWorker:     48,
			Seed:              seed,
		},
		Streams:         2,
		Keep:            2,
		CheckpointEvery: 6,
	}
}

// TestCkptTortureCrashSweep crashes the checkpoint store at every mutating
// operation index in turn — landing the crash mid-checkpoint-write, between
// segment publication and rotation, between sealing and truncation, inside
// truncation itself — and requires every recovery to be prefix-consistent.
// Each run continues into a second clean incarnation, so the recovered
// engine also has to checkpoint, rotate, and recover again on top of the
// sealed history. InitCheckpointLog consumes Streams+1 ops, so the sweep
// starts just past bootstrap. The value-silo lane runs on a one-stream log
// and on a four-stream one: the lifecycle is the same code at every count.
func TestCkptTortureCrashSweep(t *testing.T) {
	lanes := []struct {
		name     string
		protocol string
		mode     wal.Mode
		streams  int
	}{
		{"value-silo-1stream", "SILO", wal.ModeValue, 1},
		{"value-silo-4streams", "SILO", wal.ModeValue, 4},
		{"command-silo", "SILO", wal.ModeCommand, 2},
		{"value-mvcc", "MVCC", wal.ModeValue, 2},
	}
	maxOp := 40
	if testing.Short() {
		maxOp = 16
	}
	for _, lane := range lanes {
		lane := lane
		t.Run(lane.name, func(t *testing.T) {
			t.Parallel()
			crashed, ckptLoaded, logFallback := 0, 0, 0
			for op := lane.streams + 2; op <= maxOp; op++ {
				cfg := ckptBase(lane.protocol, lane.mode, 0xC0FFEE00+uint64(op))
				cfg.Streams = lane.streams
				cfg.Incarnations = 2
				cfg.Chaos = fault.StoreChaos{Seed: uint64(op) * 977, CrashAtOp: op}
				res, err := RunCkpt(cfg)
				if err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				if len(res.Incarnations) != 2 {
					t.Fatalf("op %d: %d incarnations, want 2", op, len(res.Incarnations))
				}
				first := res.Incarnations[0]
				if first.StoreCrashed {
					crashed++
				}
				if first.Recovery.CheckpointLoaded {
					ckptLoaded++
				} else {
					logFallback++
				}
			}
			// The sweep must actually exercise the lifecycle: crashes fire,
			// some recoveries restore a checkpoint, some fall back to the
			// full log because the crash preceded any installed generation.
			if crashed == 0 {
				t.Fatal("no sweep run reached its crash point")
			}
			if ckptLoaded == 0 {
				t.Fatal("no sweep recovery restored a checkpoint")
			}
			if logFallback == 0 {
				t.Fatal("no sweep recovery exercised the full-log fallback")
			}
		})
	}
}

// TestCkptTortureTornManifest tears a manifest save mid-write (save 2 is the
// first cycle's segment publication, save 3 its sealing save) and requires
// recovery to proceed from the previous manifest copy.
func TestCkptTortureTornManifest(t *testing.T) {
	for _, tear := range []int{2, 3} {
		cfg := ckptBase("SILO", wal.ModeValue, 0x7EA5+uint64(tear))
		cfg.Chaos = fault.StoreChaos{Seed: 42, TearManifestAtSave: tear}
		res, err := RunCkpt(cfg)
		if err != nil {
			t.Fatalf("tear at save %d: %v", tear, err)
		}
		ir := res.Incarnations[0]
		if !ir.StoreCrashed {
			t.Fatalf("tear at save %d: store never crashed", tear)
		}
		if !ir.Recovery.ManifestFallback {
			t.Fatalf("tear at save %d: recovery did not use the manifest fallback: %+v", tear, ir.Recovery)
		}
	}
}

// TestCkptTortureTransientCheckpointFailure fails one checkpoint write
// cleanly (no crash): the cycle must report a failure, the run must still
// close and recover perfectly.
func TestCkptTortureTransientCheckpointFailure(t *testing.T) {
	cfg := ckptBase("SILO", wal.ModeValue, 0xFA11)
	cfg.Chaos = fault.StoreChaos{Seed: 7, FailCheckpointAt: 2}
	res, err := RunCkpt(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ir := res.Incarnations[0]
	if ir.StoreCrashed {
		t.Fatal("transient failure must not crash the store")
	}
	if ir.CycleFailures < 1 {
		t.Fatalf("no cycle failure recorded: %+v", ir)
	}
	if ir.Cycles < 2 {
		t.Fatalf("cycles did not resume after the transient failure: %+v", ir)
	}
}

// TestCkptTortureCheckpointCorruptionFallback corrupts the newest retained
// checkpoint generation at rest: recovery must fall back to the previous
// generation and replay the longer tail, still prefix-consistent.
func TestCkptTortureCheckpointCorruptionFallback(t *testing.T) {
	for _, mode := range []wal.Mode{wal.ModeValue, wal.ModeCommand} {
		cfg := ckptBase("SILO", mode, 0xBADC+uint64(mode))
		cfg.FlipNewestCheckpoint = true
		res, err := RunCkpt(cfg)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		ir := res.Incarnations[0]
		if ir.Recovery.CheckpointFallbacks < 1 {
			t.Fatalf("mode %v: corrupt newest generation was not skipped: %+v", mode, ir.Recovery)
		}
		if !ir.Recovery.CheckpointLoaded {
			t.Fatalf("mode %v: previous generation did not load: %+v", mode, ir.Recovery)
		}
	}
}

// TestCkptTortureWALBounded runs three clean incarnations with frequent
// checkpoints and requires the footprint to stay bounded: retained
// generations at the keep limit, segment count and bytes bounded, recovery
// replaying a short tail (bounded recovery) rather than the full history.
func TestCkptTortureWALBounded(t *testing.T) {
	cfg := ckptBase("SILO", wal.ModeValue, 0xB0B0)
	cfg.Incarnations = 3
	cfg.CheckpointEvery = 5
	res, err := RunCkpt(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perIncarnation := cfg.Config.Workers * cfg.Config.TxnsPerWorker
	sawSkipped := false
	for i, ir := range res.Incarnations {
		if ir.Checkpoints > cfg.Keep {
			t.Fatalf("incarnation %d: %d generations retained, keep %d", i, ir.Checkpoints, cfg.Keep)
		}
		if max := cfg.Streams * (cfg.Keep + 3); ir.Segments > max {
			t.Fatalf("incarnation %d: %d segments retained, want <= %d", i, ir.Segments, max)
		}
		if !ir.Recovery.CheckpointLoaded {
			t.Fatalf("incarnation %d: recovery did not load a checkpoint: %+v", i, ir.Recovery)
		}
		// Bounded recovery: the replayed tail must be a fraction of the
		// round's commit volume, not the whole history since genesis.
		if ir.Recovery.Records >= perIncarnation*(i+1) {
			t.Fatalf("incarnation %d: replayed %d records, full history is not bounded recovery",
				i, ir.Recovery.Records)
		}
		if ir.Recovery.SkippedOldEpoch > 0 {
			sawSkipped = true
		}
	}
	if !sawSkipped {
		t.Fatal("no recovery skipped checkpoint-covered records; the epoch ceiling is not engaged")
	}
	// Truncation must keep total log bytes from growing across incarnations:
	// the last footprint may not dwarf the first.
	first, last := res.Incarnations[0].SegmentBytes, res.Incarnations[2].SegmentBytes
	if last > 3*first {
		t.Fatalf("segment bytes grew from %d to %d across incarnations; truncation is not bounding the log", first, last)
	}
}

// TestCkptTortureRepeatedCrashes crashes the store in every incarnation —
// including crashes landing inside recovery's own sealing writes in later
// rounds would be a bootstrap failure, so the op index clears attach and
// seal — and requires prefix consistency to survive the full chain.
func TestCkptTortureRepeatedCrashes(t *testing.T) {
	ops := []int{13, 19, 27}
	if testing.Short() {
		ops = ops[:1]
	}
	for _, op := range ops {
		cfg := ckptBase("SILO", wal.ModeValue, 0x5E0+uint64(op))
		cfg.Incarnations = 3
		cfg.RepeatChaos = true
		cfg.Chaos = fault.StoreChaos{Seed: uint64(op), CrashAtOp: op}
		res, err := RunCkpt(cfg)
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		for i, ir := range res.Incarnations {
			if !ir.StoreCrashed {
				t.Fatalf("op %d: incarnation %d never crashed", op, i)
			}
		}
	}
}

// TestCkptTortureDetectsLostHistory is the negative control: with every
// retained checkpoint generation corrupted AND early segments already
// truncated, the full history is unrecoverable — and recovery itself must
// say so (core.ErrHistoryLost) rather than replay what is left and leave the
// state checker to notice the hole.
func TestCkptTortureDetectsLostHistory(t *testing.T) {
	for _, mode := range []wal.Mode{wal.ModeValue, wal.ModeCommand} {
		cfg := ckptBase("SILO", mode, 0xDEAD+uint64(mode))
		cfg.Keep = 1
		cfg.CheckpointEvery = 4
		cfg.FlipAllCheckpoints = true
		_, err := RunCkpt(cfg)
		if err == nil {
			t.Fatalf("mode %v: lost history went undetected", mode)
		}
		if !errors.Is(err, core.ErrHistoryLost) {
			t.Fatalf("mode %v: expected recovery to refuse with ErrHistoryLost, got: %v", mode, err)
		}
	}
}
