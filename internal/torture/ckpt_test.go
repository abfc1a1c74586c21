package torture

import (
	"errors"
	"testing"

	"next700/internal/core"
	"next700/internal/wal"
)

// ckpt is a checkpoint-chaos cell on two streams.
func ckpt(mode wal.Mode, fault Fault, seed uint64) Scenario {
	return Scenario{Protocol: "SILO", LogMode: mode, Streams: 2, Checkpoint: true, Fault: fault, Seed: seed}
}

// TestCkptTortureCrashSweep crashes the store at every mutating operation of
// a round in turn — mid checkpoint write, between segment publication and
// rotation, between sealing and truncation, inside truncation — over two
// rounds, so the recovered engine checkpoints, rotates, crashes and recovers
// again on top of the sealed history. Some first recoveries must restore a
// checkpoint and some fall back to the full log. The lifecycle is the same
// code at every stream count; the product runs it on every protocol.
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
	for _, lane := range lanes {
		t.Run(lane.name, func(t *testing.T) {
			t.Parallel()
			res := sweep(t, seeds(40, 8), func(op int) Scenario {
				s := ckpt(lane.mode, FaultStoreCrash, uint64(op))
				s.Protocol, s.Streams, s.Rounds = lane.protocol, lane.streams, 2
				return s
			})
			if count(res, func(r Round) bool { return r.Crashed }) == 0 {
				t.Fatal("no sweep run reached its crash point")
			}
			if count(res, func(r Round) bool { return r.Recovery.CheckpointLoaded }) == 0 {
				t.Fatal("no sweep recovery restored a checkpoint")
			}
			if count(res, func(r Round) bool { return !r.Recovery.CheckpointLoaded }) == 0 {
				t.Fatal("no sweep recovery exercised the full-log fallback")
			}
		})
	}
}

// TestCkptTortureTornManifest tears the first cycle's publication and its
// sealing save: recovery must proceed from the previous manifest copy.
func TestCkptTortureTornManifest(t *testing.T) {
	for seed := uint64(0); seed < 2; seed++ {
		res, err := Run(ckpt(wal.ModeValue, FaultTornManifest, seed))
		if err != nil {
			t.Fatalf("tear at save %d: %v", seed+1, err)
		}
		if r := res.Rounds[0]; !r.Crashed || !r.Recovery.ManifestFallback {
			t.Fatalf("tear at save %d: crashed %v, recovery %+v", seed+1, r.Crashed, r.Recovery)
		}
	}
}

// TestCkptTortureTransientCheckpointFailure fails one checkpoint write
// cleanly: the cycle fails, later cycles resume, and recovery is exact.
func TestCkptTortureTransientCheckpointFailure(t *testing.T) {
	res, err := Run(ckpt(wal.ModeValue, FaultFailCheckpoint, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Rounds[0]; r.Crashed || r.CycleFailures < 1 || r.Cycles < 2 {
		t.Fatalf("want no crash, a failed cycle and resumed cycles: %+v", r)
	}
}

// TestCkptTortureCheckpointCorruptionFallback corrupts the newest generation
// at rest: recovery falls back to the previous one, still exact.
func TestCkptTortureCheckpointCorruptionFallback(t *testing.T) {
	for _, m := range modes {
		res, err := Run(ckpt(m.mode, FaultCorruptSlice, 0xBADC))
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if r := res.Rounds[0].Recovery; r.CheckpointFallbacks < 1 || !r.CheckpointLoaded {
			t.Fatalf("%s: corrupt newest generation not skipped for an older one: %+v", m.name, r)
		}
	}
}

// TestCkptTortureWALBounded runs three clean rounds with checkpoints: the
// footprint stays bounded — generations at the keep limit, segments and bytes
// bounded in every round — and recovery replays a short tail, not the whole
// history.
func TestCkptTortureWALBounded(t *testing.T) {
	s := ckpt(wal.ModeValue, FaultNone, 0xB0B0)
	s.Rounds = 3
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	skipped := false
	for i, r := range res.Rounds {
		if r.Checkpoints > keepGenerations {
			t.Fatalf("round %d: %d generations retained, keep %d", i, r.Checkpoints, keepGenerations)
		}
		if bound := s.Streams * (keepGenerations + 3); r.Segments > bound {
			t.Fatalf("round %d: %d segments retained, want <= %d", i, r.Segments, bound)
		}
		if !r.Recovery.CheckpointLoaded || r.Recovery.Records >= r.Acked*(i+1) {
			t.Fatalf("round %d: recovery is not bounded: %+v", i, r.Recovery)
		}
		// Truncation keeps the log from growing across rounds: well under one
		// round's records at 100 bytes each, whatever the rounds before wrote.
		if bound := int64(r.Acked) * 100; r.SegmentBytes > bound {
			t.Fatalf("round %d: %d segment bytes, want <= %d; truncation is not bounding the log", i, r.SegmentBytes, bound)
		}
		skipped = skipped || r.Recovery.SkippedOldEpoch > 0
	}
	if !skipped {
		t.Fatal("no recovery skipped checkpoint-covered records; the epoch ceiling is not engaged")
	}
}

// TestCkptTortureRepeatedCrashes crashes the store in every round and
// requires the oracle to hold across the whole chain.
func TestCkptTortureRepeatedCrashes(t *testing.T) {
	ops := []uint64{12, 18, 26}
	if testing.Short() {
		ops = ops[:1]
	}
	for _, op := range ops {
		s := ckpt(wal.ModeValue, FaultStoreCrash, op)
		s.Rounds = 3
		res, err := Run(s)
		if err != nil {
			t.Fatalf("op %d: %v", op+1, err)
		}
		for i, r := range res.Rounds {
			if !r.Crashed {
				t.Fatalf("op %d: round %d never crashed", op+1, i)
			}
		}
	}
}

// TestCkptTortureDetectsLostHistory is the negative control: with every
// retained generation corrupt and the log already truncated, recovery itself
// must refuse with core.ErrHistoryLost.
func TestCkptTortureDetectsLostHistory(t *testing.T) {
	for _, m := range modes {
		if _, err := Run(ckpt(m.mode, FaultCorruptAll, 0xDEAD)); !errors.Is(err, core.ErrHistoryLost) {
			t.Fatalf("%s: want ErrHistoryLost, got %v", m.name, err)
		}
	}
}
