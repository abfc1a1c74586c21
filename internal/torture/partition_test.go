package torture

import (
	"testing"

	"next700/internal/testutil"
	"next700/internal/wal"
)

// forPartitionProtocols runs fn once per protocol family that keeps its own
// per-record state (versions, lock words, version chains, timestamps) — the
// state a live partition rebuild has to put back — side by side.
func forPartitionProtocols(t *testing.T, fn func(t *testing.T, proto string)) {
	t.Run("protocols", func(t *testing.T) {
		for _, proto := range []string{"SILO", "NO_WAIT", "MVCC", "TICTOC"} {
			t.Run(proto, func(t *testing.T) {
				t.Parallel()
				fn(t, proto)
			})
		}
	})
}

// partitionCell is a cell on a four-partition sharded log.
func partitionCell(proto string, ckpt bool, fault Fault, seed uint64) Scenario {
	return Scenario{Protocol: proto, LogMode: wal.ModeValue, Streams: 4, PartitionWAL: true,
		Checkpoint: ckpt, Fault: fault, Seed: seed}
}

// partitionFaults sweeps the partition arc and requires the device fault to
// fire — some attempt shed — in at least half the seeds.
func partitionFaults(t *testing.T, proto string, ckpt bool) []Result {
	res := sweep(t, seeds(8, 4), func(i int) Scenario { return partitionCell(proto, ckpt, FaultPartition, uint64(i+1)) })
	if fired := count(res, func(r Round) bool { return r.Lost > 0 }); fired < len(res)/2 {
		t.Fatalf("only %d/%d seeds fired the fault", fired, len(res))
	}
	return res
}

// TestPartitionFaultSeeds: one partition's device fails mid-run. Healthy
// partitions commit with zero losses, every loss on the dark one classifies
// as core.ErrPartitionUnavailable, the degraded engine shows no Adya anomaly,
// live recovery from the store lands exactly on the acknowledged prefix and
// seals the failed segment, and the readmitted partition finishes its plan.
func TestPartitionFaultSeeds(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	forPartitionProtocols(t, func(t *testing.T, proto string) {
		for _, res := range partitionFaults(t, proto, false) {
			if r := res.Rounds[0]; r.Lost > 0 && (res.ProbeTxns == 0 || r.Live.SealedSegments == 0) {
				t.Fatalf("fired without a degraded probe (%d txns) or a sealed live recovery: %+v", res.ProbeTxns, r.Live)
			}
		}
	})
}

// TestPartitionReadmitCrashSeeds: the same arc under checkpoint cycles, which
// resume once the partition is readmitted; the reboot after it must find
// every commit acknowledged on the readmitted partition.
func TestPartitionReadmitCrashSeeds(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	forPartitionProtocols(t, func(t *testing.T, proto string) {
		res := partitionFaults(t, proto, true)
		t.Logf("%d/%d rebooted from a checkpoint", count(res, func(r Round) bool { return r.Recovery.CheckpointLoaded }), len(res))
	})
}

// TestPartitionFaultNoFaultControl is the control: without a fault every
// partition completes every transaction.
func TestPartitionFaultNoFaultControl(t *testing.T) {
	forPartitionProtocols(t, func(t *testing.T, proto string) {
		res, err := Run(partitionCell(proto, false, FaultNone, 99))
		if err != nil {
			t.Fatal(err)
		}
		if r := res.Rounds[0]; r.Acked != 4*txnsPerWorker {
			t.Fatalf("acked %d/%d", r.Acked, 4*txnsPerWorker)
		}
	})
}

// TestPartitionCrashSeeds: a process crash after sliced checkpoints recovers
// each partition from its own slice plus its own stream tail — cleanly, and
// with one partition's newest slice corrupt, which must never load silently.
func TestPartitionCrashSeeds(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	forPartitionProtocols(t, func(t *testing.T, proto string) {
		for seed := uint64(1); seed <= uint64(seeds(2, 1)); seed++ {
			res, err := Run(partitionCell(proto, true, FaultNone, seed))
			if err != nil {
				t.Fatal(err)
			}
			if r := res.Rounds[0].Recovery; r.CheckpointFallbacks != 0 || !r.CheckpointLoaded {
				t.Fatalf("seed %d: want the sliced checkpoint loaded without fallbacks: %+v", seed, r)
			}
			if res, err = Run(partitionCell(proto, true, FaultCorruptSlice, seed)); err != nil {
				t.Fatal(err)
			}
			if res.Rounds[0].Recovery.CheckpointFallbacks == 0 {
				t.Fatalf("seed %d: corrupt slice produced no fallback", seed)
			}
		}
	})
}
