package torture

import (
	"testing"

	"next700/internal/testutil"
)

// partitionProtocols are the schemes the partition lane runs over: one per
// concurrency-control family that keeps its own per-record state (optimistic
// versions, lock words, version chains, read/write timestamps) — the state a
// live partition rebuild has to put back.
var partitionProtocols = []string{"SILO", "NO_WAIT", "MVCC", "TICTOC"}

// partitionSeeds samples n seeds per protocol, half of them under -short.
func partitionSeeds(n int) int {
	if testing.Short() {
		return n / 2
	}
	return n
}

// forPartitionProtocols runs fn once per protocol, the protocols side by
// side, and returns when the last one has.
func forPartitionProtocols(t *testing.T, fn func(t *testing.T, proto string)) {
	t.Run("protocols", func(t *testing.T) {
		for _, proto := range partitionProtocols {
			t.Run(proto, func(t *testing.T) {
				t.Parallel()
				fn(t, proto)
			})
		}
	})
}

// TestPartitionFaultSeeds is the partition-fault oracle sweep: across many
// seeds, exactly one partition's device sticky-fails mid-run; healthy
// partitions must commit durably with zero losses, every loss on the failed
// partition must classify ErrPartitionUnavailable, the degraded engine must
// show zero Adya anomalies, and live single-partition recovery from the
// store must land exactly on the acknowledged prefix digest and take the next
// commit.
func TestPartitionFaultSeeds(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	forPartitionProtocols(t, func(t *testing.T, proto string) {
		iters, fired := partitionSeeds(8), 0
		for seed := uint64(1); seed <= uint64(iters); seed++ {
			res, err := RunPartition(PartitionConfig{Protocol: proto, Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", proto, seed, err)
			}
			if res.Fired {
				fired++
				if res.Lost == 0 {
					t.Fatalf("%s seed %d: fault fired but nothing was shed", proto, seed)
				}
				if res.ProbeTxns == 0 {
					t.Fatalf("%s seed %d: degraded-engine probe committed nothing", proto, seed)
				}
				if res.Recovery.SealedSegments == 0 {
					t.Fatalf("%s seed %d: live recovery sealed nothing: %+v", proto, seed, res.Recovery)
				}
			}
		}
		// The crash offsets are drawn to land mid-run; a majority of the
		// seeds must actually exercise the fault path.
		if fired < iters/2 {
			t.Fatalf("%s: only %d/%d seeds fired the fault", proto, fired, iters)
		}
		t.Logf("%s: fired %d/%d", proto, fired, iters)
	})
}

// TestPartitionReadmitCrashSeeds is the seeded form of core's
// TestReadmittedCommitSurvivesCrash: after the device failure and the live
// recovery the readmitted partition commits the rest of its plan — around a
// checkpoint cycle in about half the seeds — and the process crashes. The
// whole-engine recovery must find every one of those commits: counter ==
// acked exactly, on every partition.
func TestPartitionReadmitCrashSeeds(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	forPartitionProtocols(t, func(t *testing.T, proto string) {
		iters, fired, ckpt := partitionSeeds(8), 0, 0
		for seed := uint64(1); seed <= uint64(iters); seed++ {
			res, err := RunPartition(PartitionConfig{Protocol: proto, Seed: seed, Fault: faultDeviceCrash})
			if err != nil {
				t.Fatalf("%s seed %d: %v", proto, seed, err)
			}
			if !res.Fired {
				continue
			}
			fired++
			if res.Acked[res.Target] != 60 {
				t.Fatalf("%s seed %d: readmitted partition %d acked %d/60", proto, seed, res.Target, res.Acked[res.Target])
			}
			if res.Reboot.CheckpointLoaded {
				ckpt++
			}
		}
		if fired < iters/2 {
			t.Fatalf("%s: only %d/%d seeds fired the fault", proto, fired, iters)
		}
		t.Logf("%s: fired %d/%d, %d rebooted from a post-readmission checkpoint", proto, fired, iters, ckpt)
	})
}

// TestPartitionFaultNoFaultControl is the negative control: without a fault
// every partition completes every transaction.
func TestPartitionFaultNoFaultControl(t *testing.T) {
	forPartitionProtocols(t, func(t *testing.T, proto string) {
		res, err := RunPartition(PartitionConfig{Protocol: proto, Seed: 99, Fault: faultNone})
		if err != nil {
			t.Fatal(err)
		}
		for p, a := range res.Acked {
			if a != 60 {
				t.Fatalf("%s: partition %d acked %d/60", proto, p, a)
			}
		}
	})
}

// TestPartitionCrashSeeds sweeps the process-crash arms: a sliced checkpoint
// generation mid-run, a full-process crash, per-partition slice + own-tail
// recovery — clean, and with one partition's newest slice corrupted, which
// must never load silently: recovery reports a fallback and still reaches the
// exact committed state.
func TestPartitionCrashSeeds(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	forPartitionProtocols(t, func(t *testing.T, proto string) {
		for seed := uint64(1); seed <= uint64(partitionSeeds(2)); seed++ {
			res, err := RunPartition(PartitionConfig{Protocol: proto, Seed: seed, Fault: faultCrash})
			if err != nil {
				t.Fatalf("%s seed %d: %v", proto, seed, err)
			}
			if res.Reboot.CheckpointFallbacks != 0 || !res.Reboot.CheckpointLoaded {
				t.Fatalf("%s seed %d: clean recovery: %+v, want the sliced checkpoint loaded without fallbacks", proto, seed, res.Reboot)
			}
			res, err = RunPartition(PartitionConfig{Protocol: proto, Seed: seed, Fault: faultCrashCorrupt})
			if err != nil {
				t.Fatalf("%s seed %d corrupt slice: %v", proto, seed, err)
			}
			if res.Reboot.CheckpointFallbacks == 0 {
				t.Fatalf("%s seed %d: corrupt slice produced no fallback", proto, seed)
			}
		}
	})
}
