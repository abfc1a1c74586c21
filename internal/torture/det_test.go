package torture

import (
	"testing"

	"next700/internal/wal"
)

// detCell is a deterministic cell: the plans as batches on QSTORE.
func detCell(streams int, ckpt bool, fault Fault, seed uint64) Scenario {
	return Scenario{Protocol: "QSTORE", Det: true, LogMode: wal.ModeValue, Streams: streams,
		Checkpoint: ckpt, Fault: fault, Seed: seed}
}

// TestDetOracleNoCrash is the clean-path control: the recovered digest must
// be the reference run's after the whole schedule.
func TestDetOracleNoCrash(t *testing.T) {
	res, err := Run(detCell(2, false, FaultNone, 42))
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Rounds[0]; r.Crashed || r.Batch != txnsPerWorker/batchPerWorker {
		t.Fatalf("clean run: crashed %v, recovered batch %d", r.Crashed, r.Batch)
	}
}

// TestDetOracleCrashSeeds sweeps seeded crashes: every recovered engine must
// land on a reference batch boundary with no acked batch lost, and the sweep
// must actually crash and truncate mid-schedule. The ckpt lane crashes the
// store under a Checkpointer, whose cycles use up log epochs: there only the
// digest, not the recovered frontier epoch, can name the batch.
func TestDetOracleCrashSeeds(t *testing.T) {
	lanes := []struct {
		name    string
		streams int
		ckpt    bool
		fault   Fault
	}{
		{"parts2", 2, false, FaultCrash},
		{"parts4", 4, false, FaultCrash},
		{"parts2-ckpt", 2, true, FaultStoreCrash},
	}
	for _, lane := range lanes {
		t.Run(lane.name, func(t *testing.T) {
			t.Parallel()
			res := sweep(t, seeds(30, 8), func(i int) Scenario {
				return detCell(lane.streams, lane.ckpt, lane.fault, uint64(i)*0x9e3779b9+uint64(lane.streams))
			})
			if count(res, func(r Round) bool { return r.Crashed }) == 0 {
				t.Fatal("no seed crashed")
			}
			if count(res, func(r Round) bool { return r.Batch < txnsPerWorker/batchPerWorker }) == 0 {
				t.Fatal("no seed truncated mid-schedule")
			}
		})
	}
}
