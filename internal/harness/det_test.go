package harness

import (
	"testing"
	"time"

	"next700/internal/core"
	"next700/internal/verify"
	"next700/internal/workload"
)

func detYCSB() *workload.YCSB {
	return workload.NewYCSB(workload.YCSBConfig{
		Records:                2048,
		OpsPerTxn:              8,
		ReadRatio:              0.5,
		Theta:                  0.9, // high contention: where det's abort-freedom matters
		MultiPartitionFraction: 0.3,
	})
}

// TestRunDetSameSeedSameDigest is determinism oracle #1: two runs of the
// same seeded schedule produce byte-identical state digests, abort-free.
func TestRunDetSameSeedSameDigest(t *testing.T) {
	opts, dopts := RunOptions{Seed: 7}, DetOptions{Batch: 32, Batches: 12}
	cfg := core.Config{Partitions: 2}
	a, err := RunDet(cfg, detYCSB(), opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDet(cfg, detYCSB(), opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == "" || a.Digest != b.Digest {
		t.Fatalf("same-seed digests differ: %q vs %q", a.Digest, b.Digest)
	}
	if a.Commits != 32*12 {
		t.Fatalf("commits = %d, want %d", a.Commits, 32*12)
	}
	if a.Aborts != 0 || a.FatalAborts != 0 {
		t.Fatalf("deterministic run aborted: %d conflict, %d fatal", a.Aborts, a.FatalAborts)
	}
}

// TestRunDetDigestAcrossWorkers is determinism oracle #2: the same seeded
// schedule executed with 1, 2, 4, and 8 partition executors reaches the
// same digest — queue-oriented execution is equivalent to the serial
// priority order at any worker count.
func TestRunDetDigestAcrossWorkers(t *testing.T) {
	opts, dopts := RunOptions{Seed: 99}, DetOptions{Batch: 32, Batches: 10}
	var ref string
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := RunDet(core.Config{Partitions: workers}, detYCSB(), opts, dopts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Aborts != 0 {
			t.Fatalf("workers=%d: %d conflict aborts", workers, res.Aborts)
		}
		if ref == "" {
			ref = res.Digest
		} else if res.Digest != ref {
			t.Fatalf("workers=%d digest %s != reference %s", workers, res.Digest, ref)
		}
	}
}

// TestRunDetOpenLoop smoke-tests batch-arrival mode: arrivals flow, batches
// cut on size or age, and the latency decomposition is populated.
func TestRunDetOpenLoop(t *testing.T) {
	res, err := RunDet(core.Config{Partitions: 2}, detYCSB(),
		RunOptions{Seed: 3, OfferedRate: 4000, Duration: 250 * time.Millisecond},
		DetOptions{Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Fatal("open-loop det run committed nothing")
	}
	if res.Arrivals < res.Commits {
		t.Fatalf("arrivals %d < commits %d", res.Arrivals, res.Commits)
	}
	if res.QueueLatency.Count == 0 || res.E2ELatency.Count == 0 {
		t.Fatalf("latency decomposition missing: queue=%d e2e=%d",
			res.QueueLatency.Count, res.E2ELatency.Count)
	}
	if res.Aborts != 0 {
		t.Fatalf("open-loop det run had %d conflict aborts", res.Aborts)
	}
}

// TestRunDetVerified drives the deterministic stamped probe through RunDet
// with history recording on: the checked report must be anomaly-free, on a
// contended keyspace with cross-partition delivery pairs in the mix.
func TestRunDetVerified(t *testing.T) {
	probe := verify.NewDetProbe(verify.ProbeConfig{
		Keys:          12,
		MinOps:        2,
		MaxOps:        6,
		WriteRatio:    0.5,
		CrossFraction: 0.3,
	})
	res, err := RunDet(core.Config{Partitions: 4}, probe,
		RunOptions{Seed: 5, Verify: true}, DetOptions{Batch: 24, Batches: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verification == nil {
		t.Fatal("no verification report")
	}
	if !res.Verification.Ok() {
		t.Fatalf("anomalies in deterministic history: %v", res.Verification.Anomalies)
	}
	if res.Verification.Txns != 24*10 {
		t.Fatalf("checked %d transactions, want %d", res.Verification.Txns, 24*10)
	}
	if res.Aborts != 0 {
		t.Fatalf("deterministic probe run had %d conflict aborts", res.Aborts)
	}
}
