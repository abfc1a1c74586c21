package torture

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"next700/internal/cc"
	"next700/internal/core"
	"next700/internal/wal"
)

// modes are the two log modes, named as the subtests are.
var modes = []struct {
	name string
	mode wal.Mode
}{{"value", wal.ModeValue}, {"command", wal.ModeCommand}}

// seeds is a sweep's iteration count: full, or short under -short.
func seeds(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

// sweep runs cell(i) for i in [0, n), failing on the first error, and returns
// every result for the caller's coverage guards.
func sweep(t *testing.T, n int, cell func(i int) Scenario) []Result {
	t.Helper()
	out := make([]Result, n)
	for i := range out {
		s := cell(i)
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		out[i] = res
	}
	return out
}

// count is the number of results whose first round satisfies pred.
func count(results []Result, pred func(Round) bool) int {
	n := 0
	for _, r := range results {
		if pred(r.Rounds[0]) {
			n++
		}
	}
	return n
}

// The product's axes. Every combination is a cell; the engine prunes the
// illegal ones.
var (
	productProtocols = append(cc.Names(), "QSTORE")
	productStreams   = []int{1, 3}
	productFaults    = []Fault{FaultNone, FaultCrash, FaultStoreCrash, FaultTornManifest,
		FaultFailCheckpoint, FaultCorruptSlice, FaultPartition}
)

// product runs every cell of the feature product that keep selects, one
// seed each, under -short every 29th. A cell the engine rejects with
// core.ErrInvalidUsage is counted as pruned; any other error has found an
// engine fault.
func product(t *testing.T, keep func(Scenario) bool) {
	var cells []Scenario
	for _, p := range productProtocols {
		for _, d := range []bool{false, true} {
			for _, n := range productStreams {
				for _, pw := range []bool{false, true} {
					for _, m := range modes {
						for _, ck := range []bool{false, true} {
							for _, f := range productFaults {
								s := Scenario{Protocol: p, Det: d, Streams: n, PartitionWAL: pw, LogMode: m.mode,
									Checkpoint: ck, Fault: f, Seed: uint64(len(cells) + 1)}
								if keep(s) {
									cells = append(cells, s)
								}
							}
						}
					}
				}
			}
		}
	}
	var ran, pruned atomic.Int32
	t.Run("cells", func(t *testing.T) {
		for i, s := range cells {
			if testing.Short() && i%29 != 0 {
				continue
			}
			name := fmt.Sprintf("%s/det=%v/streams%d/pwal=%v/%v/ckpt=%v/%s", s.Protocol, s.Det, s.Streams,
				s.PartitionWAL, s.LogMode, s.Checkpoint, s.Fault)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				_, err := Run(s)
				if errors.Is(err, core.ErrInvalidUsage) {
					pruned.Add(1)
					t.Skip("pruned:", err)
				}
				ran.Add(1)
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	})
	t.Logf("%d cells run, %d pruned by the engine", ran.Load(), pruned.Load())
}

// TestProduct runs the interactive cells on thread-affinity logs.
func TestProduct(t *testing.T) {
	product(t, func(s Scenario) bool { return !s.Det && !s.PartitionWAL })
}

// TestProductPartitionWAL runs the interactive cells on partition-sharded
// logs.
func TestProductPartitionWAL(t *testing.T) {
	product(t, func(s Scenario) bool { return !s.Det && s.PartitionWAL })
}

// TestProductDet runs the deterministic cells (PartitionWAL ones included:
// the executor rejects them, since per-partition frontiers split batches).
func TestProductDet(t *testing.T) {
	product(t, func(s Scenario) bool { return s.Det })
}

// TestCrashRecoveryTorture: seeded byte crashes with transient syncs on a
// one-stream log. The offsets must exercise both the crash and the torn-tail
// paths, and the recovered value-logged engine must still isolate.
func TestCrashRecoveryTorture(t *testing.T) {
	for _, protocol := range []string{"SILO", "NO_WAIT", "MVCC", "TICTOC"} {
		for _, m := range modes {
			t.Run(protocol+"/"+m.name, func(t *testing.T) {
				t.Parallel()
				res := sweep(t, seeds(38, 5), func(i int) Scenario {
					return Scenario{Protocol: protocol, LogMode: m.mode, Fault: FaultCrash,
						Seed: uint64(i)*0x9e3779b9 + uint64(len(protocol)) + uint64(m.mode)}
				})
				for _, r := range res {
					if m.mode == wal.ModeValue && r.ProbeTxns == 0 {
						t.Fatal("recovered-engine probe committed no transactions")
					}
				}
				if count(res, func(r Round) bool { return r.Crashed }) == 0 {
					t.Fatal("no seed crashed")
				}
				if count(res, func(r Round) bool { return r.Recovery.TornBytes > 0 }) == 0 {
					t.Fatal("no seed produced a torn tail")
				}
			})
		}
	}
}

// TestCrashRecoveryTortureStreams: the same on three streams, each with its
// own crash offset and tail cut, so epochs end up torn across the set and
// the merge must truncate them without losing an acked commit.
func TestCrashRecoveryTortureStreams(t *testing.T) {
	for _, protocol := range []string{"SILO", "MVCC"} {
		for _, m := range modes {
			t.Run(protocol+"/"+m.name, func(t *testing.T) {
				t.Parallel()
				res := sweep(t, seeds(38, 5), func(i int) Scenario {
					return Scenario{Protocol: protocol, LogMode: m.mode, Streams: 3, Fault: FaultCrash,
						Seed: uint64(i)*0x517cc1b7 + uint64(len(protocol)) + uint64(m.mode)}
				})
				if n := count(res, func(r Round) bool { return r.Recovery.Streams == 3 }); n != len(res) {
					t.Fatalf("%d/%d recoveries replayed 3 streams", n, len(res))
				}
				if count(res, func(r Round) bool { return r.Crashed }) == 0 {
					t.Fatal("no seed crashed")
				}
				if count(res, func(r Round) bool { return r.Recovery.TruncatedRecords > 0 }) == 0 {
					t.Fatal("no seed truncated a torn epoch")
				}
			})
		}
	}
}

// dropped runs the dropped-record negative control, which must trip the
// durability check: a harness that passes it can see what it rules out.
func dropped(t *testing.T, streams int, seed uint64) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			_, err := Run(Scenario{Protocol: "SILO", LogMode: m.mode, Streams: streams, Fault: FaultDropRecord, Seed: seed})
			if !errors.Is(err, ErrDurability) {
				t.Fatalf("dropped record not detected: %v", err)
			}
		})
	}
}

// TestTortureStreamsDetectsDroppedRecord: the control fires through the
// multi-stream merge.
func TestTortureStreamsDetectsDroppedRecord(t *testing.T) { dropped(t, 3, 11) }

// TestTortureDetectsDroppedRecord: and on one stream.
func TestTortureDetectsDroppedRecord(t *testing.T) { dropped(t, 1, 7) }

// clean runs a clean shutdown, which must recover every commit undamaged.
func clean(t *testing.T, streams int) Round {
	res, err := Run(Scenario{Protocol: "SILO", LogMode: wal.ModeValue, Streams: streams, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rounds[0]
	if r.Crashed {
		t.Fatal("clean run reported a crash")
	}
	if want := max(streams, 3) * txnsPerWorker; r.Acked != want || r.Recovery.Records != want {
		t.Fatalf("acked %d, recovered %d records, want %d", r.Acked, r.Recovery.Records, want)
	}
	return r
}

// TestTortureStreamsCleanRun: on four streams nothing is truncated.
func TestTortureStreamsCleanRun(t *testing.T) {
	if r := clean(t, 4); r.Recovery.TruncatedRecords != 0 {
		t.Fatalf("clean run truncated records: %+v", r.Recovery)
	}
}

// TestTortureCleanRun: on one stream nothing is torn.
func TestTortureCleanRun(t *testing.T) {
	if r := clean(t, 1); r.Recovery.TornBytes != 0 || r.Recovery.CorruptTailRecords != 0 {
		t.Fatalf("clean log replayed with damage: %+v", r.Recovery)
	}
}
