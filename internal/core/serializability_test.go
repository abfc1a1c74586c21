// Serializability conformance, externally: every protocol × index family ×
// contention level is driven through the stamped verification probe and its
// recorded history is checked for Adya anomalies by internal/verify — the
// subsystem this test's bespoke predecessor was promoted into. The test
// lives in package core_test because verify imports core.
package core_test

import (
	"sync"
	"testing"

	"next700/internal/cc"
	"next700/internal/core"
	"next700/internal/harness"
	"next700/internal/storage"
	"next700/internal/verify"
)

// TestIsolationConformanceMatrix checks that every protocol produces
// anomaly-free histories under both index families and both contention
// levels. High contention (8 keys, 4 workers, 2-4 ops each) is where
// isolation bugs live; low contention (512 keys) covers the mostly-disjoint
// fast paths.
func TestIsolationConformanceMatrix(t *testing.T) {
	indexes := []struct {
		name string
		kind core.IndexKind
	}{
		{"hash", core.IndexHash},
		{"btree", core.IndexBTree},
	}
	contentions := []struct {
		name string
		keys uint64
	}{
		{"high", 8},
		{"low", 512},
	}
	txns := 200
	if testing.Short() {
		txns = 50
	}
	for _, protocol := range cc.Names() {
		for _, ix := range indexes {
			for _, ct := range contentions {
				protocol, ix, ct := protocol, ix, ct
				t.Run(protocol+"/"+ix.name+"/"+ct.name, func(t *testing.T) {
					t.Parallel()
					probe := verify.NewProbe(verify.ProbeConfig{Keys: ct.keys, Index: ix.kind})
					res, err := harness.Run(
						core.Config{Protocol: protocol, Threads: 4, Partitions: 2},
						probe,
						harness.RunOptions{TxnsPerWorker: txns, Verify: true, Seed: 42},
					)
					if err != nil {
						t.Fatal(err)
					}
					rep := res.Verification
					if rep == nil {
						t.Fatal("Verify run produced no verification report")
					}
					if rep.Txns == 0 {
						t.Fatal("no transactions recorded")
					}
					if !rep.Ok() {
						for _, a := range rep.Anomalies {
							t.Errorf("%s: %s", a.Class, a.Message)
							for _, e := range a.Witness {
								t.Errorf("  witness: %s", e)
							}
						}
					}
				})
			}
		}
	}
	// MVCC at snapshot isolation legitimately admits write skew (G2); the
	// checker's ability to see it is asserted by TestVerifyDetectsWriteSkew
	// below rather than a pass here.
}

// TestIsolationConformanceMatrixDet extends the conformance matrix with the
// queue-oriented deterministic executor: the same stamped-history oracle,
// driven through declared access sets (verify.DetProbe) over both index
// families and both contention levels, with cross-partition delivery pairs
// in the mix. Deterministic execution must clear a strictly higher bar than
// the interactive protocols: zero Adya anomalies AND zero conflict aborts —
// abort-freedom under contention is the mode's defining claim, so any
// nonzero conflict-abort counter is a failure even if the history checks
// out.
func TestIsolationConformanceMatrixDet(t *testing.T) {
	indexes := []struct {
		name string
		kind core.IndexKind
	}{
		{"hash", core.IndexHash},
		{"btree", core.IndexBTree},
	}
	contentions := []struct {
		name string
		keys uint64
	}{
		{"high", 8},
		{"low", 512},
	}
	batches := 16
	if testing.Short() {
		batches = 5
	}
	for _, ix := range indexes {
		for _, ct := range contentions {
			ix, ct := ix, ct
			t.Run("DET/"+ix.name+"/"+ct.name, func(t *testing.T) {
				t.Parallel()
				probe := verify.NewDetProbe(verify.ProbeConfig{
					Keys:          ct.keys,
					Index:         ix.kind,
					CrossFraction: 0.25,
				})
				res, err := harness.RunDet(
					core.Config{Partitions: 4},
					probe,
					harness.RunOptions{Seed: 42, Verify: true},
					harness.DetOptions{Batch: 50, Batches: batches},
				)
				if err != nil {
					t.Fatal(err)
				}
				rep := res.Verification
				if rep == nil {
					t.Fatal("Verify run produced no verification report")
				}
				if rep.Txns == 0 {
					t.Fatal("no transactions recorded")
				}
				if !rep.Ok() {
					for _, a := range rep.Anomalies {
						t.Errorf("%s: %s", a.Class, a.Message)
						for _, e := range a.Witness {
							t.Errorf("  witness: %s", e)
						}
					}
				}
				// The abort-free assertion: conflict aborts exactly zero.
				if res.Aborts != 0 {
					t.Errorf("deterministic run recorded %d conflict aborts, want 0", res.Aborts)
				}
				if rep.AbortedTxns != 0 {
					t.Errorf("history recorded %d aborted attempts, want 0", rep.AbortedTxns)
				}
			})
		}
	}
}

// TestVerifyDetectsWriteSkew is the end-to-end negative control: MVCC at
// snapshot isolation legitimately admits write skew, and the verify
// subsystem must report it as G2 — from a real engine run, not a hand-built
// history. Two transactions each read keys 0 and 1, rendezvous so both hold
// begin-time snapshots, then write disjoint keys; snapshot isolation's
// first-committer-wins rule sees no write-write overlap and commits both.
func TestVerifyDetectsWriteSkew(t *testing.T) {
	e, err := core.Open(core.Config{Protocol: "MVCC", Isolation: cc.IsoSnapshot, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sch := storage.MustSchema("ws", storage.I64("stamp"), storage.I64("prev"))
	tbl, err := e.CreateTable(sch, core.IndexHash)
	if err != nil {
		t.Fatal(err)
	}
	row := sch.NewRow()
	for k := uint64(0); k < 2; k++ {
		sch.SetInt64(row, 0, 0)
		sch.SetInt64(row, 1, -1)
		if err := e.Load(tbl, k, row); err != nil {
			t.Fatal(err)
		}
	}

	hist := verify.NewHistory(2)
	// Each worker closes its channel once its reads are done (Once guards
	// against body retries); both wait for the other before writing, so both
	// snapshots predate both writes.
	var once [2]sync.Once
	readsDone := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	errs := [2]error{}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := hist.Recorder(w)
			tx := e.NewTx(w, uint64(w)+1)
			writeKey := uint64(w)
			errs[w] = tx.Run(func(tx *core.Tx) error {
				rec.Begin()
				for k := uint64(0); k < 2; k++ {
					r, err := tx.Read(tbl, k)
					if err != nil {
						return err
					}
					rec.Read(k, sch.GetInt64(r, 0))
				}
				once[w].Do(func() { close(readsDone[w]) })
				<-readsDone[1-w]
				r, err := tx.Update(tbl, writeKey)
				if err != nil {
					return err
				}
				prev := sch.GetInt64(r, 0)
				stamp := rec.Write(writeKey, prev)
				sch.SetInt64(r, 0, stamp)
				sch.SetInt64(r, 1, prev)
				return nil
			})
			if errs[w] != nil {
				rec.Abort()
			} else {
				rec.Commit()
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	final := make(map[uint64]int64, 2)
	tx := e.NewTx(0, 9)
	if err := tx.Run(func(tx *core.Tx) error {
		for k := uint64(0); k < 2; k++ {
			r, err := tx.Read(tbl, k)
			if err != nil {
				return err
			}
			final[k] = sch.GetInt64(r, 0)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	rep := hist.Check(final)
	if rep.Ok() {
		t.Fatal("write skew under snapshot isolation went undetected")
	}
	for _, a := range rep.Anomalies {
		if a.Class != verify.ClassG2 {
			t.Errorf("unexpected anomaly class %s: %s", a.Class, a.Message)
		}
		if len(a.Witness) == 0 {
			t.Errorf("anomaly without witness: %s", a.Message)
		}
	}
}
