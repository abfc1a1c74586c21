package bench

import (
	"runtime"
	"testing"
	"time"

	"next700/internal/cc"
	"next700/internal/core"
	"next700/internal/det"
	"next700/internal/fault"
	"next700/internal/storage"
	"next700/internal/wal"
	"next700/internal/workload"
)

// discardDev is an allocation-free WAL device for the allocation gate: the
// gate measures the engine's logging path, not the OS write path.
type discardDev struct{}

func (discardDev) Write(p []byte) (int, error) { return len(p), nil }
func (discardDev) Sync() error                 { return nil }

// discardSegments is a checkpoint store whose log segments keep no bytes,
// for the same reason: an in-memory segment growing under the flushers is
// the fixture's disk, not the engine's commit path.
type discardSegments struct{ *fault.MemStore }

func (s discardSegments) CreateSegment(name string) (wal.Device, error) {
	if _, err := s.MemStore.CreateSegment(name); err != nil {
		return nil, err
	}
	return discardDev{}, nil
}

// mallocsPerRun is testing.AllocsPerRun without its floor: with GOMAXPROCS
// at 1 it calls f once to warm up, then runs times, and returns the heap
// objects allocated per run as a fraction, so one allocation every few
// transactions shows instead of rounding to 0.
func mallocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// allocGateWarmup transactions run before measurement so every record's
// lazily created per-record state (lock-reader slices, MVCC freelists,
// protocol metadata chunks) and every Tx-retained buffer reaches steady
// state. With 256 records and 8 uniform accesses per transaction, 2000
// warmup transactions touch every key with overwhelming probability.
const allocGateWarmup = 2000

// ycsbAllocs measures steady-state heap allocations per YCSB transaction of
// ops keys on one worker. The workload prefetches each transaction's keys
// (Tx.Prefetch) before its body.
func ycsbAllocs(t *testing.T, protocol string, ops int, readRatio float64) float64 {
	t.Helper()
	e, err := core.Open(core.Config{Protocol: protocol, Threads: 1, Partitions: 1})
	if err != nil {
		t.Fatalf("open %s: %v", protocol, err)
	}
	defer e.Close()
	wl := workload.NewYCSB(workload.YCSBConfig{
		Records: 256, OpsPerTxn: ops, ReadRatio: readRatio, MaxThreads: 1,
	})
	if err := wl.Setup(e); err != nil {
		t.Fatalf("setup: %v", err)
	}
	tx := e.NewTx(0, 7)
	for i := 0; i < allocGateWarmup; i++ {
		if err := wl.RunOne(tx); err != nil {
			t.Fatalf("warmup txn: %v", err)
		}
	}
	return mallocsPerRun(200, func() {
		if err := wl.RunOne(tx); err != nil {
			t.Fatalf("measured txn: %v", err)
		}
	})
}

// updateTxnAllocs measures steady-state heap allocations per transaction
// for a fixed 8-update transaction (every record pre-touched, so only the
// inherent per-commit cost of the protocol and log mode remains).
func updateTxnAllocs(t *testing.T, protocol string, logMode wal.Mode, streams int) float64 {
	t.Helper()
	cfg := core.Config{Protocol: protocol, Threads: 1, Partitions: 1, LogMode: logMode}
	switch {
	case streams > 1:
		cfg.WALStreams = streams
		cfg.LogDevices = make([]wal.Device, streams)
		for i := range cfg.LogDevices {
			cfg.LogDevices[i] = discardDev{}
		}
	case logMode != wal.ModeNone:
		cfg.LogDevice = discardDev{}
	}
	e, err := core.Open(cfg)
	if err != nil {
		t.Fatalf("open %s: %v", protocol, err)
	}
	defer e.Close()
	sch, err := storage.NewSchema("gate", storage.I64("v"))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.CreateTable(sch, core.IndexHash)
	if err != nil {
		t.Fatal(err)
	}
	row := sch.NewRow()
	const keys = 8
	for k := uint64(0); k < keys; k++ {
		if err := e.Load(tbl, k, row); err != nil {
			t.Fatal(err)
		}
	}
	tx := e.NewTx(0, 1)
	body := func(tx *core.Tx) error {
		for k := uint64(0); k < keys; k++ {
			r, err := tx.Update(tbl, k)
			if err != nil {
				return err
			}
			sch.SetInt64(r, 0, sch.GetInt64(r, 0)+1)
		}
		return nil
	}
	for i := 0; i < 300; i++ {
		if err := tx.Run(body); err != nil {
			t.Fatalf("warmup txn: %v", err)
		}
	}
	return mallocsPerRun(200, func() {
		if err := tx.Run(body); err != nil {
			t.Fatalf("measured txn: %v", err)
		}
	})
}

// deleteReinsertTxnAllocs measures steady-state heap allocations per
// transaction that deletes one key and re-inserts the key the transaction
// before it deleted: a key cannot come back in the transaction that deletes
// it, because it leaves the indexes only after the commit. The table has a
// secondary index, so a committed delete's index retraction and an insert's
// index entries run every transaction.
func deleteReinsertTxnAllocs(t *testing.T, protocol string) float64 {
	t.Helper()
	e, err := core.Open(core.Config{Protocol: protocol, Threads: 1, Partitions: 1})
	if err != nil {
		t.Fatalf("open %s: %v", protocol, err)
	}
	defer e.Close()
	sch, err := storage.NewSchema("gate", storage.I64("v"))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.CreateTable(sch, core.IndexHash)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddIndex(tbl, "by_v", core.IndexHash, func(s *storage.Schema, row storage.Row, pk uint64) uint64 {
		return uint64(s.GetInt64(row, 0))<<32 | pk
	}); err != nil {
		t.Fatal(err)
	}
	// Wide keys, as real ones are: formatting or boxing one allocates, so a
	// per-key allocation on these paths shows in every transaction's count.
	const base, keys = 1 << 32, 64
	row := sch.NewRow()
	for k := uint64(base); k < base+keys; k++ {
		sch.SetInt64(row, 0, int64(k))
		if err := e.Load(tbl, k, row); err != nil {
			t.Fatal(err)
		}
	}
	tx := e.NewTx(0, 1)
	gone := uint64(0) // offset of the key the last transaction deleted
	if err := tx.Run(func(tx *core.Tx) error { return tx.Delete(tbl, base+gone) }); err != nil {
		t.Fatal(err)
	}
	body := func(tx *core.Tx) error {
		if err := tx.Delete(tbl, base+(gone+1)%keys); err != nil {
			return err
		}
		sch.SetInt64(row, 0, int64(base+gone))
		return tx.Insert(tbl, base+gone, row)
	}
	step := func() {
		if err := tx.Run(body); err != nil {
			t.Fatalf("delete/re-insert txn: %v", err)
		}
		gone = (gone + 1) % keys
	}
	for i := 0; i < allocGateWarmup; i++ {
		step()
	}
	return mallocsPerRun(200, step)
}

// updateTxnAllocsPartitionWAL measures the 8-update transaction on a
// partition-affinity engine: the keys span all four partitions, so every
// commit takes the multi-stream path — quarantine gate on each op, stream
// collection, replicated AppendMulti, multi-stream durability wait.
func updateTxnAllocsPartitionWAL(t *testing.T) float64 {
	t.Helper()
	const parts = 4
	cfg := core.Config{
		Protocol: "SILO", Threads: 1, Partitions: parts,
		LogMode: wal.ModeValue, WALStreams: parts, PartitionWAL: true,
		LogDevices: make([]wal.Device, parts),
	}
	for i := range cfg.LogDevices {
		cfg.LogDevices[i] = discardDev{}
	}
	e, err := core.Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer e.Close()
	sch, err := storage.NewSchema("gate", storage.I64("v"))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.CreateTable(sch, core.IndexHash)
	if err != nil {
		t.Fatal(err)
	}
	row := sch.NewRow()
	const keys = 8
	for k := uint64(0); k < keys; k++ {
		if err := e.Load(tbl, k, row); err != nil {
			t.Fatal(err)
		}
	}
	tx := e.NewTx(0, 1)
	body := func(tx *core.Tx) error {
		for k := uint64(0); k < keys; k++ {
			r, err := tx.Update(tbl, k)
			if err != nil {
				return err
			}
			sch.SetInt64(r, 0, sch.GetInt64(r, 0)+1)
		}
		return nil
	}
	for i := 0; i < 300; i++ {
		if err := tx.Run(body); err != nil {
			t.Fatalf("warmup txn: %v", err)
		}
	}
	return mallocsPerRun(200, func() {
		if err := tx.Run(body); err != nil {
			t.Fatalf("measured txn: %v", err)
		}
	})
}

// updateTxnAllocsCheckpointed measures the 8-update transaction with the
// engine logging into a checkpoint store and a checkpointer attached: the
// background loop is alive and checkpoint generations (scan, segment
// rotation, truncation) are taken between batches. mallocsPerRun counts
// process-global mallocs, so cycles run outside the measured window — what
// the measurement sees is the fenced commit path they leave behind, which
// must cost exactly what the plain parallel-WAL path costs.
func updateTxnAllocsCheckpointed(t *testing.T) float64 {
	t.Helper()
	store := discardSegments{fault.NewMemStore(fault.StoreChaos{})}
	att, err := core.InitCheckpointLog(store, 2, wal.ModeValue)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.Open(core.Config{
		Protocol: "SILO", Threads: 1, Partitions: 1,
		LogMode: wal.ModeValue, WALStreams: 2, LogDevices: att.Devices,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sch, err := storage.NewSchema("gate", storage.I64("v"))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.CreateTable(sch, core.IndexHash)
	if err != nil {
		t.Fatal(err)
	}
	row := sch.NewRow()
	const keys = 8
	for k := uint64(0); k < keys; k++ {
		if err := e.Load(tbl, k, row); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := e.NewCheckpointer(store, 2, att.Devices)
	if err != nil {
		t.Fatal(err)
	}
	ck.Start(time.Hour) // loop alive; cycles are triggered explicitly below
	defer ck.Stop()     // LIFO: stops before the deferred engine Close
	tx := e.NewTx(0, 1)
	body := func(tx *core.Tx) error {
		for k := uint64(0); k < keys; k++ {
			r, err := tx.Update(tbl, k)
			if err != nil {
				return err
			}
			sch.SetInt64(r, 0, sch.GetInt64(r, 0)+1)
		}
		return nil
	}
	for i := 0; i < 300; i++ {
		if err := tx.Run(body); err != nil {
			t.Fatalf("warmup txn: %v", err)
		}
		if i%100 == 99 {
			if err := ck.CheckpointNow(); err != nil {
				t.Fatalf("checkpoint cycle: %v", err)
			}
		}
	}
	if cy := ck.Stats().Cycles; cy != 3 {
		t.Fatalf("expected 3 checkpoint cycles before measurement, got %d", cy)
	}
	return mallocsPerRun(200, func() {
		if err := tx.Run(body); err != nil {
			t.Fatalf("measured txn: %v", err)
		}
	})
}

// detBatchAllocs measures steady-state heap allocations per transaction for
// queue-oriented deterministic execution: plan a fixed batch of 2-update
// transactions, execute it through the DetExecutor, repeat. At steady state
// the planner scratch (queues, homes, mailboxes), the TxnPlan slate, and
// the per-partition descriptors are all reused, so the whole
// plan-execute-seal cycle must be allocation-free per transaction.
func detBatchAllocs(t *testing.T, streams int) float64 {
	t.Helper()
	const parts = 2
	cfg := core.Config{Protocol: "QSTORE", Threads: parts, Partitions: parts}
	if streams > 1 {
		cfg.LogMode = wal.ModeValue
		cfg.WALStreams = streams
		cfg.LogDevices = make([]wal.Device, streams)
		for i := range cfg.LogDevices {
			cfg.LogDevices[i] = discardDev{}
		}
	}
	e, err := core.Open(cfg)
	if err != nil {
		t.Fatalf("open QSTORE: %v", err)
	}
	defer e.Close()
	sch, err := storage.NewSchema("gate", storage.I64("v"))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.CreateTable(sch, core.IndexHash)
	if err != nil {
		t.Fatal(err)
	}
	row := sch.NewRow()
	const keys = 16
	for k := uint64(0); k < keys; k++ {
		if err := e.Load(tbl, k, row); err != nil {
			t.Fatal(err)
		}
	}
	x, err := core.NewDetExecutor(e, func(tx *core.Tx, op det.Op, mb *det.Mailbox) error {
		r, err := tx.Update(tbl, op.Key)
		if err != nil {
			return err
		}
		sch.SetInt64(r, 0, sch.GetInt64(r, 0)+1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	pl := det.NewPlanner(parts, nil)
	const batchTxns = 16
	txns := make([]det.TxnPlan, batchTxns)
	runBatch := func() {
		for i := range txns {
			txns[i].Reset()
			txns[i].Add(det.OpUpdate, 0, uint64(i*3%keys), 1)
			txns[i].Add(det.OpUpdate, 0, uint64((i*5+1)%keys), 1)
		}
		if _, err := x.ExecuteBatch(pl.PlanBatch(txns)); err != nil {
			t.Fatalf("batch: %v", err)
		}
	}
	for i := 0; i < 50; i++ {
		runBatch()
	}
	return mallocsPerRun(100, runBatch) / batchTxns
}

// TestTxnAllocBudgets is the allocation-regression gate: the steady-state
// transaction path allocates nothing, for every protocol, in every log mode
// (see EXPERIMENTS.md, "GC and allocation methodology").
//
// Every protocol installs the 8-update transaction's after-images without a
// heap allocation: SILO stores them into the record's slot of atomic words,
// MVCC into version nodes recycled from its pruner-fed freelist, the others
// in place from the Tx arena. Value logging must add nothing either: commit
// records, entry slices, encode buffers, and the group-commit batch are all
// reused.
func TestTxnAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is distorted by the race detector")
	}
	// A hair of slack absorbs one-off runtime allocations (timer wheel,
	// map growth in the scheduler) that are not per-txn costs.
	const slack = 0.1

	t.Run("ReadOnlyYCSB", func(t *testing.T) {
		for _, proto := range cc.Names() {
			got := ycsbAllocs(t, proto, 8, 1)
			if got > slack {
				t.Errorf("%s: %.2f allocs per read-only txn, want 0", proto, got)
			}
		}
	})

	// Declared-key prefetch: YCSB's 16-key, half read-modify-write
	// transactions call Tx.Prefetch on their keys before the body. It looks
	// the keys up and loads words, and allocates nothing.
	t.Run("PrefetchYCSB16", func(t *testing.T) {
		if got := ycsbAllocs(t, "SILO", 16, 0.5); got > slack {
			t.Errorf("SILO: %.2f allocs per prefetched 16-key txn, want 0", got)
		}
	})

	t.Run("Update", func(t *testing.T) {
		for _, proto := range cc.Names() {
			got := updateTxnAllocs(t, proto, wal.ModeNone, 1)
			if got > slack {
				t.Errorf("%s: %.2f allocs per 8-update txn, want 0", proto, got)
			}
		}
	})

	// Deletes and inserts: the committed delete's index retraction and the
	// insert's index entries, with a secondary index. The budgets are what
	// each protocol measured when the row was added. MVCC's 3 are its
	// version nodes and payload: its freelist is per record, and every
	// re-insert is a fresh record. The index maintenance adds none.
	t.Run("DeleteReinsert", func(t *testing.T) {
		budget := map[string]float64{"MVCC": 3}
		for _, proto := range cc.Names() {
			if got := deleteReinsertTxnAllocs(t, proto); got > budget[proto]+slack {
				t.Errorf("%s: %.2f allocs per delete/re-insert txn, want at most %.2f", proto, got, budget[proto])
			}
		}
	})

	t.Run("UpdateValueLogged", func(t *testing.T) {
		for _, proto := range []string{"SILO", "TICTOC", "NO_WAIT"} {
			got := updateTxnAllocs(t, proto, wal.ModeValue, 1)
			if got > slack {
				t.Errorf("%s+value-log: %.2f allocs per 8-update txn, want 0 (logging must add none)", proto, got)
			}
		}
	})

	// The parallel WAL's commit path — append to the worker's own stream,
	// wait on the epoch frontier — must hold the same budget as the
	// single-stream writer: the stream buffer is reused ping-pong and the
	// epoch patch happens in place.
	t.Run("UpdateStreamLogged", func(t *testing.T) {
		got := updateTxnAllocs(t, "SILO", wal.ModeValue, 4)
		if got > slack {
			t.Errorf("SILO+4-stream-log: %.2f allocs per 8-update txn, want 0 (parallel WAL must add none)", got)
		}
	})

	// Partition-affinity logging adds a quarantine gate per op, partition
	// routing over the write set, and replicated multi-stream appends — all
	// of which must ride the same pre-sized scratch (Tx.streamScratch, the
	// per-stream ping-pong buffers) and so hold the same budget.
	t.Run("UpdatePartitionLogged", func(t *testing.T) {
		got := updateTxnAllocsPartitionWAL(t)
		if got > slack {
			t.Errorf("SILO+partition-WAL: %.2f allocs per 8-update txn, want 0 (partition affinity must add none)", got)
		}
	})

	// Deterministic execution's steady state reuses the planner scratch, the
	// TxnPlan slate, and the per-partition descriptors across batches, so the
	// entire plan-execute-seal cycle — with and without the parallel WAL —
	// must be allocation-free per transaction (QSTORE installs in place from
	// the Tx arena, like the locking protocols).
	t.Run("DetBatch", func(t *testing.T) {
		if got := detBatchAllocs(t, 1); got > slack {
			t.Errorf("QSTORE det batch: %.2f allocs per txn, want 0", got)
		}
	})
	t.Run("DetBatchStreamLogged", func(t *testing.T) {
		if got := detBatchAllocs(t, 2); got > slack {
			t.Errorf("QSTORE det batch + 2-stream log: %.2f allocs per txn, want 0 (logging must add none)", got)
		}
	})

	// The checkpoint subsystem must be invisible to the commit hot path:
	// with the engine attached to a checkpoint store, the background
	// checkpointer running, and three generations already taken (so the
	// engine is on rotated segments behind the commit fence), the budget is
	// unchanged.
	t.Run("UpdateWhileCheckpointing", func(t *testing.T) {
		got := updateTxnAllocsCheckpointed(t)
		if got > slack {
			t.Errorf("SILO+checkpointer: %.2f allocs per 8-update txn, want 0 (checkpointing must add none)", got)
		}
	})
}

// TestMeasureAllocs exercises the harness-level allocation sampling used by
// next700-bench -allocs, closed loop and open: the driver has one window, so
// -rate R -allocs measures too (it used to print allocs/txn=0.00).
func TestMeasureAllocs(t *testing.T) {
	for name, opts := range map[string]RunOptions{
		"closed": {Threads: 2, TxnsPerWorker: 500, WarmupTxns: 200, Seed: 1, MeasureAllocs: true},
		"open":   {Threads: 2, OfferedRate: 5000, Duration: 200 * time.Millisecond, WarmupTxns: 200, Seed: 1, MeasureAllocs: true},
	} {
		res, err := Run(EngineConfig{Protocol: "SILO", Threads: 2},
			NewYCSB(YCSBConfig{Records: 1024, OpsPerTxn: 4, ReadRatio: 1}), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Commits == 0 {
			t.Fatalf("%s: no commits", name)
		}
		// The window itself allocates (its timer, the sampling call), so a
		// measured run never reports exactly zero.
		if res.AllocsPerTxn <= 0 || res.BytesPerTxn <= 0 {
			t.Errorf("%s: allocs/txn=%v bytes/txn=%v: the window was not measured", name, res.AllocsPerTxn, res.BytesPerTxn)
		}
		if !raceEnabled && res.AllocsPerTxn > 1.0 {
			t.Errorf("%s: read-only SILO measured %.2f allocs/txn via harness, want ~0", name, res.AllocsPerTxn)
		}
	}
}
