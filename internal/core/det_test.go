package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"next700/internal/det"
	"next700/internal/fault"
	"next700/internal/storage"
	"next700/internal/wal"
	"next700/internal/xrand"
)

// detHarness bundles a QSTORE engine, one table, and the standard exec
// function the deterministic tests share: OpUpdate adds the signed Aux
// delta, OpReadSend delivers the current value, OpRecvUpdate sets the key
// to (delivered value + Aux).
type detHarness struct {
	e   *Engine
	tbl *Table
	sch *storage.Schema
}

func newDetHarness(t *testing.T, cfg Config, keys uint64) *detHarness {
	t.Helper()
	cfg.Protocol = "QSTORE"
	e, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	sch := storage.MustSchema("det_accounts", storage.I64("v"))
	tbl, err := e.CreateTable(sch, IndexHash)
	if err != nil {
		t.Fatal(err)
	}
	row := sch.NewRow()
	for k := uint64(0); k < keys; k++ {
		sch.SetInt64(row, 0, int64(k)*10)
		if err := e.Load(tbl, k, row); err != nil {
			t.Fatal(err)
		}
	}
	return &detHarness{e: e, tbl: tbl, sch: sch}
}

func (h *detHarness) exec(tx *Tx, op det.Op, mb *det.Mailbox) error {
	switch op.Kind {
	case det.OpRead:
		row, err := tx.Read(h.tbl, op.Key)
		if err != nil {
			return err
		}
		_ = h.sch.GetInt64(row, 0)
		return nil
	case det.OpUpdate:
		row, err := tx.Update(h.tbl, op.Key)
		if err != nil {
			return err
		}
		h.sch.SetInt64(row, 0, h.sch.GetInt64(row, 0)+int64(op.Aux))
		return nil
	case det.OpReadSend:
		row, err := tx.Read(h.tbl, op.Key)
		if err != nil {
			return err
		}
		mb.Send(op.Slot, uint64(h.sch.GetInt64(row, 0)))
		return nil
	case det.OpRecvUpdate:
		if err := mb.Collect(); err != nil {
			return err
		}
		row, err := tx.Update(h.tbl, op.Key)
		if err != nil {
			return err
		}
		h.sch.SetInt64(row, 0, int64(mb.Vals[0])+int64(op.Aux))
		return nil
	default:
		return errors.New("det_test: unknown op kind")
	}
}

// value reads a key outside any transaction (the engine is quiescent).
func (h *detHarness) value(t *testing.T, key uint64) int64 {
	t.Helper()
	tx := h.e.NewTx(0, 1)
	var v int64
	if err := tx.Run(func(tx *Tx) error {
		row, err := tx.Read(h.tbl, key)
		if err != nil {
			return err
		}
		v = h.sch.GetInt64(row, 0)
		return nil
	}); err != nil {
		t.Fatalf("read key %d: %v", key, err)
	}
	return v
}

// serialModel applies batches to a map exactly as a serial priority-order
// executor would: per transaction, hoisted order (sends first, reading
// pre-transaction partition state; then the rest in declared order with
// writes visible immediately).
func serialModel(init map[uint64]int64, batches [][]det.TxnPlan) map[uint64]int64 {
	m := make(map[uint64]int64, len(init))
	for k, v := range init {
		m[k] = v
	}
	for _, batch := range batches {
		for _, tp := range batch {
			var vals []uint64
			for _, op := range tp.Ops {
				if op.Kind == det.OpReadSend {
					vals = append(vals, uint64(m[op.Key]))
				}
			}
			for _, op := range tp.Ops {
				switch op.Kind {
				case det.OpUpdate:
					m[op.Key] += int64(op.Aux)
				case det.OpRecvUpdate:
					m[op.Key] = int64(vals[0]) + int64(op.Aux)
				}
			}
		}
	}
	return m
}

// randomDetBatches generates seeded batches mixing reads, updates, and
// cross-partition copy transactions (ReadSend -> RecvUpdate).
func randomDetBatches(seed uint64, nBatches, txnsPerBatch int, keys uint64) [][]det.TxnPlan {
	rng := xrand.New(seed)
	batches := make([][]det.TxnPlan, nBatches)
	for b := range batches {
		txns := make([]det.TxnPlan, txnsPerBatch)
		for t := range txns {
			switch rng.Intn(3) {
			case 0: // plain update txn, 2 keys
				txns[t].Add(det.OpUpdate, 0, rng.Uint64n(keys), uint64(int64(rng.Intn(9)-4)))
				txns[t].Add(det.OpUpdate, 0, rng.Uint64n(keys), uint64(int64(rng.Intn(9)-4)))
			case 1: // read + update
				txns[t].Add(det.OpRead, 0, rng.Uint64n(keys), 0)
				txns[t].Add(det.OpUpdate, 0, rng.Uint64n(keys), uint64(int64(rng.Intn(9)-4)))
			default: // copy txn: dst := src + delta (declared recv-first on
				// purpose; the planner must hoist the send)
				src, dst := rng.Uint64n(keys), rng.Uint64n(keys)
				txns[t].Add(det.OpRecvUpdate, 0, dst, uint64(int64(rng.Intn(5))))
				txns[t].Add(det.OpReadSend, 0, src, 0)
			}
		}
		batches[b] = txns
	}
	return batches
}

// runDetBatches plans and executes the batches on a fresh harness with the
// given partition count, returning the harness.
func runDetBatches(t *testing.T, cfg Config, parts int, keys uint64, batches [][]det.TxnPlan) *detHarness {
	t.Helper()
	cfg.Partitions = parts
	cfg.Threads = parts
	h := newDetHarness(t, cfg, keys)
	x, err := NewDetExecutor(h.e, h.exec)
	if err != nil {
		t.Fatalf("executor: %v", err)
	}
	t.Cleanup(x.Close)
	pl := det.NewPlanner(parts, nil)
	for _, batch := range batches {
		if _, err := x.ExecuteBatch(pl.PlanBatch(batch)); err != nil {
			t.Fatalf("batch: %v", err)
		}
	}
	return h
}

func TestDetExecutorSerialEquivalence(t *testing.T) {
	const keys = 64
	batches := randomDetBatches(0xABCD, 6, 40, keys)
	init := make(map[uint64]int64, keys)
	for k := uint64(0); k < keys; k++ {
		init[k] = int64(k) * 10
	}
	want := serialModel(init, batches)

	var digests [][32]byte
	for _, parts := range []int{1, 2, 4} {
		h := runDetBatches(t, Config{}, parts, keys, batches)
		for k := uint64(0); k < keys; k++ {
			if got := h.value(t, k); got != want[k] {
				t.Fatalf("parts=%d key %d = %d, want %d (serial model)", parts, k, got, want[k])
			}
		}
		digests = append(digests, h.e.StateDigest())
		// Abort-free: the conflict-abort counter must be exactly zero.
		if c := h.e.TotalCounter(); c.Aborts != 0 {
			t.Fatalf("parts=%d: %d conflict aborts in deterministic mode", parts, c.Aborts)
		}
	}
	for i := 1; i < len(digests); i++ {
		if !bytes.Equal(digests[0][:], digests[i][:]) {
			t.Fatalf("digest differs across partition counts: %x vs %x", digests[0], digests[i])
		}
	}
}

func TestDetExecutorCommitAccounting(t *testing.T) {
	const keys = 16
	batches := randomDetBatches(7, 4, 25, keys)
	h := runDetBatches(t, Config{}, 2, keys, batches)
	c := h.e.TotalCounter()
	if want := uint64(4 * 25); c.Commits != want {
		t.Fatalf("commits = %d, want %d", c.Commits, want)
	}
	if c.Aborts != 0 || c.FatalAborts != 0 || c.Waits != 0 {
		t.Fatalf("unexpected aborts/waits: %+v", c)
	}
}

func TestDetExecutorCrossPartitionDelivery(t *testing.T) {
	// Chain of copies across partitions in one batch: each txn copies the
	// previous target forward, so every delivery must observe the value the
	// serial order establishes, across partitions.
	const keys = 8
	const parts = 4
	var batch []det.TxnPlan
	for i := 0; i < 6; i++ {
		var tp det.TxnPlan
		src := uint64(i % keys)
		dst := uint64((i + 1) % keys)
		tp.Add(det.OpRecvUpdate, 0, dst, 1)
		tp.Add(det.OpReadSend, 0, src, 0)
		batch = append(batch, tp)
	}
	batches := [][]det.TxnPlan{batch}
	init := make(map[uint64]int64, keys)
	for k := uint64(0); k < keys; k++ {
		init[k] = int64(k) * 10
	}
	want := serialModel(init, batches)
	h := runDetBatches(t, Config{}, parts, keys, batches)
	for k := uint64(0); k < keys; k++ {
		if got := h.value(t, k); got != want[k] {
			t.Fatalf("key %d = %d, want %d", k, got, want[k])
		}
	}
}

// TestDetExecutorBatchPerEpochWAL: at every stream count — one stream is the
// same log — each batch seals exactly one epoch, and replaying the synced
// streams into a fresh engine reproduces the live digest. The rows with a
// sync or per-byte write latency give the log a gather budget to spend: the
// seal is a lone waiter, so it must still cost one bump and no more.
func TestDetExecutorBatchPerEpochWAL(t *testing.T) {
	const parts = 2
	const keys = 32
	for _, tc := range []struct {
		streams     int
		sync, write time.Duration
	}{
		{1, 0, 0}, {parts, 0, 0},
		{1, 100 * time.Microsecond, 0}, {parts, 100 * time.Microsecond, 0},
		{1, 0, time.Microsecond}, {parts, 0, time.Microsecond},
	} {
		streams := tc.streams
		t.Run(fmt.Sprintf("streams=%d/sync=%s/write=%s", streams, tc.sync, tc.write), func(t *testing.T) {
			mems := make([]*fault.MemDevice, streams)
			devs := make([]wal.Device, streams)
			sinks := make([]wal.Device, streams)
			for i := range mems {
				mems[i] = &fault.MemDevice{}
				devs[i], sinks[i] = mems[i], &fault.MemDevice{}
				if tc.sync > 0 || tc.write > 0 {
					devs[i] = fault.NewDevice(mems[i], fault.Plan{SyncLatency: tc.sync, WriteByteLatency: tc.write})
				}
			}
			cfg := Config{LogMode: wal.ModeValue, LogDevices: devs}
			batches := randomDetBatches(99, 5, 20, keys)
			h := runDetBatches(t, cfg, parts, keys, batches)

			// Batch <-> epoch 1:1: five batches sealed five epochs.
			if got := h.e.DurableEpoch(); got != 5 {
				t.Fatalf("durable epoch = %d, want 5 (one per batch)", got)
			}

			ref := h.e.StateDigest()
			e2, err := Open(Config{Protocol: "QSTORE", Threads: parts, Partitions: parts,
				LogMode: wal.ModeValue, LogDevices: sinks})
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			sch := storage.MustSchema("det_accounts", storage.I64("v"))
			tbl, err := e2.CreateTable(sch, IndexHash)
			if err != nil {
				t.Fatal(err)
			}
			row := sch.NewRow()
			for k := uint64(0); k < keys; k++ {
				sch.SetInt64(row, 0, int64(k)*10)
				if err := e2.Load(tbl, k, row); err != nil {
					t.Fatal(err)
				}
			}
			readers := make([]io.Reader, streams)
			for i, m := range mems {
				readers[i] = bytes.NewReader(m.SyncedBytes())
			}
			rs, err := e2.RecoverStreams(readers)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if rs.FrontierEpoch != 5 || rs.TruncatedRecords != 0 {
				t.Fatalf("replay frontier %d truncated %d, want 5 and 0", rs.FrontierEpoch, rs.TruncatedRecords)
			}
			got := e2.StateDigest()
			if !bytes.Equal(ref[:], got[:]) {
				t.Fatalf("recovered digest %x != live digest %x", got, ref)
			}
		})
	}
}

func TestDetExecutorConfigValidation(t *testing.T) {
	// Wrong protocol.
	e, err := Open(Config{Protocol: "SILO", Threads: 2, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := NewDetExecutor(e, func(*Tx, det.Op, *det.Mailbox) error { return nil }); !errors.Is(err, ErrInvalidUsage) {
		t.Fatalf("SILO engine accepted: %v", err)
	}
	// Command logging cannot express fragments.
	e3, err := Open(Config{Protocol: "QSTORE", Threads: 1, Partitions: 1,
		LogMode: wal.ModeCommand, LogDevice: &fault.MemDevice{}})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if _, err := NewDetExecutor(e3, func(*Tx, det.Op, *det.Mailbox) error { return nil }); !errors.Is(err, ErrInvalidUsage) {
		t.Fatalf("command logging accepted: %v", err)
	}
	// A partition-sharded log recovers partitions to different frontiers,
	// which splits batches across a crash.
	e4, err := Open(Config{Protocol: "QSTORE", Threads: 2, Partitions: 2, LogMode: wal.ModeValue,
		WALStreams: 2, LogDevices: []wal.Device{&fault.MemDevice{}, &fault.MemDevice{}}, PartitionWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e4.Close()
	if _, err := NewDetExecutor(e4, func(*Tx, det.Op, *det.Mailbox) error { return nil }); !errors.Is(err, ErrInvalidUsage) {
		t.Fatalf("PartitionWAL accepted: %v", err)
	}
}

// BenchmarkDetExecuteBatch times DetExecutor.ExecuteBatch alone, one batch
// per op, on the ledger's det_batch shape: QSTORE, 262 144 rows × 108 B,
// 256-transaction batches of 16 distinct Zipfian (θ = 0.9) keys, half read
// and half read-modify-write, 2 partitions, no log. Planning runs with the
// timer stopped, so ns/op is the executor's time per batch, the layer
// number the ledger reports as core.det_execute_us_per_batch.
//
//	go test ./internal/core -run '^$' -bench DetExecuteBatch -cpu 2
func BenchmarkDetExecuteBatch(b *testing.B) {
	const (
		rows      = 262144
		batchTxns = 256
		opsPerTxn = 16
		parts     = 2
		batches   = 32 // distinct batches, replayed in turn
	)
	e := openEngine(b, Config{Protocol: "QSTORE", Threads: parts, Partitions: parts})
	sch := storage.MustSchema("bench", storage.I64("v"), storage.Str("field", 100))
	tbl, err := e.CreateTable(sch, IndexHash)
	if err != nil {
		b.Fatal(err)
	}
	row := sch.NewRow()
	for k := uint64(0); k < rows; k++ {
		if err := e.Load(tbl, k, row); err != nil {
			b.Fatal(err)
		}
	}
	x, err := NewDetExecutor(e, func(tx *Tx, op det.Op, _ *det.Mailbox) error {
		if op.Kind == det.OpRead {
			_, err := tx.Read(tbl, op.Key)
			return err
		}
		row, err := tx.Update(tbl, op.Key)
		if err != nil {
			return err
		}
		sch.SetInt64(row, 0, sch.GetInt64(row, 0)+int64(op.Aux))
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	defer x.Close()
	rng := xrand.New(7)
	zipf := xrand.NewZipf(rng, rows, 0.9)
	plans := make([][]det.TxnPlan, batches)
	for i := range plans {
		plans[i] = make([]det.TxnPlan, batchTxns)
		for t := range plans[i] {
			tp := &plans[i][t]
			for len(tp.Ops) < opsPerTxn {
				key, dup := zipf.Next(), false
				for _, op := range tp.Ops {
					dup = dup || op.Key == key
				}
				switch {
				case dup:
				case rng.Bool(0.5):
					tp.Add(det.OpRead, 0, key, 0)
				default:
					tp.Add(det.OpUpdate, 0, key, 1)
				}
			}
		}
	}
	pl := det.NewPlanner(parts, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		plan := pl.PlanBatch(plans[i%batches])
		b.StartTimer()
		if _, err := x.ExecuteBatch(plan); err != nil {
			b.Fatal(err)
		}
	}
}
