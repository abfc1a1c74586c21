package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"next700/internal/fault"
	"next700/internal/storage"
	"next700/internal/testutil"
	"next700/internal/wal"
)

// partEngine opens a PartitionWAL engine with parts partitions over fresh
// fault.MemDevices (returned in stream order) and a kv table of n keys.
// With the default partitioner, key k lives in partition k % parts.
func partEngine(t testing.TB, parts, n int, tweak func(cfg *Config, devs []wal.Device)) (*Engine, []*fault.MemDevice, *Table) {
	t.Helper()
	mems := make([]*fault.MemDevice, parts)
	devs := make([]wal.Device, parts)
	for i := range mems {
		mems[i] = &fault.MemDevice{}
		devs[i] = mems[i]
	}
	cfg := Config{
		Protocol:     "SILO",
		Threads:      parts,
		Partitions:   parts,
		LogMode:      wal.ModeValue,
		WALStreams:   parts,
		LogDevices:   devs,
		PartitionWAL: true,
	}
	if tweak != nil {
		tweak(&cfg, devs)
	}
	e := openEngine(t, cfg)
	tbl := kvTable(t, e, "kv", IndexHash, n)
	return e, mems, tbl
}

// partStore opens a PartitionWAL engine with parts partitions over a fresh
// fault.MemStore, a kv table of n zero rows (the pre-log state partZeroLoad
// reproduces) and the Checkpointer that owns the store's manifest.
func partStore(t testing.TB, parts, n int, tweak func(cfg *Config)) (*Engine, *fault.MemStore, *Checkpointer, *Table) {
	t.Helper()
	store := fault.NewMemStore(fault.StoreChaos{Seed: 11})
	att, err := InitCheckpointLog(store, parts, wal.ModeValue)
	if err != nil {
		t.Fatal(err)
	}
	e, tbl := partOpen(t, att, parts, n, tweak)
	ck, err := e.NewCheckpointer(store, 2, att.Devices)
	if err != nil {
		t.Fatal(err)
	}
	return e, store, ck, tbl
}

// partOpen opens a PartitionWAL engine on att with a kv table of n zero rows.
func partOpen(t testing.TB, att *LogAttachment, parts, n int, tweak func(cfg *Config)) (*Engine, *Table) {
	t.Helper()
	cfg := Config{
		Protocol:     "SILO",
		Threads:      parts,
		Partitions:   parts,
		LogMode:      wal.ModeValue,
		WALStreams:   parts,
		LogDevices:   att.Devices,
		PartitionWAL: true,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	e := openEngine(t, cfg)
	return e, kvTable(t, e, "kv", IndexHash, n)
}

// partZeroLoad is the load callback for a kv table of n zero rows: every key
// (only < 0) or partition only's keys alone.
func partZeroLoad(e *Engine, tbl *Table, parts, n, only int) func() error {
	return func() error {
		row := tbl.Schema().NewRow()
		for k := 0; k < n; k++ {
			if only >= 0 && k%parts != only {
				continue
			}
			if err := e.Load(tbl, uint64(k), row); err != nil {
				return err
			}
		}
		return nil
	}
}

// partReboot recovers a crash-surviving store whole into a fresh engine.
func partReboot(t *testing.T, s *fault.MemStore, parts, n int) (*Engine, *Table, RecoveryStats) {
	t.Helper()
	att, err := AttachCheckpointLog(s)
	if err != nil {
		t.Fatal(err)
	}
	e, tbl := partOpen(t, att, parts, 0, nil)
	rs, err := e.RecoverFromStore(s, att, partZeroLoad(e, tbl, parts, n, -1))
	if err != nil {
		t.Fatal(err)
	}
	return e, tbl, rs
}

// setKey commits value v under key k on tx, returning the commit error.
func setKey(tx *Tx, tbl *Table, k uint64, v int64) error {
	return tx.Run(func(tx *Tx) error {
		row, err := tx.Update(tbl, k)
		if err != nil {
			return err
		}
		setV(tbl, row, v)
		return nil
	})
}

func TestPartitionWALConfigValidation(t *testing.T) {
	devs := func(n int) []wal.Device {
		out := make([]wal.Device, n)
		for i := range out {
			out[i] = &fault.MemDevice{}
		}
		return out
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"single stream", Config{Partitions: 1, LogMode: wal.ModeValue, WALStreams: 1,
			LogDevices: devs(1), PartitionWAL: true}},
		{"command mode", Config{Partitions: 2, LogMode: wal.ModeCommand, WALStreams: 2,
			LogDevices: devs(2), PartitionWAL: true}},
		{"streams != partitions", Config{Partitions: 4, LogMode: wal.ModeValue, WALStreams: 2,
			LogDevices: devs(2), PartitionWAL: true}},
		{"too many partitions", Config{Partitions: 65, LogMode: wal.ModeValue, WALStreams: 65,
			LogDevices: devs(65), PartitionWAL: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Open(tc.cfg); !errors.Is(err, ErrInvalidUsage) {
				t.Fatalf("Open = %v, want ErrInvalidUsage", err)
			}
		})
	}
}

// TestPartitionQuarantineLifecycle walks the whole degradation arc on one
// engine — quarantine, gated operations, healthy-partition commits, live
// recovery, re-admission — and proves the engine sheds no goroutines along
// the way.
func TestPartitionQuarantineLifecycle(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const parts = 4
	e, _, ck, tbl := partStore(t, parts, 64, nil)

	// Seed every partition with acknowledged commits: key k := 7+k.
	tx := e.NewTx(0, 1)
	for k := uint64(0); k < 16; k++ {
		if err := setKey(tx, tbl, k, int64(7+k)); err != nil {
			t.Fatal(err)
		}
	}

	const dead = 2
	if err := e.QuarantinePartition(dead); err != nil {
		t.Fatal(err)
	}
	if got := e.QuarantinedPartitions(); got != 1<<dead {
		t.Fatalf("QuarantinedPartitions = %#x, want %#x", got, 1<<dead)
	}

	// Every operation class touching the dead partition aborts terminally
	// with ErrPartitionUnavailable; key 6 lives in partition 2.
	base := tx.Counter().PartitionAborts
	ops := map[string]func(tx *Tx) error{
		"read":   func(tx *Tx) error { _, err := tx.Read(tbl, 6); return err },
		"update": func(tx *Tx) error { _, err := tx.Update(tbl, 6); return err },
		"insert": func(tx *Tx) error { return tx.Insert(tbl, 1006, tbl.Schema().NewRow()) },
		"delete": func(tx *Tx) error { return tx.Delete(tbl, 6) },
	}
	for name, op := range ops {
		if err := tx.Run(op); !errors.Is(err, ErrPartitionUnavailable) {
			t.Fatalf("%s on quarantined partition = %v, want ErrPartitionUnavailable", name, err)
		}
	}
	if got := tx.Counter().PartitionAborts - base; got != uint64(len(ops)) {
		t.Fatalf("PartitionAborts delta = %d, want %d", got, len(ops))
	}

	// A scan over a B+ tree table crossing the dead partition is gated too.
	btbl := kvTable(t, e, "kvbt", IndexBTree, 16)
	if err := tx.Run(func(tx *Tx) error {
		return tx.Scan(btbl, 0, 15, func(uint64, storage.Row) bool { return true })
	}); !errors.Is(err, ErrPartitionUnavailable) {
		t.Fatalf("scan across quarantined partition = %v, want ErrPartitionUnavailable", err)
	}

	// Healthy partitions keep committing, and the commits are certified
	// durable (the frontier re-certified over the survivors advances).
	before := e.DurableEpoch()
	for k := uint64(0); k < 16; k++ {
		if k%parts == dead {
			continue
		}
		if err := setKey(tx, tbl, k, int64(100+k)); err != nil {
			t.Fatalf("healthy-partition commit after quarantine: %v", err)
		}
	}
	if e.DurableEpoch() < before {
		t.Fatalf("durable frontier regressed: %d -> %d", before, e.DurableEpoch())
	}

	// Live recovery: partition 2's own stream tail is the authority.
	frontier := e.PartitionFrontier(dead)
	if frontier == 0 {
		t.Fatal("PartitionFrontier = 0 for a partition with acked commits")
	}
	for _, p := range []int{-1, 4, 1 << 20} {
		if got := e.PartitionFrontier(p); got != 0 {
			t.Fatalf("PartitionFrontier(%d) = %d for an out-of-range partition, want 0", p, got)
		}
	}
	rs, err := ck.RecoverPartition(dead, partZeroLoad(e, tbl, parts, 64, dead))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Entries == 0 {
		t.Fatal("partition recovery applied no entries")
	}
	if e.QuarantinedPartitions() != 0 {
		t.Fatalf("quarantine mask %#x after recovery, want 0", e.QuarantinedPartitions())
	}

	// The acknowledged pre-quarantine values are back, and the partition
	// accepts new durable commits on its fresh segment; the keys the log
	// never touched are back from the load callback.
	for k := uint64(dead); k < 64; k += parts {
		row, err := tx.Run2(tbl, k)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if k < 16 {
			want = int64(7 + k)
		}
		if got := getV(tbl, row); got != want {
			t.Fatalf("recovered key %d = %d, want %d", k, got, want)
		}
	}
	if err := setKey(tx, tbl, dead, 999); err != nil {
		t.Fatalf("commit on readmitted partition: %v", err)
	}
	// Close before the leak check runs: openEngine's cleanup fires after
	// function-level defers.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// Run2 reads one key in its own transaction (test helper).
func (t *Tx) Run2(tbl *Table, k uint64) ([]byte, error) {
	var out []byte
	err := t.Run(func(tx *Tx) error {
		row, err := tx.Read(tbl, k)
		if err != nil {
			return err
		}
		out = append(out[:0], row...)
		return nil
	})
	return out, err
}

// TestPartitionDeviceFailureAutoQuarantine crashes one partition's device
// mid-run and proves the log quarantines exactly that partition, by the time
// the failure reaches a committer: its transactions classify
// ErrPartitionUnavailable, the others keep going.
func TestPartitionDeviceFailureAutoQuarantine(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const parts = 4
	const dead = 1
	e, _, tbl := partEngine(t, parts, 64, func(cfg *Config, devs []wal.Device) {
		devs[dead] = fault.NewDevice(&fault.MemDevice{}, fault.Plan{CrashAtByte: 200})
	})
	tx := e.NewTx(0, 2)

	// Hammer the doomed partition until the crash surfaces. The commit that
	// hits the dead device classifies as a partition outage either way: at
	// the append/wait (committed in memory, not durable) or at the gate.
	var sawUnavailable bool
	for i := 0; i < 200; i++ {
		err := setKey(tx, tbl, dead, int64(i))
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrPartitionUnavailable) {
			t.Fatalf("doomed-partition commit error = %v, want ErrPartitionUnavailable", err)
		}
		sawUnavailable = true
		break
	}
	if !sawUnavailable {
		t.Fatal("crash never surfaced")
	}
	if got := e.QuarantinedPartitions(); got != 1<<dead {
		t.Fatalf("mask = %#x when the failure returned, want %#x", got, 1<<dead)
	}

	// Terminal, not retried: one attempt, one PartitionAborts.
	before := tx.Counter().PartitionAborts
	if err := setKey(tx, tbl, dead, 1); !errors.Is(err, ErrPartitionUnavailable) {
		t.Fatalf("gated commit error = %v", err)
	}
	if got := tx.Counter().PartitionAborts - before; got != 1 {
		t.Fatalf("PartitionAborts delta = %d, want 1", got)
	}

	// Healthy partitions are oblivious.
	for k := uint64(0); k < uint64(parts); k++ {
		if k == dead {
			continue
		}
		if err := setKey(tx, tbl, k, 5); err != nil {
			t.Fatalf("healthy partition %d: %v", k, err)
		}
	}
	e.Close()
}

// TestPartitionStallEscalation stalls one device's sync forever and proves
// the log escalates the gray failure to a quarantine after QuarantineStall,
// unblocking the parked commit with the partition class.
func TestPartitionStallEscalation(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const parts = 2
	const dead = 1
	var stalled *fault.Device
	e, _, tbl := partEngine(t, parts, 16, func(cfg *Config, devs []wal.Device) {
		stalled = fault.NewDevice(&fault.MemDevice{}, fault.Plan{StallSyncAt: 1})
		devs[dead] = stalled
		cfg.QuarantineStall = 50 * time.Millisecond
	})
	// Release the stalled sync before Close so the flusher can drain.
	defer stalled.Release()

	tx := e.NewTx(0, 3)
	err := setKey(tx, tbl, dead, 42)
	if !errors.Is(err, ErrPartitionUnavailable) {
		t.Fatalf("stalled-partition commit = %v, want ErrPartitionUnavailable", err)
	}
	if got := e.QuarantinedPartitions(); got != 1<<dead {
		t.Fatalf("mask = %#x when the stall returned, want %#x", got, 1<<dead)
	}
	// The healthy partition was never frozen for long: it still commits.
	if err := setKey(tx, tbl, 0, 1); err != nil {
		t.Fatal(err)
	}
	stalled.Release()
	e.Close()
}

// TestPartitionStallEscalationMidRun is the same gray failure mid-run, with a
// healthy partition committing alongside. The log runs one flush round at a
// time, so the hung sync holds every later epoch bump back: stall escalation
// cannot key on the epoch running ahead of the claim and must time the
// device's hold on the batch. Once it escalates, the healthy partition's
// parked commit completes and it keeps committing.
func TestPartitionStallEscalationMidRun(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const parts = 2
	const dead = 1
	var stalled *fault.Device
	e, _, tbl := partEngine(t, parts, 16, func(cfg *Config, devs []wal.Device) {
		stalled = fault.NewDevice(&fault.MemDevice{}, fault.Plan{StallSyncAt: 20})
		devs[dead] = stalled
		cfg.QuarantineStall = 50 * time.Millisecond
	})
	// Release the stalled sync before Close so the flusher can drain.
	defer stalled.Release()

	// The healthy partition's committer runs until told to stop, counting the
	// commits it gets through.
	var healthy atomic.Int64
	stop := make(chan struct{})
	healthyDone := make(chan error, 1)
	go func() {
		tx := e.NewTx(0, 7)
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				healthyDone <- nil
				return
			default:
			}
			if err := setKey(tx, tbl, 0, i); err != nil {
				healthyDone <- err
				return
			}
			healthy.Add(1)
		}
	}()

	stalledDone := make(chan error, 1)
	go func() {
		tx := e.NewTx(1, 3)
		var err error
		for i := int64(0); i < 1000 && err == nil; i++ {
			err = setKey(tx, tbl, dead, i)
		}
		stalledDone <- err
	}()
	select {
	case err := <-stalledDone:
		if !errors.Is(err, ErrPartitionUnavailable) {
			t.Fatalf("stalled-partition commit = %v, want ErrPartitionUnavailable", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("the hung sync never escalated: mask %#x, %d healthy commits", e.QuarantinedPartitions(), healthy.Load())
	}
	if got := e.QuarantinedPartitions(); got != 1<<dead {
		t.Fatalf("mask = %#x when the stall returned, want %#x", got, 1<<dead)
	}
	// The healthy partition is moving again behind the hung, quarantined one.
	resumed := healthy.Load() + 20
	for deadline := time.Now().Add(5 * time.Second); healthy.Load() < resumed; {
		if time.Now().After(deadline) {
			t.Fatalf("healthy partition still parked after the quarantine: %d commits", healthy.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if err := <-healthyDone; err != nil {
		t.Fatalf("healthy partition: %v", err)
	}
	stalled.Release()
	e.Close()
}

// TestMultiPartitionCommitReplication proves a cross-partition write is
// replicated on every touched stream — each stream's replay independently
// yields its partition's slice of the transaction.
func TestMultiPartitionCommitReplication(t *testing.T) {
	const parts = 3
	e, mems, tbl := partEngine(t, parts, 16, nil)
	tx := e.NewTx(0, 4)
	if err := tx.Run(func(tx *Tx) error {
		for k := uint64(0); k < parts; k++ {
			row, err := tx.Update(tbl, k)
			if err != nil {
				return err
			}
			setV(tbl, row, int64(70+k))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < parts; p++ {
		var saw uint64
		if _, err := wal.ReplayStreams([]io.Reader{bytes.NewReader(mems[p].Bytes())}, wal.FrontierPerStream, wal.CommitOrder, func(_ int, cr *wal.CommitRecord) error {
			// Every stream carries the full record.
			if len(cr.Entries) != parts {
				t.Fatalf("stream %d record has %d entries, want %d", p, len(cr.Entries), parts)
			}
			for i := range cr.Entries {
				saw += cr.Entries[i].Key
			}
			return nil
		}); err != nil {
			t.Fatalf("stream %d replay: %v", p, err)
		}
		if saw != 0+1+2 {
			t.Fatalf("stream %d saw keys summing %d", p, saw)
		}
	}
}

// TestCheckpointDeferredWhileQuarantined proves a checkpoint cycle
// refuses to run while any partition is quarantined, and resumes after
// recovery lifts the quarantine.
func TestCheckpointDeferredWhileQuarantined(t *testing.T) {
	const parts = 2
	e, _, ck, tbl := partStore(t, parts, 8, nil)
	tx := e.NewTx(0, 7)
	for k := uint64(0); k < 8; k++ {
		if err := setKey(tx, tbl, k, int64(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.QuarantinePartition(1); err != nil {
		t.Fatal(err)
	}
	if err := ck.CheckpointNow(); !errors.Is(err, ErrCheckpointQuarantined) {
		t.Fatalf("CheckpointNow under quarantine = %v, want ErrCheckpointQuarantined", err)
	}
	// Recover partition 1 from the store, then the cycle goes through.
	if _, err := ck.RecoverPartition(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := ck.CheckpointNow(); err != nil {
		t.Fatalf("CheckpointNow after recovery: %v", err)
	}
}

// readmitArc is the history the post-readmission tests share, on 2
// partitions × 8 keys: every key committed to 1, optionally one checkpoint
// cycle, then partition 1 is quarantined, recovered live from the store and
// commits key 1 = 42 on its readmitted stream.
func readmitArc(t *testing.T, cycleFirst bool) (*Engine, *fault.MemStore, *Checkpointer, *Table, *Tx) {
	t.Helper()
	e, store, ck, tbl := partStore(t, 2, 8, nil)
	tx := e.NewTx(0, 3)
	for k := uint64(0); k < 8; k++ {
		if err := setKey(tx, tbl, k, 1); err != nil {
			t.Fatal(err)
		}
	}
	if cycleFirst {
		if err := ck.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.QuarantinePartition(1); err != nil {
		t.Fatal(err)
	}
	if _, err := ck.RecoverPartition(1, partZeroLoad(e, tbl, 2, 8, 1)); err != nil {
		t.Fatal(err)
	}
	if err := setKey(tx, tbl, 1, 42); err != nil {
		t.Fatalf("commit on the readmitted partition: %v", err)
	}
	return e, store, ck, tbl, tx
}

// TestReadmittedCommitSurvivesCrash: a commit acknowledged durable on a
// readmitted partition is there after a crash, whether or not a checkpoint
// cycle ran before the fault — the stream was readmitted on a segment the
// manifest names.
func TestReadmittedCommitSurvivesCrash(t *testing.T) {
	for _, cycleFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("cycleFirst=%v", cycleFirst), func(t *testing.T) {
			e, store, _, _, _ := readmitArc(t, cycleFirst)
			e2, tbl2, rs := partReboot(t, crash(t, e, store), 2, 8)
			if rs.CheckpointLoaded != cycleFirst {
				t.Fatalf("CheckpointLoaded = %v with cycleFirst = %v", rs.CheckpointLoaded, cycleFirst)
			}
			wantValues(t, e2, tbl2, map[uint64]int64{0: 1, 1: 42, 2: 1, 3: 1, 7: 1})
		})
	}
}

// unreadableSegmentStore is a store whose segment name fails to open with an
// I/O error, not fs.ErrNotExist: the segment exists and may hold
// acknowledged commits, but it cannot be read.
type unreadableSegmentStore struct {
	CheckpointStore
	name string
}

var errSegmentIO = errors.New("segment: input/output error")

func (s unreadableSegmentStore) OpenSegment(name string) (io.ReadCloser, error) {
	if name == s.name {
		return nil, errSegmentIO
	}
	return s.CheckpointStore.OpenSegment(name)
}

// TestRecoveryFailsOnUnreadableSegment: only a segment the store does not
// have reads as an empty stream. A segment that fails to open for any other
// reason fails the recovery — whole engine and one partition alike — rather
// than recovering without the acknowledged commits it holds.
func TestRecoveryFailsOnUnreadableSegment(t *testing.T) {
	// setup commits to every key of two partitions over a fresh store and
	// returns the name of partition 1's segment.
	setup := func(t *testing.T) (*Engine, *fault.MemStore, *LogAttachment, *Table, string) {
		store := fault.NewMemStore(fault.StoreChaos{Seed: 11})
		att, err := InitCheckpointLog(store, 2, wal.ModeValue)
		if err != nil {
			t.Fatal(err)
		}
		e, tbl := partOpen(t, att, 2, 8, nil)
		tx := e.NewTx(0, 3)
		for k := uint64(0); k < 8; k++ {
			if err := setKey(tx, tbl, k, 1); err != nil {
				t.Fatal(err)
			}
		}
		m, _, err := store.LoadManifest()
		if err != nil {
			t.Fatal(err)
		}
		for _, sg := range m.Segments {
			if sg.Stream == 1 {
				return e, store, att, tbl, sg.Name
			}
		}
		t.Fatal("manifest names no segment of stream 1")
		return nil, nil, nil, nil, ""
	}
	t.Run("RecoverFromStore", func(t *testing.T) {
		e, store, _, _, name := setup(t)
		s2 := crash(t, e, store)
		att, err := AttachCheckpointLog(s2)
		if err != nil {
			t.Fatal(err)
		}
		e2, tbl2 := partOpen(t, att, 2, 0, nil)
		_, err = e2.RecoverFromStore(unreadableSegmentStore{s2, name}, att, partZeroLoad(e2, tbl2, 2, 8, -1))
		if !errors.Is(err, errSegmentIO) {
			t.Fatalf("recovery over an unreadable segment: err = %v, want %v", err, errSegmentIO)
		}
	})
	t.Run("RecoverPartition", func(t *testing.T) {
		e, store, att, tbl, name := setup(t)
		ck, err := e.NewCheckpointer(unreadableSegmentStore{store, name}, 2, att.Devices)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.QuarantinePartition(1); err != nil {
			t.Fatal(err)
		}
		_, err = ck.RecoverPartition(1, partZeroLoad(e, tbl, 2, 8, 1))
		if !errors.Is(err, errSegmentIO) {
			t.Fatalf("partition recovery over an unreadable segment: err = %v, want %v", err, errSegmentIO)
		}
	})
}

// TestFallbackAfterPartitionRecovery: after a partition recovery and one more
// cycle, a corrupt newest slice of that partition falls back to a tail that
// still holds the window between the readmission and the rotation.
func TestFallbackAfterPartitionRecovery(t *testing.T) {
	e, store, ck, tbl, tx := readmitArc(t, true)
	if err := ck.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := setKey(tx, tbl, 0, 7); err != nil {
		t.Fatal(err)
	}
	m := ck.Manifest()
	s2 := crash(t, e, store)
	if !s2.FlipCheckpointByte(sliceName(m.Checkpoints[len(m.Checkpoints)-1].Name, 1), 40) {
		t.Fatal("no slice object to corrupt")
	}
	e2, tbl2, rs := partReboot(t, s2, 2, 8)
	if rs.CheckpointFallbacks != 1 || !rs.CheckpointLoaded {
		t.Fatalf("expected slice 1 to fall back one generation, got %+v", rs)
	}
	wantValues(t, e2, tbl2, map[uint64]int64{0: 7, 1: 42, 3: 1})
}

// TestUncertifiedRecordStaysDeadAfterPartitionRecovery plants an intact record
// on the dead stream's segment above its claim frontier — staged by a commit
// that was never certified — and demands it stay dead: not applied by the
// live recovery, and not resurrected when a later recovery falls back to a
// tail that reaches across the dead segment, because partition recovery
// sealed that segment at the frontier, not at the next rotation's boundary.
func TestUncertifiedRecordStaysDeadAfterPartitionRecovery(t *testing.T) {
	e, store, ck, tbl := partStore(t, 2, 8, nil)
	tx := e.NewTx(0, 3)
	for k := uint64(0); k < 8; k++ {
		if err := setKey(tx, tbl, k, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := setKey(tx, tbl, 3, 5); err != nil { // certified, in the tail
		t.Fatal(err)
	}
	if err := e.QuarantinePartition(1); err != nil {
		t.Fatal(err)
	}
	frontier := e.PartitionFrontier(1)
	row := tbl.Schema().NewRow()
	setV(tbl, row, 666)
	ghost := (&wal.CommitRecord{TxnID: 1 << 40, Epoch: frontier + 1, Entries: []wal.Entry{
		{Kind: wal.EntryUpdate, Table: int32(tbl.tbl.ID()), Key: 1, Data: row},
	}}).Encode(nil)
	m := ck.Manifest()
	dead := m.Segments[len(m.Segments)-1]
	if dead.Stream != 1 || dead.ToEpoch != 0 {
		t.Fatalf("last manifest segment %+v is not stream 1's active one", dead)
	}
	if _, err := ck.cur[1].Write(ghost); err != nil { // the dead stream's flusher has stopped writing
		t.Fatal(err)
	}
	if err := ck.cur[1].Sync(); err != nil {
		t.Fatal(err)
	}

	rs, err := ck.RecoverPartition(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.TruncatedRecords != 1 || rs.SealedSegments != 1 {
		t.Fatalf("live recovery truncated %d records and sealed %d segments, want 1 and 1", rs.TruncatedRecords, rs.SealedSegments)
	}
	for _, sg := range ck.Manifest().Segments {
		if sg.Name == dead.Name && sg.ToEpoch != frontier {
			t.Fatalf("dead segment sealed at %d, want the frontier %d", sg.ToEpoch, frontier)
		}
	}
	wantValues(t, e, tbl, map[uint64]int64{1: 1, 3: 5})
	// Move the log well past the ghost's epoch, then rotate: a seal at the
	// rotation boundary would cover it.
	for i := 0; i < 4; i++ {
		if err := setKey(tx, tbl, 0, int64(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	m = ck.Manifest()
	s2 := crash(t, e, store)
	if !s2.FlipCheckpointByte(sliceName(m.Checkpoints[len(m.Checkpoints)-1].Name, 1), 40) {
		t.Fatal("no slice object to corrupt")
	}
	e2, tbl2, rs2 := partReboot(t, s2, 2, 8)
	if rs2.CheckpointFallbacks != 1 {
		t.Fatalf("expected one fallback, got %+v", rs2)
	}
	wantValues(t, e2, tbl2, map[uint64]int64{0: 13, 1: 1, 3: 5})
}

// TestPartitionBaseResolution is the base-stage table for partition scope,
// S = 2, partition 1 dark: the same resolver RecoverFromStore runs, over one
// slice, with every outcome decided before the partition is touched.
func TestPartitionBaseResolution(t *testing.T) {
	const parts, keys = 2, 8
	// history commits every key to c in round c = 1..cycles, a checkpoint
	// cycle after each round, then key 3 = 99 into the tail, and quarantines
	// partition 1.
	history := func(t *testing.T, cycles int) (*Engine, *fault.MemStore, *Checkpointer, *Table, *Tx) {
		e, store, ck, tbl := partStore(t, parts, keys, nil)
		tx := e.NewTx(0, 3)
		for c := 1; c <= max(cycles, 1); c++ {
			for k := uint64(0); k < keys; k++ {
				if err := setKey(tx, tbl, k, int64(c)); err != nil {
					t.Fatal(err)
				}
			}
			if c <= cycles {
				if err := ck.CheckpointNow(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := setKey(tx, tbl, 3, 99); err != nil {
			t.Fatal(err)
		}
		if err := e.QuarantinePartition(1); err != nil {
			t.Fatal(err)
		}
		return e, store, ck, tbl, tx
	}
	corrupt := func(t *testing.T, store *fault.MemStore, ck wal.ManifestCheckpoint) {
		t.Helper()
		if !store.FlipCheckpointByte(sliceName(ck.Name, 1), 40) {
			t.Fatal("no slice object to corrupt")
		}
	}
	// untouched demands partition 1 still quarantined and not cleared.
	untouched := func(t *testing.T, e *Engine, tbl *Table) {
		t.Helper()
		if e.QuarantinedPartitions() != 1<<1 {
			t.Fatalf("quarantine mask %#x after a failed resolution, want partition 1 still dark", e.QuarantinedPartitions())
		}
		for k := uint64(1); k < keys; k += parts {
			if _, ok := tbl.primary.Lookup(k); !ok {
				t.Fatalf("key %d was cleared by a recovery that resolved nothing", k)
			}
		}
	}
	serving := map[uint64]int64{0: 1000, 2: 1000}

	t.Run("previous generation", func(t *testing.T) {
		e, store, ck, tbl, tx := history(t, 2)
		m := ck.Manifest()
		corrupt(t, store, m.Checkpoints[1])
		// Partition 0 keeps committing while partition 1 is rebuilt.
		done := make(chan error, 1)
		stop := make(chan struct{})
		go func() {
			tx0 := e.NewTx(1, 9)
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
				if err := setKey(tx0, tbl, 0, i); err != nil {
					done <- err
					return
				}
			}
		}()
		rs, err := ck.RecoverPartition(1, func() error { t.Error("load called with a loadable slice"); return nil })
		close(stop)
		if derr := <-done; derr != nil {
			t.Fatalf("healthy partition during the recovery: %v", derr)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Generation 1's slice, and the round-2 records its fence leaves in
		// the tail on top of key 3's.
		if rs.CheckpointFallbacks != 1 || !rs.CheckpointLoaded || rs.CheckpointGen != m.Checkpoints[0].Gen ||
			rs.CheckpointEpoch != m.Checkpoints[0].Epoch || rs.Records < keys/parts+1 {
			t.Fatalf("expected slice 1 of generation %d plus the longer tail, got %+v", m.Checkpoints[0].Gen, rs)
		}
		for k := range serving {
			if err := setKey(tx, tbl, k, 1000); err != nil {
				t.Fatal(err)
			}
		}
		wantValues(t, e, tbl, map[uint64]int64{0: 1000, 2: 1000, 4: 2, 1: 2, 3: 99, 5: 2, 7: 2})
	})

	t.Run("history lost", func(t *testing.T) {
		e, store, ck, tbl, tx := history(t, 3)
		m := ck.Manifest()
		if m.TruncatedThrough == 0 || len(m.Checkpoints) != 2 {
			t.Fatalf("three cycles at keep=2 should have pruned the bootstrap segments: %+v", m)
		}
		for _, c := range m.Checkpoints {
			corrupt(t, store, c)
		}
		loads := 0
		rs, err := ck.RecoverPartition(1, func() error { loads++; return nil })
		if !errors.Is(err, ErrHistoryLost) || loads != 0 || rs.CheckpointFallbacks != 2 {
			t.Fatalf("RecoverPartition = %v (%d loads, %+v), want ErrHistoryLost before anything is loaded", err, loads, rs)
		}
		untouched(t, e, tbl)
		for k, v := range serving {
			if err := setKey(tx, tbl, k, v); err != nil {
				t.Fatalf("healthy partition after the refused recovery: %v", err)
			}
		}
	})

	t.Run("initial load", func(t *testing.T) {
		e, _, ck, tbl, _ := history(t, 0)
		loads := 0
		load := partZeroLoad(e, tbl, parts, keys, 1)
		rs, err := ck.RecoverPartition(1, func() error { loads++; return load() })
		if err != nil {
			t.Fatal(err)
		}
		if loads != 1 || rs.CheckpointLoaded || rs.Records != keys/parts+1 {
			t.Fatalf("expected the initial load plus the full tail, got %d loads, %+v", loads, rs)
		}
		wantValues(t, e, tbl, map[uint64]int64{1: 1, 3: 99, 5: 1, 7: 1, 0: 1})
	})

	t.Run("foreign format", func(t *testing.T) {
		e, _, ck, tbl, _ := history(t, 1)
		ck.manifest.Checkpoints[0].Slices = 0 // an entry a whole-image build wrote
		_, err := ck.RecoverPartition(1, nil)
		if !errors.Is(err, ErrBadCheckpoint) || !errors.Is(err, errCheckpointVersion) {
			t.Fatalf("manifest entry with Slices == 0: %v, want the version error", err)
		}
		untouched(t, e, tbl)
	})

	t.Run("misuse", func(t *testing.T) {
		e, _, ck, _ := partStore(t, parts, keys, nil)
		for _, p := range []int{-1, 0, parts} { // out of range, healthy, out of range
			if _, err := ck.RecoverPartition(p, nil); !errors.Is(err, ErrInvalidUsage) {
				t.Fatalf("RecoverPartition(%d) on a healthy engine = %v, want ErrInvalidUsage", p, err)
			}
		}
		if e.QuarantinedPartitions() != 0 {
			t.Fatalf("mask %#x", e.QuarantinedPartitions())
		}
	})
}

// TestPartitionRecoveryRetractsSecondaryByRecord: live partition recovery
// retracts the partition's secondary-index entries by record, so afterwards
// a secondary lookup reaches the recovered row, not the cleared one. Under
// SILO and MVCC a committed insert never reaches the table arena, so a key
// extracted from the arena row names no entry and the stale one survived:
// the lookup then returned the pre-recovery image.
func TestPartitionRecoveryRetractsSecondaryByRecord(t *testing.T) {
	forAllProtocols(t, func(t *testing.T, protocol string) {
		const parts, n, dead = 2, 8, 1
		e, _, ck, tbl := partStore(t, parts, n, func(cfg *Config) { cfg.Protocol = protocol })
		sch := storage.MustSchema("gv", storage.I64("g"), storage.I64("v"))
		gv, err := e.CreateTable(sch, IndexHash)
		if err != nil {
			t.Fatal(err)
		}
		// by_g indexes the never-updated g column, pk folded into the low bits.
		if err := e.AddIndex(gv, "by_g", IndexHash, func(s *storage.Schema, row storage.Row, pk uint64) uint64 {
			return uint64(s.GetInt64(row, 0))<<32 | pk
		}); err != nil {
			t.Fatal(err)
		}
		setGV := func(tx *Tx, k uint64, v int64) error {
			return tx.Run(func(tx *Tx) error {
				row, err := tx.Update(gv, k)
				if err != nil {
					return err
				}
				sch.SetInt64(row, 1, v)
				return nil
			})
		}
		lookupV := func(tx *Tx, k uint64) (int64, error) {
			var v int64
			err := tx.Run(func(tx *Tx) error {
				row, err := tx.LookupIndex(gv, "by_g", (5+k)<<32|k)
				if err != nil {
					return err
				}
				v = sch.GetInt64(row, 1)
				return nil
			})
			return v, err
		}

		tx := e.NewTx(0, 1)
		keys := []uint64{1, 2, 3}
		for _, k := range keys {
			if err := tx.Run(func(tx *Tx) error {
				row := sch.NewRow()
				sch.SetInt64(row, 0, int64(5+k))
				sch.SetInt64(row, 1, 1)
				return tx.Insert(gv, k, row)
			}); err != nil {
				t.Fatal(err)
			}
			if err := setGV(tx, k, 77); err != nil {
				t.Fatal(err)
			}
		}

		if err := e.QuarantinePartition(dead); err != nil {
			t.Fatal(err)
		}
		if _, err := ck.RecoverPartition(dead, partZeroLoad(e, tbl, parts, n, dead)); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if v, err := lookupV(tx, k); err != nil || v != 77 {
				t.Fatalf("key %d (partition %d) by_g after recovery = %d, %v; want 77", k, k%parts, v, err)
			}
			if err := setGV(tx, k, 99); err != nil {
				t.Fatal(err)
			}
			if v, err := lookupV(tx, k); err != nil || v != 99 {
				t.Fatalf("key %d (partition %d) by_g after an update through the primary = %d, %v; want 99 (a stale secondary entry)",
					k, k%parts, v, err)
			}
		}
	})
}
