package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"next700/internal/fault"
	"next700/internal/testutil"
	"next700/internal/wal"
)

// The chaos store must satisfy the engine's store contract structurally
// (fault cannot import core).
var _ CheckpointStore = (*fault.MemStore)(nil)

const ckptTestKeys = 64

// ckptEngine opens an engine on a fresh two-stream attachment over dir.
func ckptEngine(t *testing.T, dir, protocol string, mode wal.Mode, fresh bool) (*Engine, *DirStore, *LogAttachment, *Table) {
	t.Helper()
	return ckptEngineN(t, dir, protocol, mode, 2, fresh)
}

// ckptEngineN is ckptEngine with the stream count a fresh store is
// bootstrapped with (an attach reads it from the manifest).
func ckptEngineN(t *testing.T, dir, protocol string, mode wal.Mode, streams int, fresh bool) (*Engine, *DirStore, *LogAttachment, *Table) {
	t.Helper()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var att *LogAttachment
	if fresh {
		att, err = InitCheckpointLog(store, streams, mode)
	} else {
		att, err = AttachCheckpointLog(store)
	}
	if err != nil {
		t.Fatal(err)
	}
	e := openEngine(t, Config{
		Protocol:   protocol,
		Threads:    2,
		LogMode:    mode,
		LogDevices: att.Devices,
	})
	n := ckptTestKeys
	if !fresh {
		n = 0 // restored below by recovery (or its load callback)
	}
	tbl := kvTable(t, e, "kv", IndexHash, n)
	return e, store, att, tbl
}

// verifyValues checks every key holds want(key).
func verifyValues(t *testing.T, e *Engine, tbl *Table, want func(k uint64) int64) {
	t.Helper()
	tx := e.NewTx(0, 99)
	if err := tx.Run(func(tx *Tx) error {
		for k := uint64(0); k < ckptTestKeys; k++ {
			row, err := tx.Read(tbl, k)
			if err != nil {
				return err
			}
			if got := getV(tbl, row); got != want(k) {
				t.Fatalf("key %d = %d, want %d", k, got, want(k))
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointerOnlineCycleRecover drives concurrent writers through two
// online checkpoint cycles, crashes (closes) the engine, and verifies
// bounded recovery — newest checkpoint plus log tail — reproduces the
// exact final state for every value-logged protocol, on a one-stream log
// and on a four-stream one (two of whose streams no worker ever appends to).
func TestCheckpointerOnlineCycleRecover(t *testing.T) {
	for _, protocol := range []string{"SILO", "MVCC", "NO_WAIT"} {
		for _, streams := range []int{1, 4} {
			protocol, streams := protocol, streams
			t.Run(fmt.Sprintf("%s/streams=%d", protocol, streams), func(t *testing.T) {
				onlineCycleRecover(t, protocol, streams)
			})
		}
	}
}

func onlineCycleRecover(t *testing.T, protocol string, streams int) {
	dir := t.TempDir()
	e, store, att, tbl := ckptEngineN(t, dir, protocol, wal.ModeValue, streams, true)
	ck, err := e.NewCheckpointer(store, 2, att.Devices)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 40
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx := e.NewTx(w, uint64(w+1))
			for r := 1; r <= rounds; r++ {
				for k := uint64(w); k < ckptTestKeys; k += 2 {
					if err := tx.Run(func(tx *Tx) error {
						row, err := tx.Update(tbl, k)
						if err != nil {
							return err
						}
						setV(tbl, row, int64(r)*1000+int64(k))
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
				}
				if r == rounds/3 || r == 2*rounds/3 {
					// Mid-traffic checkpoints: the scan races these
					// writers and must be healed by the tail.
					if err := ck.CheckpointNow(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if st := ck.Stats(); st.Cycles != 4 || st.Failures != 0 {
		t.Fatalf("checkpointer stats %+v", st)
	}
	if err := e.Close(); err != nil { // crash: no final checkpoint
		t.Fatal(err)
	}

	e2, store2, att2, tbl2 := ckptEngineN(t, dir, protocol, wal.ModeValue, streams, false)
	rs, err := e2.RecoverFromStore(store2, att2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.CheckpointLoaded || rs.Streams != streams {
		t.Fatalf("recovery ignored the checkpoint or a stream: %+v", rs)
	}
	if rs.CheckpointFallbacks != 0 || rs.ManifestFallback {
		t.Fatalf("unexpected fallbacks: %+v", rs)
	}
	verifyValues(t, e2, tbl2, func(k uint64) int64 { return rounds*1000 + int64(k) })
}

// ckptAddProc registers the command-logged increment procedure.
func ckptAddProc(t *testing.T, e *Engine, tbl *Table) {
	t.Helper()
	if err := e.RegisterProc(7, func(tx *Tx, params []byte) error {
		k := binary.LittleEndian.Uint64(params)
		d := int64(binary.LittleEndian.Uint64(params[8:]))
		row, err := tx.Update(tbl, k)
		if err != nil {
			return err
		}
		setV(tbl, row, getV(tbl, row)+d)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointerCommandCycleRecover exercises the quiesced checkpoint
// path: command logging re-executes the tail, so the capture pauses the
// engine and the checkpoint epoch is the rotation boundary.
func TestCheckpointerCommandCycleRecover(t *testing.T) {
	dir := t.TempDir()
	e, store, att, tbl := ckptEngine(t, dir, "SILO", wal.ModeCommand, true)
	ckptAddProc(t, e, tbl)
	ck, err := e.NewCheckpointer(store, 2, att.Devices)
	if err != nil {
		t.Fatal(err)
	}

	add := func(tx *Tx, k uint64, d int64) {
		t.Helper()
		var params [16]byte
		binary.LittleEndian.PutUint64(params[:], k)
		binary.LittleEndian.PutUint64(params[8:], uint64(d))
		if err := tx.RunProc(7, params[:]); err != nil {
			t.Fatal(err)
		}
	}
	tx := e.NewTx(0, 3)
	for k := uint64(0); k < ckptTestKeys; k++ {
		add(tx, k, 10)
	}
	if err := ck.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < ckptTestKeys; k++ {
		add(tx, k, 5) // the tail to re-execute
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, store2, att2, tbl2 := ckptEngine(t, dir, "SILO", wal.ModeCommand, false)
	ckptAddProc(t, e2, tbl2)
	rs, err := e2.RecoverFromStore(store2, att2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.CheckpointLoaded || rs.Procs == 0 {
		t.Fatalf("expected checkpoint + re-executed tail, got %+v", rs)
	}
	verifyValues(t, e2, tbl2, func(uint64) int64 { return 15 })

	// The tail was not re-logged: a second recovery from the same store
	// must not double-apply it.
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	e3, store3, att3, tbl3 := ckptEngine(t, dir, "SILO", wal.ModeCommand, false)
	ckptAddProc(t, e3, tbl3)
	if _, err := e3.RecoverFromStore(store3, att3, nil); err != nil {
		t.Fatal(err)
	}
	verifyValues(t, e3, tbl3, func(uint64) int64 { return 15 })
}

// TestCheckpointCorruptFallsBack flips a byte in the newest checkpoint
// generation: recovery must fall back to the previous generation and still
// reach the exact final state through the longer tail.
func TestCheckpointCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	e, store, att, tbl := ckptEngine(t, dir, "SILO", wal.ModeValue, true)
	ck, err := e.NewCheckpointer(store, 2, att.Devices)
	if err != nil {
		t.Fatal(err)
	}
	tx := e.NewTx(0, 3)
	set := func(k uint64, v int64) {
		t.Helper()
		if err := tx.Run(func(tx *Tx) error {
			row, err := tx.Update(tbl, k)
			if err != nil {
				return err
			}
			setV(tbl, row, v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < ckptTestKeys; k++ {
		set(k, 1)
	}
	if err := ck.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < ckptTestKeys; k++ {
		set(k, 2)
	}
	if err := ck.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	set(5, 3)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest generation's image on disk.
	m, _, err := store.LoadManifest()
	if err != nil {
		t.Fatal(err)
	}
	newest := m.Checkpoints[len(m.Checkpoints)-1]
	path := filepath.Join(dir, newest.Name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	e2, store2, att2, tbl2 := ckptEngine(t, dir, "SILO", wal.ModeValue, false)
	rs, err := e2.RecoverFromStore(store2, att2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.CheckpointFallbacks != 1 || !rs.CheckpointLoaded {
		t.Fatalf("expected one generation fallback, got %+v", rs)
	}
	if rs.CheckpointGen == newest.Gen {
		t.Fatal("recovery used the corrupt generation")
	}
	verifyValues(t, e2, tbl2, func(k uint64) int64 {
		if k == 5 {
			return 3
		}
		return 2
	})
}

// TestCheckpointRetentionBoundsWAL runs repeated cycles with traffic and
// verifies truncation keeps the store bounded: old generations and their
// fully covered sealed segments are physically removed — at one stream as
// at four.
func TestCheckpointRetentionBoundsWAL(t *testing.T) {
	for _, streams := range []int{1, 4} {
		streams := streams
		t.Run(fmt.Sprintf("streams=%d", streams), func(t *testing.T) { retentionBoundsWAL(t, streams) })
	}
}

func retentionBoundsWAL(t *testing.T, streams int) {
	dir := t.TempDir()
	e, store, att, tbl := ckptEngineN(t, dir, "SILO", wal.ModeValue, streams, true)
	const keep = 2
	ck, err := e.NewCheckpointer(store, keep, att.Devices)
	if err != nil {
		t.Fatal(err)
	}
	tx := e.NewTx(0, 3)
	const cycles = 5
	for c := 1; c <= cycles; c++ {
		for k := uint64(0); k < ckptTestKeys; k++ {
			if err := tx.Run(func(tx *Tx) error {
				row, err := tx.Update(tbl, k)
				if err != nil {
					return err
				}
				setV(tbl, row, int64(c))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := ck.CheckpointNow(); err != nil {
			t.Fatal(err)
		}
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ckpts, segs int
	for _, en := range ents {
		switch {
		case strings.HasPrefix(en.Name(), "ckpt-"):
			ckpts++
		case strings.HasPrefix(en.Name(), "seg-"):
			segs++
		}
	}
	if ckpts != keep {
		t.Fatalf("retained %d checkpoint files, want %d", ckpts, keep)
	}
	// Per stream: the active segment plus at most the sealed tail segments
	// the retained generations still need (one per kept generation, plus
	// the pre-history segment of the oldest kept checkpoint).
	maxSegs := att.Streams() * (keep + 2)
	if segs > maxSegs {
		t.Fatalf("WAL not bounded: %d segment files on disk, want <= %d", segs, maxSegs)
	}
	// Generation-0 segments must be gone after this many cycles.
	for i := 0; i < att.Streams(); i++ {
		if _, err := os.Stat(filepath.Join(dir, segmentName(0, i))); !os.IsNotExist(err) {
			t.Fatalf("bootstrap segment %d survived truncation", i)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointerStartStopNoLeak covers the background loop's lifecycle:
// clean shutdown leaves no goroutine behind, double Start is a no-op, and
// Stop without Start is safe.
func TestCheckpointerStartStopNoLeak(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	dir := t.TempDir()
	e, store, att, tbl := ckptEngine(t, dir, "SILO", wal.ModeValue, true)
	ck, err := e.NewCheckpointer(store, 2, att.Devices)
	if err != nil {
		t.Fatal(err)
	}
	ck.Stop() // never started: no-op

	tx := e.NewTx(0, 3)
	if err := tx.Run(func(tx *Tx) error {
		row, err := tx.Update(tbl, 1)
		if err != nil {
			return err
		}
		setV(tbl, row, 42)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ck.Start(time.Millisecond)
	ck.Start(time.Millisecond) // double start: no second loop
	deadline := time.Now().Add(5 * time.Second)
	for ck.Stats().Cycles == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ck.Stop()
	ck.Stop() // idempotent
	if ck.Stats().Cycles == 0 {
		t.Fatal("background loop never completed a cycle")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointerClosedEngineFailsCleanly verifies a cycle against a
// closed (poisoned) WAL fails without installing a generation and without
// wedging Stop.
func TestCheckpointerClosedEngineFailsCleanly(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	dir := t.TempDir()
	e, store, att, _ := ckptEngine(t, dir, "SILO", wal.ModeValue, true)
	ck, err := e.NewCheckpointer(store, 2, att.Devices)
	if err != nil {
		t.Fatal(err)
	}
	ck.Start(time.Millisecond)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ck.Stats().Failures == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ck.Stop()
	st := ck.Stats()
	if st.Failures == 0 || st.LastErr == nil {
		t.Fatalf("cycle against closed WAL should fail cleanly: %+v", st)
	}
	if st.Cycles != 0 {
		t.Fatalf("no generation should have installed: %+v", st)
	}
}
