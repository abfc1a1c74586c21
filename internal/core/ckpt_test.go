package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// flakyStore fails the store operations a test arms, once each.
type flakyStore struct {
	CheckpointStore
	failRemoveSegment bool   // fail the next RemoveSegment
	failSaveIn        int    // fail the n-th SaveManifest from now (0: none)
	beforeSave        func() // called before each SaveManifest
	afterCheckpoint   func() // called after each successful WriteCheckpoint
}

var errInjected = errors.New("injected store fault")

func (s *flakyStore) WriteCheckpoint(name string, write func(w io.Writer) error) error {
	err := s.CheckpointStore.WriteCheckpoint(name, write)
	if err == nil && s.afterCheckpoint != nil {
		s.afterCheckpoint()
	}
	return err
}

func (s *flakyStore) RemoveSegment(name string) error {
	if s.failRemoveSegment {
		s.failRemoveSegment = false
		return errInjected
	}
	return s.CheckpointStore.RemoveSegment(name)
}

func (s *flakyStore) SaveManifest(m wal.Manifest) error {
	if s.beforeSave != nil {
		s.beforeSave()
	}
	if s.failSaveIn > 0 {
		if s.failSaveIn--; s.failSaveIn == 0 {
			return errInjected
		}
	}
	return s.CheckpointStore.SaveManifest(m)
}

// TestCheckpointerSurvivesPostRotationFailure fails a cycle after its
// rotation succeeded — a pruned segment that will not go away, the M2 save —
// and demands the checkpointer carry on: the generation number is spent, so
// the next cycle must not re-create the segments the engine is appending to.
// A commit acknowledged while that next cycle runs, after its scan, lives
// only in those segments; the store is file-backed so that re-creating one
// truncates it for real.
func TestCheckpointerSurvivesPostRotationFailure(t *testing.T) {
	for name, arm := range map[string]func(s *flakyStore){
		"RemoveSegment":   func(s *flakyStore) { s.failRemoveSegment = true },
		"SaveManifest M2": func(s *flakyStore) { s.failSaveIn = 2 },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			e, dstore, att, tbl := ckptEngine(t, dir, "SILO", wal.ModeValue, true)
			store := &flakyStore{CheckpointStore: dstore}
			ck, err := e.NewCheckpointer(store, 1, att.Devices)
			if err != nil {
				t.Fatal(err)
			}
			tx := e.NewTx(0, 3)
			setAll := func(v int64) {
				t.Helper()
				for k := uint64(0); k < ckptTestKeys; k++ {
					if err := setKey(tx, tbl, k, v); err != nil {
						t.Fatal(err)
					}
				}
			}
			setAll(1)
			if err := ck.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			setAll(2)
			arm(store) // keep=1: this cycle prunes generation 1 and the bootstrap segments
			if err := ck.CheckpointNow(); !errors.Is(err, errInjected) {
				t.Fatalf("armed cycle = %v, want the injected fault", err)
			}
			setAll(3)
			// One more commit lands between the next cycle's scan and its
			// rotation: too late for the image, acknowledged into the
			// segments the failed cycle rotated onto.
			store.afterCheckpoint = func() {
				store.afterCheckpoint = nil
				if err := setKey(e.NewTx(1, 4), tbl, 7, 77); err != nil {
					t.Error(err)
				}
			}
			if err := ck.CheckpointNow(); err != nil {
				t.Fatalf("cycle after a post-rotation failure: %v", err)
			}
			if err := setKey(tx, tbl, 5, 4); err != nil {
				t.Fatal(err)
			}
			if st := ck.Stats(); st.Cycles != 2 || st.Failures != 1 {
				t.Fatalf("checkpointer stats %+v, want 2 cycles and 1 failure", st)
			}
			if err := e.Close(); err != nil { // crash
				t.Fatal(err)
			}

			e2, store2, att2, tbl2 := ckptEngine(t, dir, "SILO", wal.ModeValue, false)
			if _, err := e2.RecoverFromStore(store2, att2, nil); err != nil {
				t.Fatal(err)
			}
			verifyValues(t, e2, tbl2, func(k uint64) int64 {
				switch k {
				case 5:
					return 4
				case 7:
					return 77
				}
				return 3
			})
		})
	}
}

// TestCheckpointerSurvivesPartialRotation kills one partition's stream
// inside a cycle, between M1 and the rotation: the rotation fails with the
// healthy stream already moved onto its new segment. After the partition is
// recovered the next cycle must take a fresh generation number, not re-create
// that segment.
func TestCheckpointerSurvivesPartialRotation(t *testing.T) {
	const parts, keys = 2, 16
	mem := fault.NewMemStore(fault.StoreChaos{Seed: 6})
	store := &flakyStore{CheckpointStore: mem}
	e, att := sliceEngine(t, store, "SILO", parts, true)
	tbl := kvTable(t, e, "kv", IndexHash, keys)
	ck, err := e.NewCheckpointer(store, 2, att.Devices)
	if err != nil {
		t.Fatal(err)
	}
	tx := e.NewTx(0, 3)
	for k := uint64(0); k < keys; k++ {
		if err := setKey(tx, tbl, k, 1); err != nil {
			t.Fatal(err)
		}
	}
	store.beforeSave = func() {
		store.beforeSave = nil
		if err := e.QuarantinePartition(1); err != nil {
			t.Error(err)
		}
	}
	if err := ck.CheckpointNow(); !errors.Is(err, wal.ErrStreamFailed) {
		t.Fatalf("cycle with a stream dying before rotation = %v, want a stream failure", err)
	}
	for k := uint64(0); k < keys; k += parts { // partition 0 keeps committing
		if err := setKey(tx, tbl, k, 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ck.RecoverPartition(1, nil); err != nil {
		t.Fatal(err)
	}
	// Key 0 commits after its slice was scanned: acknowledged into the
	// segment partition 0 moved onto in the failed rotation, and nowhere else.
	store.afterCheckpoint = func() {
		store.afterCheckpoint = nil
		if err := setKey(e.NewTx(1, 4), tbl, 0, 99); err != nil {
			t.Error(err)
		}
	}
	if err := ck.CheckpointNow(); err != nil {
		t.Fatalf("cycle after the partition came back: %v", err)
	}
	if m := ck.Manifest(); m.Checkpoints[len(m.Checkpoints)-1].Gen != 3 {
		t.Fatalf("generation after a failed rotation = %+v, want 3 (the rotation spent 1, the partition's fresh segment 2)", m.Checkpoints)
	}
	for k := uint64(1); k < keys; k++ {
		if err := setKey(tx, tbl, k, int64(10+k)); err != nil {
			t.Fatal(err)
		}
	}
	s2 := crash(t, e, mem)

	e2, att2 := sliceEngine(t, s2, "SILO", parts, false)
	tbl2 := kvTable(t, e2, "kv", IndexHash, 0)
	if _, err := e2.RecoverFromStore(s2, att2, nil); err != nil {
		t.Fatal(err)
	}
	want := map[uint64]int64{0: 99}
	for k := uint64(1); k < keys; k++ {
		want[k] = int64(10 + k)
	}
	wantValues(t, e2, tbl2, want)
}

// TestDirStoreSyncsDir: every create, rename and remove DirStore makes is
// followed by a sync of its directory before the call returns — the
// CheckpointStore contract that a mutation is durable on return. The
// recorder lists the directory at each sync; the last listing a call
// produced must be the directory as the call left it.
func TestDirStoreSyncsDir(t *testing.T) {
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var last string
	syncs := 0
	s.syncDir = func(d string) error {
		ents, err := os.ReadDir(d)
		if err != nil {
			return err
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		last, syncs = fmt.Sprint(names), syncs+1
		return wal.SyncDir(d)
	}
	for _, op := range []struct {
		name string
		do   func() error
		want string
	}{
		{"WriteCheckpoint", func() error {
			return s.WriteCheckpoint("ckpt", func(w io.Writer) error { _, err := w.Write([]byte("image")); return err })
		}, "[ckpt]"},
		{"CreateSegment", func() error {
			dev, err := s.CreateSegment("seg")
			if err == nil {
				err = dev.(io.Closer).Close()
			}
			return err
		}, "[ckpt seg]"},
		{"RemoveCheckpoint", func() error { return s.RemoveCheckpoint("ckpt") }, "[seg]"},
		{"RemoveSegment", func() error { return s.RemoveSegment("seg") }, "[]"},
	} {
		last, syncs = "", 0
		if err := op.do(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if syncs == 0 || last != op.want {
			t.Errorf("%s: %d directory syncs, the last saw %s; want the directory as left, %s", op.name, syncs, last, op.want)
		}
	}
}
