package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync/atomic"
	"testing"

	"next700/internal/cc"
	"next700/internal/fault"
	"next700/internal/storage"
	"next700/internal/txn"
	"next700/internal/wal"
)

// sliceModes are the two slice counts a checkpoint generation can have: one
// slice over a thread-affinity log (parts 0: a two-stream log, S = 1) and one
// per partition over a partition-sharded one (S = parts). Every test in this
// file runs over both — there is one image format and one resolver, so there
// is one set of tests.
var sliceModes = []struct {
	name  string
	parts int
}{{"S=1", 0}, {"S=4", 4}}

// sliceEngine bootstraps (fresh) or re-attaches store and opens an engine on
// the attachment in the given slice mode. The caller creates the schema.
func sliceEngine(t testing.TB, store CheckpointStore, protocol string, parts int, fresh bool) (*Engine, *LogAttachment) {
	t.Helper()
	streams := 2
	if parts > 0 {
		streams = parts
	}
	var att *LogAttachment
	var err error
	if fresh {
		att, err = InitCheckpointLog(store, streams, wal.ModeValue)
	} else {
		att, err = AttachCheckpointLog(store)
	}
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Protocol: protocol, Threads: 2, LogMode: wal.ModeValue, LogDevices: att.Devices}
	if parts > 0 {
		cfg.Threads, cfg.Partitions, cfg.WALStreams, cfg.PartitionWAL = parts, parts, parts, true
	}
	return openEngine(t, cfg), att
}

// loadSlice restores slice part of slices from r and returns its fence: the
// parse-then-apply recovery's base stage runs per slice, over one reader. The
// object is validated in full before anything is applied, so a bad slice
// either loads completely or leaves the engine untouched.
func (e *Engine) loadSlice(r io.Reader, part, slices int) (uint64, error) {
	plan, fence, err := e.readSlice(r, part, slices, false)
	if err != nil {
		return 0, err
	}
	e.applyCheckpointPlan(plan)
	return fence, nil
}

// checkpointNow takes one generation through a fresh Checkpointer and returns
// the manifest it leaves.
func checkpointNow(t testing.TB, e *Engine, store CheckpointStore, att *LogAttachment, keep int) (*Checkpointer, wal.Manifest) {
	t.Helper()
	ck, err := e.NewCheckpointer(store, keep, att.Devices)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	return ck, ck.Manifest()
}

// crash closes the engine and returns the store a reboot would find.
func crash(t testing.TB, e *Engine, store *fault.MemStore) *fault.MemStore {
	t.Helper()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return store.Survivor(fault.StoreChaos{Seed: 99})
}

// sliceObject returns the bytes of one slice object.
func sliceObject(t testing.TB, store CheckpointStore, ck wal.ManifestCheckpoint, part int) []byte {
	t.Helper()
	rc, err := store.OpenCheckpoint(sliceName(ck.Name, part))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(rc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// populateForCheckpoint runs a deterministic mutation workload: updates, an
// insert, and a delete.
func populateForCheckpoint(t *testing.T, e *Engine, tbl *Table) {
	t.Helper()
	tx := e.NewTx(0, 5)
	for i := 0; i < 8; i++ {
		if err := setKey(tx, tbl, uint64(i), int64(500+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Run(func(tx *Tx) error {
		row := tbl.Schema().NewRow()
		setV(tbl, row, 777)
		return tx.Insert(tbl, 40, row)
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Run(func(tx *Tx) error { return tx.Delete(tbl, 9) }); err != nil {
		t.Fatal(err)
	}
}

// wantValues checks that exactly the given keys hold the given values and
// that absent keys are not found.
func wantValues(t *testing.T, e *Engine, tbl *Table, want map[uint64]int64, absent ...uint64) {
	t.Helper()
	tx := e.NewTx(0, 6)
	if err := tx.Run(func(tx *Tx) error {
		for k, v := range want {
			row, err := tx.Read(tbl, k)
			if err != nil {
				return fmt.Errorf("key %d: %w", k, err)
			}
			if got := getV(tbl, row); got != v {
				t.Errorf("key %d = %d, want %d", k, got, v)
			}
		}
		for _, k := range absent {
			if _, err := tx.Read(tbl, k); !errors.Is(err, txn.ErrNotFound) {
				t.Errorf("key %d: got %v, want ErrNotFound", k, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRoundTripWithTail is the life of one generation: mutate,
// checkpoint, keep mutating under value logging, crash, recover from the
// store. The generation must be S objects named ckpt-G-p<i>, and the
// pre-checkpoint state must come back from them (its log records are skipped
// as covered) with the tail replayed on top.
func TestCheckpointRoundTripWithTail(t *testing.T) {
	for _, mode := range sliceModes {
		for _, protocol := range []string{"NO_WAIT", "SILO", "MVCC", "TICTOC"} {
			t.Run(mode.name+"/"+protocol, func(t *testing.T) {
				store := fault.NewMemStore(fault.StoreChaos{Seed: 1})
				e, att := sliceEngine(t, store, protocol, mode.parts, true)
				tbl := kvTable(t, e, "kv", IndexHash, 10)
				populateForCheckpoint(t, e, tbl)

				_, m := checkpointNow(t, e, store, att, 2)
				S := e.checkpointSlices()
				if len(m.Checkpoints) != 1 || m.Checkpoints[0].Slices != S {
					t.Fatalf("manifest checkpoints = %+v, want one generation of %d slices", m.Checkpoints, S)
				}
				names := store.CheckpointNames()
				sort.Strings(names)
				for p := 0; p < S; p++ {
					if want := fmt.Sprintf("ckpt-000001-p%d", p); p >= len(names) || names[p] != want {
						t.Fatalf("store objects %v, want %d slices ending in %s", names, S, want)
					}
				}
				if len(names) != S {
					t.Fatalf("store objects %v, want exactly %d", names, S)
				}

				tx := e.NewTx(0, 9)
				for i := 0; i < 5; i++ {
					if err := setKey(tx, tbl, uint64(i), int64(9000+i)); err != nil {
						t.Fatal(err)
					}
				}
				s2 := crash(t, e, store)

				e2, att2 := sliceEngine(t, s2, protocol, mode.parts, false)
				tbl2 := kvTable(t, e2, "kv", IndexHash, 0) // empty: the image restores it
				rs, err := e2.RecoverFromStore(s2, att2, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !rs.CheckpointLoaded || rs.CheckpointFallbacks != 0 || rs.CheckpointGen != 1 {
					t.Fatalf("recovery did not restore generation 1 cleanly: %+v", rs)
				}
				if rs.SkippedOldEpoch == 0 || rs.Records == 0 {
					t.Fatalf("want pre-checkpoint records skipped and the tail replayed: %+v", rs)
				}
				wantValues(t, e2, tbl2, map[uint64]int64{
					0: 9000, 1: 9001, 2: 9002, 3: 9003, 4: 9004, // the tail
					5: 505, 6: 506, 7: 507, 8: 0, 40: 777, // the image
				}, 9)
			})
		}
	}
}

// TestCheckpointDeterministic pins that slices of equal state are
// byte-identical, and that they start with the documented header.
func TestCheckpointDeterministic(t *testing.T) {
	for _, mode := range sliceModes {
		t.Run(mode.name, func(t *testing.T) {
			mk := func() [][]byte {
				e, _ := sliceEngine(t, fault.NewMemStore(fault.StoreChaos{}), "NO_WAIT", mode.parts, true)
				tbl := kvTable(t, e, "kv", IndexHash, 10)
				populateForCheckpoint(t, e, tbl)
				S := e.checkpointSlices()
				out := make([][]byte, S)
				for p := range out {
					var buf bytes.Buffer
					if err := e.writeSlice(&buf, p, S, 7); err != nil {
						t.Fatal(err)
					}
					out[p] = buf.Bytes()
				}
				return out
			}
			a, b := mk(), mk()
			for p := range a {
				if !bytes.Equal(a[p], b[p]) {
					t.Fatalf("slice %d of identical state differs", p)
				}
				want := []byte{'N', '7', 'C', 'K', 2, 0, 0, 0, byte(p), 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0}
				if !bytes.HasPrefix(a[p], want) {
					t.Fatalf("slice %d header = % x, want % x", p, a[p][:len(want)], want)
				}
			}
		})
	}
}

// byValue is the secondary-index extractor the index test registers.
func byValue(s *storage.Schema, row storage.Row, pk uint64) uint64 {
	return uint64(s.GetInt64(row, 0))<<20 | pk
}

// TestCheckpointSecondaryIndexes verifies loading a generation rebuilds
// secondary indexes from the restored rows.
func TestCheckpointSecondaryIndexes(t *testing.T) {
	for _, mode := range sliceModes {
		t.Run(mode.name, func(t *testing.T) {
			store := fault.NewMemStore(fault.StoreChaos{Seed: 2})
			e, att := sliceEngine(t, store, "SILO", mode.parts, true)
			tbl := kvTable(t, e, "kv", IndexHash, 0)
			if err := e.AddIndex(tbl, "by_v", IndexBTree, byValue); err != nil {
				t.Fatal(err)
			}
			row := tbl.Schema().NewRow()
			for i := 0; i < 10; i++ {
				setV(tbl, row, int64(i%3))
				if err := e.Load(tbl, uint64(i), row); err != nil {
					t.Fatal(err)
				}
			}
			checkpointNow(t, e, store, att, 2)
			s2 := crash(t, e, store)

			e2, att2 := sliceEngine(t, s2, "SILO", mode.parts, false)
			tbl2 := kvTable(t, e2, "kv", IndexHash, 0)
			if err := e2.AddIndex(tbl2, "by_v", IndexBTree, byValue); err != nil {
				t.Fatal(err)
			}
			if _, err := e2.RecoverFromStore(s2, att2, nil); err != nil {
				t.Fatal(err)
			}
			checkIndexes(t, e2)
			tx := e2.NewTx(0, 1)
			if err := tx.Run(func(tx *Tx) error {
				n := 0
				err := tx.ScanIndex(tbl2, "by_v", 1<<20, 2<<20-1, false,
					func(uint64, storage.Row) bool {
						n++
						return true
					})
				if n != 3 { // value 1 at pks 1, 4, 7
					t.Fatalf("secondary index restored %d entries, want 3", n)
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckpointFallback walks the base resolver's three outcomes when a
// slice object is corrupt: the slice falls back one generation (alone, at
// S > 1); with no older copy everyone degrades to the initial load plus the
// full log; and once checkpoint cycles have pruned the start of that log the
// recovery is refused with ErrHistoryLost before anything is loaded.
func TestCheckpointFallback(t *testing.T) {
	const keys = 32
	for _, mode := range sliceModes {
		// history builds `cycles` generations, setting every key to the
		// generation number before each, then sets key 5 to 99 and crashes.
		history := func(t *testing.T, cycles, keep int) (*fault.MemStore, wal.Manifest) {
			store := fault.NewMemStore(fault.StoreChaos{Seed: 3})
			e, att := sliceEngine(t, store, "SILO", mode.parts, true)
			tbl := kvTable(t, e, "kv", IndexHash, keys)
			ck, err := e.NewCheckpointer(store, keep, att.Devices)
			if err != nil {
				t.Fatal(err)
			}
			tx := e.NewTx(0, 3)
			for c := 1; c <= cycles; c++ {
				for k := uint64(0); k < keys; k++ {
					if err := setKey(tx, tbl, k, int64(c)); err != nil {
						t.Fatal(err)
					}
				}
				if err := ck.CheckpointNow(); err != nil {
					t.Fatal(err)
				}
			}
			if err := setKey(tx, tbl, 5, 99); err != nil {
				t.Fatal(err)
			}
			return crash(t, e, store), ck.Manifest()
		}
		// recover re-attaches s and recovers with a load callback that
		// counts its calls.
		recover := func(t *testing.T, s *fault.MemStore) (*Engine, *Table, RecoveryStats, int, error) {
			e, att := sliceEngine(t, s, "SILO", mode.parts, false)
			tbl := kvTable(t, e, "kv", IndexHash, 0)
			loads := 0
			rs, err := e.RecoverFromStore(s, att, func() error {
				loads++
				row := tbl.Schema().NewRow()
				for k := uint64(0); k < keys; k++ {
					if err := e.Load(tbl, k, row); err != nil {
						return err
					}
				}
				return nil
			})
			return e, tbl, rs, loads, err
		}
		final := func(gen int64) map[uint64]int64 {
			want := make(map[uint64]int64, keys)
			for k := uint64(0); k < keys; k++ {
				want[k] = gen
			}
			want[5] = 99
			return want
		}

		t.Run(mode.name+"/previous generation", func(t *testing.T) {
			s, m := history(t, 2, 2)
			older, newest := m.Checkpoints[0], m.Checkpoints[1]
			if !s.FlipCheckpointByte(sliceName(newest.Name, 0), 40) {
				t.Fatal("no slice object to corrupt")
			}
			e, tbl, rs, loads, err := recover(t, s)
			if err != nil {
				t.Fatal(err)
			}
			// Slice 0 resolves from the older generation; at S > 1 every
			// other slice still resolves from the newest.
			if rs.CheckpointFallbacks != 1 || !rs.CheckpointLoaded || loads != 0 || rs.CheckpointEpoch != older.Epoch {
				t.Fatalf("expected slice 0 to fall back one generation (epoch %d), got %+v, %d loads", older.Epoch, rs, loads)
			}
			wantGen := newest.Gen
			if e.checkpointSlices() == 1 {
				wantGen = older.Gen
			}
			if rs.CheckpointGen != wantGen {
				t.Fatalf("newest generation used = %d, want %d", rs.CheckpointGen, wantGen)
			}
			wantValues(t, e, tbl, final(2))
		})

		t.Run(mode.name+"/initial load", func(t *testing.T) {
			s, m := history(t, 1, 2)
			if !s.FlipCheckpointByte(sliceName(m.Checkpoints[0].Name, m.Checkpoints[0].Slices-1), 40) {
				t.Fatal("no slice object to corrupt")
			}
			e, tbl, rs, loads, err := recover(t, s)
			if err != nil {
				t.Fatal(err)
			}
			if rs.CheckpointFallbacks != 1 || rs.CheckpointLoaded || loads != 1 {
				t.Fatalf("expected initial load plus full replay, got %+v, %d loads", rs, loads)
			}
			wantValues(t, e, tbl, final(1))
		})

		t.Run(mode.name+"/history lost", func(t *testing.T) {
			s, m := history(t, 3, 2)
			if m.TruncatedThrough == 0 || len(m.Checkpoints) != 2 {
				t.Fatalf("three cycles at keep=2 should have pruned the bootstrap segments: %+v", m)
			}
			// Every retained copy of the last slice is gone; the others are
			// intact, and the log starts after TruncatedThrough.
			for _, ck := range m.Checkpoints {
				if !s.FlipCheckpointByte(sliceName(ck.Name, ck.Slices-1), 40) {
					t.Fatal("no slice object to corrupt")
				}
			}
			_, tbl, rs, loads, err := recover(t, s)
			if !errors.Is(err, ErrHistoryLost) {
				t.Fatalf("recovery over a truncated log with no base = %v (%+v), want ErrHistoryLost", err, rs)
			}
			if loads != 0 || tbl.tbl.NumRows() != 0 || tbl.primary.Len() != 0 {
				t.Fatalf("refused recovery touched the engine: %d loads, %d rows, %d keys", loads, tbl.tbl.NumRows(), tbl.primary.Len())
			}
		})
	}
}

// refitCRC rewrites the trailing CRC so a structural corruption is reached
// instead of being masked by the checksum check.
func refitCRC(img []byte) []byte {
	out := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

func flip(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xFF
	return out
}

// TestLoadSliceRejects proves a slice loads completely or not at all: every
// malformed, foreign or misrouted object is an ErrBadCheckpoint that leaves
// the engine untouched, and the good object then loads.
func TestLoadSliceRejects(t *testing.T) {
	for _, mode := range sliceModes {
		t.Run(mode.name, func(t *testing.T) {
			src, _ := sliceEngine(t, fault.NewMemStore(fault.StoreChaos{}), "NO_WAIT", mode.parts, true)
			populateForCheckpoint(t, src, kvTable(t, src, "kv", IndexHash, 10))
			S := src.checkpointSlices()
			var buf bytes.Buffer
			if err := src.writeSlice(&buf, 0, S, 3); err != nil {
				t.Fatal(err)
			}
			good := buf.Bytes()
			// The first entry of table "kv" (row size 8) starts after the
			// slice header, the name and the row-size/count words.
			entry0 := checkpointHeaderLen + 4 + len("kv") + 4 + 8
			dup := append([]byte(nil), good...)
			copy(dup[entry0+16+8:entry0+16+8+8], dup[entry0:entry0+8])
			v1 := append([]byte(nil), good...)
			v1[4] = 1

			cases := map[string][]byte{
				"flipped byte":   flip(good, len(good)/2),
				"truncated":      good[:len(good)-10],
				"bad magic":      refitCRC(flip(good, 0)),
				"version 1":      refitCRC(v1),
				"wrong slice":    refitCRC(flip(good, 8)),
				"duplicate key":  refitCRC(dup),
				"trailing bytes": refitCRC(append(append([]byte(nil), good...), 0, 0, 0, 0, 0, 0, 0, 0)),
			}
			dst, _ := sliceEngine(t, fault.NewMemStore(fault.StoreChaos{}), "NO_WAIT", mode.parts, true)
			tbl := kvTable(t, dst, "kv", IndexHash, 0)
			untouched := func(name string) {
				t.Helper()
				if tbl.tbl.NumRows() != 0 || tbl.primary.Len() != 0 {
					t.Fatalf("%s: rejected slice left %d rows, %d keys", name, tbl.tbl.NumRows(), tbl.primary.Len())
				}
			}
			for name, data := range cases {
				if _, err := dst.loadSlice(bytes.NewReader(data), 0, S); !errors.Is(err, ErrBadCheckpoint) {
					t.Errorf("%s: got %v, want ErrBadCheckpoint", name, err)
				}
				untouched(name)
			}
			if _, err := dst.loadSlice(bytes.NewReader(refitCRC(v1)), 0, S); !errors.Is(err, errCheckpointVersion) {
				t.Errorf("version 1 object = %v, want the version class", err)
			}
			// Slice membership comes from the manifest's slice count: the
			// same object read as the wrong slice, or as a slice of a
			// different cut, is rejected.
			if _, err := dst.loadSlice(bytes.NewReader(good), 1, max(S, 2)); !errors.Is(err, ErrBadCheckpoint) {
				t.Errorf("slice 0 read as slice 1 = %v, want ErrBadCheckpoint", err)
			}
			untouched("wrong slice index")
			if S == 1 {
				// The whole image is not partition 0's slice of a 4-way cut.
				part, _ := sliceEngine(t, fault.NewMemStore(fault.StoreChaos{}), "NO_WAIT", 4, true)
				kvTable(t, part, "kv", IndexHash, 0)
				if _, err := part.loadSlice(bytes.NewReader(good), 0, 4); !errors.Is(err, ErrBadCheckpoint) {
					t.Errorf("whole image read as slice 0 of 4 = %v, want ErrBadCheckpoint", err)
				}
			}
			// Unknown table.
			other, _ := sliceEngine(t, fault.NewMemStore(fault.StoreChaos{}), "NO_WAIT", mode.parts, true)
			kvTable(t, other, "different", IndexHash, 0)
			if _, err := other.loadSlice(bytes.NewReader(good), 0, S); !errors.Is(err, ErrBadCheckpoint) {
				t.Errorf("unknown table: got %v", err)
			}

			// The good object loads, returns its fence, and does not load
			// twice: live keys reject it (parse-fully-before-apply).
			if fence, err := dst.loadSlice(bytes.NewReader(good), 0, S); err != nil || fence != 3 {
				t.Fatalf("loadSlice = (%d, %v), want (3, nil)", fence, err)
			}
			if _, err := dst.loadSlice(bytes.NewReader(good), 0, S); !errors.Is(err, ErrBadCheckpoint) {
				t.Errorf("second load over live keys = %v, want ErrBadCheckpoint", err)
			}
			wantValues(t, dst, tbl, map[uint64]int64{0: 500, 4: 504, 8: 0, 40: 777})
		})
	}
}

// TestRecoverRejectsForeignGenerations covers what the manifest can say about
// a generation this engine cannot load: a slice count that is not the
// engine's falls back like an unreadable generation; an entry with no slices,
// or a slice object in another format version — both written by an older
// build — fail recovery by name instead.
func TestRecoverRejectsForeignGenerations(t *testing.T) {
	build := func(t *testing.T, parts int) (*fault.MemStore, wal.Manifest) {
		store := fault.NewMemStore(fault.StoreChaos{Seed: 4})
		e, att := sliceEngine(t, store, "SILO", parts, true)
		tbl := kvTable(t, e, "kv", IndexHash, 8)
		if err := setKey(e.NewTx(0, 1), tbl, 3, 33); err != nil {
			t.Fatal(err)
		}
		_, m := checkpointNow(t, e, store, att, 2)
		return crash(t, e, store), m
	}
	recover := func(t *testing.T, s *fault.MemStore, parts int) (RecoveryStats, int, error) {
		att, err := AttachCheckpointLog(s)
		if err != nil {
			t.Fatal(err)
		}
		// Four streams either way, so the only mismatch is the slice count.
		cfg := Config{Protocol: "SILO", Threads: 4, LogMode: wal.ModeValue, LogDevices: att.Devices}
		if parts > 0 {
			cfg.Partitions, cfg.WALStreams, cfg.PartitionWAL = parts, parts, true
		}
		e := openEngine(t, cfg)
		tbl := kvTable(t, e, "kv", IndexHash, 0)
		loads := 0
		rs, err := e.RecoverFromStore(s, att, func() error {
			loads++
			row := tbl.Schema().NewRow()
			for k := uint64(0); k < 8; k++ {
				if err := e.Load(tbl, k, row); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			wantValues(t, e, tbl, map[uint64]int64{3: 33, 4: 0})
		}
		return rs, loads, err
	}

	t.Run("wrong slice count", func(t *testing.T) {
		s, _ := build(t, 4) // four slices; recovered by an unpartitioned engine
		rs, loads, err := recover(t, s, 0)
		if err != nil || rs.CheckpointLoaded || rs.CheckpointFallbacks != 1 || loads != 1 {
			t.Fatalf("4-slice generation on an S=1 engine: %+v, %d loads, %v; want one fallback to the initial load", rs, loads, err)
		}
	})
	t.Run("no slices", func(t *testing.T) {
		s, m := build(t, 4)
		m.Checkpoints[0].Slices = 0
		if err := s.SaveManifest(m); err != nil {
			t.Fatal(err)
		}
		_, loads, err := recover(t, s, 4)
		if !errors.Is(err, ErrBadCheckpoint) || !errors.Is(err, errCheckpointVersion) || loads != 0 {
			t.Fatalf("manifest entry with Slices == 0: %v, %d loads; want the version error", err, loads)
		}
	})
	t.Run("version 1 object", func(t *testing.T) {
		s, m := build(t, 4)
		v1 := sliceObject(t, s, m.Checkpoints[0], 2)
		v1[4] = 1
		v1 = refitCRC(v1)
		if err := s.WriteCheckpoint(sliceName(m.Checkpoints[0].Name, 2), func(w io.Writer) error {
			_, err := w.Write(v1)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		_, loads, err := recover(t, s, 4)
		if !errors.Is(err, errCheckpointVersion) || loads != 0 {
			t.Fatalf("version-1 slice object: %v, %d loads; want the version error", err, loads)
		}
	})
}

// countingProto counts protocol reads.
type countingProto struct {
	cc.Protocol
	reads atomic.Int64
}

func (c *countingProto) Read(tx *txn.Txn, tbl *storage.Table, rid storage.RecordID) ([]byte, error) {
	c.reads.Add(1)
	return c.Protocol.Read(tx, tbl, rid)
}

// TestCheckpointReadsEachRowOnce pins the cost of a generation: the slice is
// chosen on the index entry, so however many slices it is cut into, the scan
// makes one committed read per live row.
func TestCheckpointReadsEachRowOnce(t *testing.T) {
	const rows = 400
	for _, mode := range sliceModes {
		t.Run(mode.name, func(t *testing.T) {
			store := fault.NewMemStore(fault.StoreChaos{Seed: 5})
			e, att := sliceEngine(t, store, "SILO", mode.parts, true)
			kvTable(t, e, "kv", IndexHash, rows)
			counter := &countingProto{Protocol: e.proto}
			e.proto = counter
			checkpointNow(t, e, store, att, 2)
			e.proto = counter.Protocol
			if got := counter.reads.Load(); got != rows {
				t.Fatalf("generation of %d slices made %d row reads for %d live rows", e.checkpointSlices(), got, rows)
			}
		})
	}
}
