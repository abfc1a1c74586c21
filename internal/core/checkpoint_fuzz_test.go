package core

import (
	"bytes"
	"errors"
	"testing"

	"next700/internal/storage"
)

// fuzzEngine opens a fresh engine with the fuzz schema (one table "acct",
// a single i64 column) and returns it with its table handle.
func fuzzEngine(t testing.TB) (*Engine, *Table) {
	t.Helper()
	e, err := Open(Config{Protocol: "SILO", Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	tbl, err := e.CreateTable(storage.MustSchema("acct", storage.I64("v")), IndexHash)
	if err != nil {
		t.Fatal(err)
	}
	return e, tbl
}

// fuzzCheckpointImage builds a valid one-slice image (slice 0 of 1, fence
// 5) of the fuzz schema with the given number of rows.
func fuzzCheckpointImage(t testing.TB, rows uint64) []byte {
	t.Helper()
	e, tbl := fuzzEngine(t)
	sch := tbl.sch
	row := sch.NewRow()
	for k := uint64(0); k < rows; k++ {
		sch.SetInt64(row, 0, int64(k)*3+1)
		if err := e.Load(tbl, k, row); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := e.writeSlice(&buf, 0, 1, 5); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzDuplicateKeySeed crafts a CRC-valid image whose second entry repeats
// the first entry's key: the validator must reject it before applying
// anything. Layout per checkpoint.go: magic(4) version(4) slice(4) epoch(8)
// tables(4) | nameLen(4) "acct" rowSize(4) count(8) | entries of key(8)
// rid(8) row(8).
func fuzzDuplicateKeySeed(t testing.TB) []byte {
	t.Helper()
	img := append([]byte(nil), fuzzCheckpointImage(t, 2)...)
	entry0 := checkpointHeaderLen + 4 + len("acct") + 4 + 8
	entry1 := entry0 + 16 + 8
	copy(img[entry1:entry1+8], img[entry0:entry0+8])
	return refitCRC(img)
}

// FuzzLoadCheckpoint drives the slice loader (loadSlice over parseSlice, the
// only image parser) with corrupt inputs and checks its documented contract:
// it never panics, rejects anything malformed with ErrBadCheckpoint, and a
// rejected stream leaves the engine completely untouched — no rows
// allocated, no index entries inserted.
func FuzzLoadCheckpoint(f *testing.F) {
	valid := fuzzCheckpointImage(f, 16)
	f.Add([]byte{})
	f.Add([]byte("N7CK"))
	f.Add(append([]byte(nil), valid...))
	// Truncations: inside the header, inside an entry, and the lost CRC.
	f.Add(append([]byte(nil), valid[:21]...))
	f.Add(append([]byte(nil), valid[:len(valid)/3]...))
	f.Add(append([]byte(nil), valid[:len(valid)-5]...))
	// Bit flips at structurally interesting offsets (magic, version, slice
	// index, fence, first name length, an entry, the last row), CRC refitted
	// so the validator sees them (and one raw flip so the CRC check sees it
	// too).
	for _, off := range []int{0, 5, 8, 13, 26, len(valid) / 2, len(valid) - 6} {
		flipped := append([]byte(nil), valid...)
		flipped[off] ^= 0x40
		f.Add(refitCRC(flipped))
		f.Add(append([]byte(nil), flipped...))
	}
	f.Add(fuzzDuplicateKeySeed(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, tbl := fuzzEngine(t)
		_, err := e.loadSlice(bytes.NewReader(data), 0, 1)
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("rejection must classify as ErrBadCheckpoint, got %v", err)
			}
			if n := tbl.tbl.NumRows(); n != 0 {
				t.Fatalf("rejected checkpoint allocated %d rows", n)
			}
			if n := tbl.primary.Len(); n != 0 {
				t.Fatalf("rejected checkpoint inserted %d index entries", n)
			}
			return
		}
		// An accepted image must round-trip: re-serializing the loaded state
		// and loading it into a second fresh engine succeeds byte-for-byte.
		var buf bytes.Buffer
		if err := e.writeSlice(&buf, 0, 1, 5); err != nil {
			t.Fatalf("re-checkpoint after accepted load: %v", err)
		}
		e2, _ := fuzzEngine(t)
		if _, err := e2.loadSlice(bytes.NewReader(buf.Bytes()), 0, 1); err != nil {
			t.Fatalf("round-trip of accepted checkpoint rejected: %v", err)
		}
	})
}
