package wal

import (
	"bytes"
	"errors"
	"testing"

	"next700/internal/xrand"
)

// FuzzReplay throws arbitrarily damaged logs at ScanStream: a
// deterministic valid log (derived from seed/nRecs) truncated at cut with
// tail appended. Replay must never panic, must fail only with ErrCorrupt,
// and must never resurrect data past the intact prefix: every applied record
// that lies within the surviving whole-record prefix must be byte-identical
// to the original, and a truncation with no foreign tail must replay exactly
// the whole records and nothing else.
func FuzzReplay(f *testing.F) {
	// Seed corpus: clean log, torn mid-record, zero-length frame (torn
	// preallocated region), garbage tail, pure garbage with no log at all.
	f.Add(uint64(1), uint8(3), uint16(0xFFFF), []byte{})
	f.Add(uint64(2), uint8(2), uint16(13), []byte{})
	f.Add(uint64(3), uint8(1), uint16(0xFFFF), []byte{0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(uint64(4), uint8(2), uint16(0xFFFF), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(uint64(5), uint8(0), uint16(0), []byte("not a wal log at all"))

	f.Fuzz(func(t *testing.T, seed uint64, nRecs uint8, cut uint16, tail []byte) {
		originals, log, ends := buildLog(seed, int(nRecs%8))

		c := int(cut)
		if c > len(log) {
			c = len(log)
		}
		input := append(append([]byte{}, log[:c]...), tail...)

		// whole is how many records survive intact within the cut — the
		// synced-prefix analogue: nothing beyond it may be resurrected as
		// original data, and nothing within it may be lost.
		whole := 0
		for whole < len(ends) && ends[whole] <= c {
			whole++
		}

		var applied []CommitRecord
		st, err := ScanStream(bytes.NewReader(input), func(cr *CommitRecord) error {
			applied = append(applied, copyRecord(cr))
			return nil
		}, nil)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("replay failed with a non-corruption error: %v", err)
		}
		if st.Bytes > int64(len(input)) {
			t.Fatalf("replay accounted %d bytes from a %d-byte input", st.Bytes, len(input))
		}
		if len(applied) < whole {
			t.Fatalf("replay applied %d records, %d are intact before the cut", len(applied), whole)
		}
		for i := 0; i < whole; i++ {
			if !sameRecord(&applied[i], &originals[i]) {
				t.Fatalf("record %d altered by replay:\n got %+v\nwant %+v", i, applied[i], originals[i])
			}
		}
		if len(tail) == 0 {
			// A pure truncation is a torn tail: exactly the whole records
			// replay, and the damage is never an error.
			if err != nil {
				t.Fatalf("truncated log failed replay: %v", err)
			}
			if len(applied) != whole {
				t.Fatalf("truncated log replayed %d records, want %d", len(applied), whole)
			}
		}
	})
}

// buildLog derives a deterministic valid log from seed: the decoded records,
// the framed bytes, and each record's end offset.
func buildLog(seed uint64, n int) (recs []CommitRecord, log []byte, ends []int) {
	rng := xrand.New(seed ^ 0x5ee0)
	var buf []byte
	for i := 0; i < n; i++ {
		var cr CommitRecord
		cr.TxnID = rng.Uint64()
		cr.Epoch = rng.Uint64n(1 << 20)
		if rng.Bool(0.3) {
			cr.Proc = int32(rng.IntRange(1, 100))
			cr.Params = randBytes(rng, rng.Intn(20))
		} else {
			for j := rng.IntRange(1, 4); j > 0; j-- {
				cr.Entries = append(cr.Entries, Entry{
					Kind:  EntryKind(rng.Intn(3)),
					Table: int32(rng.Intn(4)),
					RID:   rng.Uint64(),
					Key:   rng.Uint64n(1024),
					Data:  randBytes(rng, rng.Intn(24)),
				})
			}
		}
		buf = cr.Encode(buf[:0])
		log = append(log, buf...)
		ends = append(ends, len(log))
		recs = append(recs, cr)
	}
	return recs, log, ends
}

func randBytes(rng *xrand.RNG, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// copyRecord deep-copies a decoded record, whose slices alias the replay
// buffer.
func copyRecord(cr *CommitRecord) CommitRecord {
	out := CommitRecord{TxnID: cr.TxnID, Epoch: cr.Epoch, Proc: cr.Proc}
	if cr.Params != nil {
		out.Params = append([]byte{}, cr.Params...)
	}
	for _, e := range cr.Entries {
		e.Data = append([]byte{}, e.Data...)
		out.Entries = append(out.Entries, e)
	}
	return out
}

func sameRecord(a, b *CommitRecord) bool {
	if a.TxnID != b.TxnID || a.Epoch != b.Epoch || a.Proc != b.Proc ||
		!bytes.Equal(a.Params, b.Params) || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		x, y := &a.Entries[i], &b.Entries[i]
		if x.Kind != y.Kind || x.Table != y.Table || x.RID != y.RID || x.Key != y.Key ||
			!bytes.Equal(x.Data, y.Data) {
			return false
		}
	}
	return true
}
