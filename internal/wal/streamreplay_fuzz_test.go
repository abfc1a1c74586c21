package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"next700/internal/xrand"
)

// FuzzReplayStreams damages a faithful multi-stream log and checks the
// epoch-merge oracle: per-stream images built exactly the way a StreamSet
// writes them (monotone epoch tags, a marker certifying each closed epoch),
// each stream split into two segments at a frame boundary — the first sealed
// at a ceiling no higher than what its own frames certify, as rotation and
// recovery seal — and cut at an arbitrary byte offset, optional foreign tail
// on stream 0. Replay must never panic, fail only with ErrCorrupt, and under
// a pure truncation must apply exactly the original records with epoch <= the
// merged frontier that their segment's ceiling does not drop — a torn tail in
// one stream truncates epochs everywhere, never loses a record the frontier
// covers, and a record above its segment's ceiling is never applied.
func FuzzReplayStreams(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(6), uint16(0xFFFF), uint16(0xFFFF), uint16(0xFFFF), uint16(0), uint8(0), []byte{})
	f.Add(uint64(2), uint8(2), uint8(4), uint16(100), uint16(0xFFFF), uint16(0xFFFF), uint16(3), uint8(2), []byte{})
	f.Add(uint64(3), uint8(3), uint8(8), uint16(0xFFFF), uint16(33), uint16(250), uint16(5), uint8(3), []byte{})
	f.Add(uint64(4), uint8(1), uint8(5), uint16(0xFFFF), uint16(0), uint16(0), uint16(2), uint8(1), []byte{1, 2, 3})
	f.Add(uint64(5), uint8(3), uint8(0), uint16(0), uint16(0), uint16(0), uint16(0), uint8(0), []byte("garbage"))
	f.Add(uint64(6), uint8(2), uint8(9), uint16(0xFFFF), uint16(0xFFFF), uint16(0xFFFF), uint16(11), uint8(4), []byte{})

	f.Fuzz(func(t *testing.T, seed uint64, nStreams, rounds uint8, cutA, cutB, cutC, split uint16, ceiling uint8, tail []byte) {
		streams := int(nStreams%3) + 1
		origins, images := buildStreamLogs(seed, streams, int(rounds%10))

		cuts := []uint16{cutA, cutB, cutC}
		segs := make([][]Segment, streams)
		bounds := make([]int, streams)      // where stream i's second segment starts
		ceilings := make([]uint64, streams) // stream i's first segment's sealing epoch
		for i, img := range images {
			ends, epochs := frameEnds(img)
			k := int(split) % (len(ends) + 1)
			if k > 0 {
				bounds[i] = ends[k-1]
			}
			c := min(int(cuts[i]), len(img))
			first, second := img[:min(bounds[i], c)], img[bounds[i]:max(bounds[i], c)]
			// The first segment's frames certify epochs below high: seal at
			// most there.
			var high uint64
			for f, end := range ends {
				if end <= len(first) {
					high = max(high, epochs[f])
				}
			}
			if high > 0 {
				ceilings[i] = uint64(ceiling) % high
			}
			if i == 0 {
				second = append(append([]byte{}, second...), tail...)
			}
			segs[i] = []Segment{{Reader: bytes.NewReader(first), ToEpoch: ceilings[i]}, {Reader: bytes.NewReader(second)}}
		}
		dropped := func(o originRecord) bool {
			return o.end <= bounds[o.stream] && ceilings[o.stream] != 0 && o.rec.Epoch > ceilings[o.stream]
		}

		var applied []CommitRecord
		st, err := ReplayStreams(segs, FrontierGlobal, CommitOrder, func(_ int, cr *CommitRecord) error {
			applied = append(applied, copyRecord(cr))
			return nil
		})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("replay failed with a non-corruption error: %v", err)
			}
			return
		}
		if len(tail) != 0 {
			// A foreign tail can decode as arbitrary frames with arbitrary
			// epoch tags, so the exact oracle below does not apply; the
			// no-panic / ErrCorrupt-only contract was the check.
			return
		}

		// Oracle: frontier covers an original record iff its epoch <= the
		// min over streams of (highest surviving marker-or-tag - 1, or a
		// sealed segment's ceiling); every such record its segment's ceiling
		// keeps must be applied byte-identically, and nothing beyond the
		// frontier or above its segment's ceiling may be applied.
		// A sealed segment certifies its stream through its ceiling.
		if c := slices.Min(ceilings); st.Frontier < c {
			t.Fatalf("frontier %d below the ceiling %d every stream was sealed at", st.Frontier, c)
		}
		want := 0
		for _, o := range origins {
			if o.rec.Epoch <= st.Frontier && !dropped(o) {
				want++
			}
		}
		if len(applied) != want {
			t.Fatalf("applied %d records, frontier %d covers %d", len(applied), st.Frontier, want)
		}
		got := make(map[uint64]*CommitRecord, len(applied))
		for i := range applied {
			if applied[i].Epoch > st.Frontier {
				t.Fatalf("applied record of epoch %d beyond frontier %d", applied[i].Epoch, st.Frontier)
			}
			got[applied[i].TxnID] = &applied[i]
		}
		var last uint64
		for i := range applied {
			if applied[i].Epoch < last {
				t.Fatalf("merge order not epoch-sorted at record %d", i)
			}
			last = applied[i].Epoch
		}
		for _, o := range origins {
			if dropped(o) && got[o.rec.TxnID] != nil {
				t.Fatalf("txn %d (epoch %d) applied above its segment's ceiling %d", o.rec.TxnID, o.rec.Epoch, ceilings[o.stream])
			}
			if o.rec.Epoch > st.Frontier || dropped(o) {
				continue
			}
			g := got[o.rec.TxnID]
			if g == nil {
				t.Fatalf("txn %d (epoch %d) within frontier %d but lost", o.rec.TxnID, o.rec.Epoch, st.Frontier)
			}
			if !sameRecord(g, &o.rec) {
				t.Fatalf("txn %d altered by merge:\n got %+v\nwant %+v", o.rec.TxnID, *g, o.rec)
			}
		}
	})
}

type originRecord struct {
	stream int
	end    int // offset just past the record's frame in its stream image
	rec    CommitRecord
}

// frameEnds lists an intact image's frames: the offset just past each and
// the epoch it carries (a marker's certified epoch or a record's tag).
func frameEnds(img []byte) (ends []int, epochs []uint64) {
	for off := 0; off < len(img); {
		size := int(binary.LittleEndian.Uint32(img[off:]))
		epoch, _, _ := frameEpoch(img[off+headerSize : off+headerSize+size])
		off += headerSize + size
		ends, epochs = append(ends, off), append(epochs, epoch)
	}
	return ends, epochs
}

// buildStreamLogs emulates a StreamSet run deterministically: each round,
// every stream appends 0..2 records tagged with the current epoch, then the
// epoch advances and every stream writes a marker certifying it — exactly
// the framing and monotonicity invariants the real flushers maintain.
func buildStreamLogs(seed uint64, streams, rounds int) ([]originRecord, [][]byte) {
	rng := xrand.New(seed ^ 0x57e4)
	images := make([][]byte, streams)
	var origins []originRecord
	epoch := uint64(1)
	txn := uint64(0)
	for r := 0; r < rounds; r++ {
		for s := 0; s < streams; s++ {
			for n := rng.Intn(3); n > 0; n-- {
				txn++
				cr := CommitRecord{TxnID: txn, Epoch: epoch}
				if rng.Bool(0.3) {
					cr.Proc = int32(rng.IntRange(1, 50))
					cr.Params = randBytes(rng, rng.Intn(12))
				} else {
					cr.Entries = []Entry{{
						Kind: EntryUpdate, Table: 1,
						RID: txn, Key: txn, Data: randBytes(rng, rng.Intn(16)),
					}}
				}
				images[s] = append(images[s], cr.Encode(nil)...)
				origins = append(origins, originRecord{stream: s, end: len(images[s]), rec: cr})
			}
		}
		epoch++
		for s := 0; s < streams; s++ {
			images[s] = appendMarker(images[s], epoch)
		}
	}
	return origins, images
}
