package wal

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

// sealFrame encodes one value record tagged with the given epoch.
func sealFrame(txn, epoch uint64) []byte {
	cr := &CommitRecord{
		TxnID: txn,
		Epoch: epoch,
		Entries: []Entry{
			{Kind: EntryUpdate, Table: 1, RID: txn, Key: txn, Data: []byte{1, 2, 3, 4}},
		},
	}
	return cr.Encode(nil)
}

// sealEpochs replays a sealed image and returns the record epochs in order.
func sealEpochs(t *testing.T, img []byte) []uint64 {
	t.Helper()
	var out []uint64
	if _, err := ScanStream(bytes.NewReader(img), func(cr *CommitRecord) error {
		out = append(out, cr.Epoch)
		return nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	return out
}

// replayStreamBytes is ReplayStreams under FrontierGlobal and CommitOrder
// over in-memory stream images, each one active segment.
func replayStreamBytes(images [][]byte, apply func(stream int, cr *CommitRecord) error) (StreamReplayStats, error) {
	streams := make([][]Segment, len(images))
	for i := range images {
		streams[i] = []Segment{{Reader: bytes.NewReader(images[i])}}
	}
	return ReplayStreams(streams, FrontierGlobal, CommitOrder, apply)
}

// TestReplaySegments pins the segment rules of the one scan: a torn tail ends
// its segment wherever the segment sits in the stream, damage before it is
// ErrCorrupt, and a sealed segment replays only frames at or below its
// sealing epoch while its end certifies the stream through that epoch.
func TestReplaySegments(t *testing.T) {
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	torn := sealFrame(3, 3)
	badCRC := sealFrame(2, 2)
	badCRC[len(badCRC)-1] ^= 0xFF
	midCorrupt := cat(sealFrame(1, 1), sealFrame(2, 2))
	midCorrupt[headerSize+2] ^= 0xFF // the first payload, not the last
	late := cat(sealFrame(1, 4), sealFrame(2, 5), appendMarker(nil, 6), sealFrame(3, 6))
	type seg struct {
		img     []byte
		toEpoch uint64
	}
	for _, tc := range []struct {
		name      string
		segs      []seg
		wantErr   error
		want      []uint64 // applied epochs, in order
		frontier  uint64
		markers   int
		bytes     int64
		tornBytes int64
		tornRecs  int
		truncated int
	}{{
		name: "torn tail before another segment",
		segs: []seg{
			{img: cat(sealFrame(1, 1), sealFrame(2, 2), torn[:len(torn)/2])},
			{img: cat(sealFrame(4, 3), appendMarker(nil, 4))},
		},
		want: []uint64{1, 2, 3}, frontier: 3, markers: 1,
		bytes:     int64(2*len(sealFrame(1, 1)) + len(sealFrame(4, 3)) + len(appendMarker(nil, 4))),
		tornBytes: int64(len(torn) / 2),
	}, {
		name: "torn tail of a sealed segment counts nowhere",
		segs: []seg{{img: cat(sealFrame(1, 1), torn[:len(torn)/2]), toEpoch: 1}, {}},
		want: []uint64{1}, frontier: 1,
		bytes: int64(len(sealFrame(1, 1))),
	}, {
		name: "full-length final payload with a bad CRC",
		segs: []seg{
			{img: cat(sealFrame(1, 1), badCRC)},
			{img: cat(sealFrame(3, 3), appendMarker(nil, 4))},
		},
		want: []uint64{1, 3}, frontier: 3, markers: 1,
		bytes:     int64(2*len(sealFrame(1, 1)) + len(appendMarker(nil, 4))),
		tornBytes: int64(len(badCRC)), tornRecs: 1,
	}, {
		name:    "mid-segment corruption",
		segs:    []seg{{img: midCorrupt}, {img: appendMarker(nil, 3)}},
		wantErr: ErrCorrupt,
	}, {
		// Frames above the ceiling — record 6 and marker 6 — are dropped and
		// count nowhere, yet the segment's end still certifies epoch 5: the
		// tags alone prove only epoch 4.
		name: "ceiling drops late records and markers",
		segs: []seg{{img: late, toEpoch: 5}, {}},
		want: []uint64{4, 5}, frontier: 5,
		bytes: int64(2 * len(sealFrame(1, 4))),
	}, {
		name: "ceiling binds only its own segment",
		segs: []seg{{img: late, toEpoch: 5}, {img: cat(sealFrame(4, 7), appendMarker(nil, 8))}},
		want: []uint64{4, 5, 7}, frontier: 7, markers: 1,
		bytes: int64(3*len(sealFrame(1, 4)) + len(appendMarker(nil, 8))),
	}, {
		name: "ceiling 0 keeps everything",
		segs: []seg{{img: late}, {}},
		want: []uint64{4, 5}, frontier: 5, markers: 1, truncated: 1,
		bytes: int64(len(late)),
	}, {
		name: "ceiling 0 before another segment",
		segs: []seg{{img: late}, {img: appendMarker(nil, 7)}},
		want: []uint64{4, 5, 6}, frontier: 6, markers: 2,
		bytes: int64(len(late) + len(appendMarker(nil, 7))),
	}} {
		t.Run(tc.name, func(t *testing.T) {
			segs := make([]Segment, len(tc.segs))
			for i, sg := range tc.segs {
				segs[i] = Segment{Reader: bytes.NewReader(sg.img), ToEpoch: sg.toEpoch}
			}
			var got []uint64
			st, err := ReplayStreams([][]Segment{segs}, FrontierPerStream, AppendOrder, func(_ int, cr *CommitRecord) error {
				got = append(got, cr.Epoch)
				return nil
			})
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("applied epochs %v, want %v", got, tc.want)
			}
			if st.Frontier != tc.frontier || st.Markers != tc.markers || st.Bytes != tc.bytes ||
				st.TornBytes != tc.tornBytes || st.CorruptTailRecords != tc.tornRecs || st.TruncatedRecords != tc.truncated {
				t.Fatalf("stats %+v, want frontier %d markers %d bytes %d torn %d/%d truncated %d",
					st, tc.frontier, tc.markers, tc.bytes, tc.tornBytes, tc.tornRecs, tc.truncated)
			}
		})
	}
}

func TestRaiseEpochMonotone(t *testing.T) {
	dev := &memDevice{}
	s := NewStreamSet([]Device{dev}, 0)
	defer s.Close()
	if got := s.CurrentEpoch(); got != 1 {
		t.Fatalf("fresh epoch %d, want 1", got)
	}
	s.RaiseEpoch(100)
	if got := s.CurrentEpoch(); got != 101 {
		t.Fatalf("raised epoch %d, want 101", got)
	}
	s.RaiseEpoch(50) // at or below current: no-op
	if got := s.CurrentEpoch(); got != 101 {
		t.Fatalf("lowering raise changed epoch to %d", got)
	}
	// Appends tag above the raised base and become durable normally.
	rec := sealFrame(9, 0)
	epoch, err := s.Append(0, rec)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 101 {
		t.Fatalf("append tagged epoch %d, want 101", epoch)
	}
	if err := s.WaitDurable(0, epoch); err != nil {
		t.Fatal(err)
	}
	if got := sealEpochs(t, dev.bytes()); len(got) != 1 || got[0] != 101 {
		t.Fatalf("device records %v, want [101]", got)
	}
}
