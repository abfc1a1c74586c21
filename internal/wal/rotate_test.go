package wal

import (
	"testing"

	"next700/internal/testutil"
)

// replayIDs merges per-stream images and returns the replayed txn ids.
func replayIDs(t *testing.T, images [][]byte) map[uint64]bool {
	t.Helper()
	got := make(map[uint64]bool)
	if _, err := replayStreamBytes(images, func(_ int, cr *CommitRecord) error {
		got[cr.TxnID] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestStreamSetRotate seals segments mid-run and verifies the boundary
// contract: everything appended before Rotate is durable on (and only on)
// the old devices, everything appended after lands on the new ones, and the
// concatenation replays every commit exactly once.
func TestStreamSetRotate(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	const streams = 2
	old := make([]*memDevice, streams)
	devs := make([]Device, streams)
	for i := range devs {
		old[i] = &memDevice{}
		devs[i] = old[i]
	}
	s := NewStreamSet(devs, 0)

	for id := uint64(1); id <= 10; id++ {
		ep, err := s.Append(int(id)%streams, setRecord(id))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WaitDurable(int(id)%streams, ep); err != nil {
			t.Fatal(err)
		}
	}

	fresh := make([]*memDevice, streams)
	newDevs := make([]Device, streams)
	for i := range newDevs {
		fresh[i] = &memDevice{}
		newDevs[i] = fresh[i]
	}
	boundary, err := s.Rotate(newDevs)
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if boundary == 0 {
		t.Fatal("boundary must be a real epoch")
	}
	if d := s.DurableEpoch(); d < boundary {
		t.Fatalf("rotation must certify the boundary durable: frontier %d < boundary %d", d, boundary)
	}

	// Pre-rotation commits are wholly in the sealed segments.
	oldImages := make([][]byte, streams)
	for i, m := range old {
		oldImages[i] = m.bytes()
	}
	sealed := replayIDs(t, oldImages)
	for id := uint64(1); id <= 10; id++ {
		if !sealed[id] {
			t.Fatalf("pre-rotation txn %d missing from sealed segments", id)
		}
	}

	// Post-rotation commits land only on the fresh devices, with epochs past
	// the boundary.
	for id := uint64(11); id <= 20; id++ {
		ep, err := s.Append(int(id)%streams, setRecord(id))
		if err != nil {
			t.Fatal(err)
		}
		if ep <= boundary {
			t.Fatalf("post-rotation append tagged %d <= boundary %d", ep, boundary)
		}
		if err := s.WaitDurable(int(id)%streams, ep); err != nil {
			t.Fatal(err)
		}
	}
	for i, m := range old {
		if got := m.bytes(); len(got) != len(oldImages[i]) {
			t.Fatalf("stream %d sealed segment grew after rotation", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The concatenation old+fresh replays everything exactly once, and the
	// fresh segments alone carry exactly the post-rotation tail.
	catImages := make([][]byte, streams)
	freshImages := make([][]byte, streams)
	for i := range catImages {
		catImages[i] = append(append([]byte(nil), old[i].bytes()...), fresh[i].bytes()...)
		freshImages[i] = fresh[i].bytes()
	}
	all := replayIDs(t, catImages)
	for id := uint64(1); id <= 20; id++ {
		if !all[id] {
			t.Fatalf("txn %d lost across the segment boundary", id)
		}
	}
	tail := replayIDs(t, freshImages)
	for id := uint64(1); id <= 10; id++ {
		if tail[id] {
			t.Fatalf("pre-rotation txn %d leaked into the fresh segment", id)
		}
	}
	for id := uint64(11); id <= 20; id++ {
		if !tail[id] {
			t.Fatalf("post-rotation txn %d missing from the fresh segment", id)
		}
	}
}

// TestStreamSetRotateIdle rotates a set with nothing staged: the boundary
// still certifies, the swap still installs, and a quiet set does not hang.
func TestStreamSetRotateIdle(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	devs := []Device{&memDevice{}, &memDevice{}}
	s := NewStreamSet(devs, 0)
	fresh := []Device{&memDevice{}, &memDevice{}}
	b1, err := s.Rotate(fresh)
	if err != nil {
		t.Fatal(err)
	}
	// Back-to-back rotation with no traffic in between must also complete.
	b2, err := s.Rotate([]Device{&memDevice{}, &memDevice{}})
	if err != nil {
		t.Fatal(err)
	}
	if b2 <= b1 {
		t.Fatalf("boundaries must advance: %d then %d", b1, b2)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSetRotateClosed verifies Rotate fails cleanly on a closed set.
func TestStreamSetRotateClosed(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	s := NewStreamSet([]Device{&memDevice{}}, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rotate([]Device{&memDevice{}}); err == nil {
		t.Fatal("rotate on a closed set must fail")
	}
}
