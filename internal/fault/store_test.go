package fault

import (
	"errors"
	"io"
	"testing"

	"next700/internal/wal"
)

func storeManifest(streams int) wal.Manifest {
	return wal.Manifest{Streams: streams, Mode: "value"}
}

func TestMemStoreCrashAtOpIsSticky(t *testing.T) {
	s := NewMemStore(StoreChaos{CrashAtOp: 2})
	dev, err := s.CreateSegment("seg-000000-0") // op 1
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveManifest(storeManifest(1)); !errors.Is(err, ErrCrashed) { // op 2: crash
		t.Fatalf("expected crash, got %v", err)
	}
	// The manifest save did not take effect.
	if _, _, err := s.LoadManifest(); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("crashed save must not install a manifest: %v", err)
	}
	// Every further mutation fails, including the already created device.
	if _, err := dev.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("segment device must die with the store: %v", err)
	}
	if err := dev.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("segment sync must die with the store: %v", err)
	}
	if err := s.RemoveSegment("seg-000000-0"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("remove after crash must fail: %v", err)
	}
	if err := s.WriteCheckpoint("ckpt-000001", func(io.Writer) error { return nil }); !errors.Is(err, ErrCrashed) {
		t.Fatalf("checkpoint write after crash must fail: %v", err)
	}
}

func TestMemStoreTornManifestFallsBack(t *testing.T) {
	s := NewMemStore(StoreChaos{TearManifestAtSave: 2})
	if err := s.SaveManifest(storeManifest(2)); err != nil {
		t.Fatal(err)
	}
	m2 := storeManifest(2)
	m2.Segments = []wal.ManifestSegment{{Stream: 0, Name: "seg-000001-0"}}
	if err := s.SaveManifest(m2); !errors.Is(err, ErrCrashed) {
		t.Fatalf("expected torn save crash, got %v", err)
	}
	got, fellBack, err := s.LoadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if !fellBack {
		t.Fatal("torn current manifest must fall back to the previous copy")
	}
	if len(got.Segments) != 0 || got.Streams != 2 {
		t.Fatalf("fallback returned the wrong manifest: %+v", got)
	}
}

func TestMemStoreCheckpointFailInjection(t *testing.T) {
	s := NewMemStore(StoreChaos{FailCheckpointAt: 1})
	err := s.WriteCheckpoint("ckpt-000000", func(w io.Writer) error {
		_, werr := w.Write([]byte("image"))
		return werr
	})
	if !IsTransient(err) {
		t.Fatalf("injected checkpoint failure should be transient, got %v", err)
	}
	if names := s.CheckpointNames(); len(names) != 0 {
		t.Fatalf("failed write must not install an object: %v", names)
	}
	// The store itself is healthy: the next write succeeds.
	if err := s.WriteCheckpoint("ckpt-000000", func(w io.Writer) error {
		_, werr := w.Write([]byte("image"))
		return werr
	}); err != nil {
		t.Fatal(err)
	}
	if names := s.CheckpointNames(); len(names) != 1 {
		t.Fatalf("second write should install: %v", names)
	}
}

func TestMemStoreSurvivorKeepsSyncedPrefix(t *testing.T) {
	s := NewMemStore(StoreChaos{Seed: 7})
	dev, err := s.CreateSegment("seg-000000-0")
	if err != nil {
		t.Fatal(err)
	}
	dev.Write([]byte("durable!"))
	dev.Sync()
	dev.Write([]byte("maybe-lost"))
	if err := s.SaveManifest(storeManifest(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint("ckpt-000001", func(w io.Writer) error {
		_, werr := w.Write([]byte("image"))
		return werr
	}); err != nil {
		t.Fatal(err)
	}

	sv := s.Survivor(StoreChaos{})
	rc, err := sv.OpenSegment("seg-000000-0")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(rc)
	rc.Close()
	if len(data) < len("durable!") || string(data[:8]) != "durable!" {
		t.Fatalf("synced prefix must survive: %q", data)
	}
	if len(data) > len("durable!")+len("maybe-lost") {
		t.Fatalf("survivor grew bytes that were never written: %q", data)
	}
	if _, _, err := sv.LoadManifest(); err != nil {
		t.Fatal(err)
	}
	if _, err := sv.OpenCheckpoint("ckpt-000001"); err != nil {
		t.Fatal(err)
	}
}

func TestMemStoreFlipCheckpointByte(t *testing.T) {
	s := NewMemStore(StoreChaos{})
	if err := s.WriteCheckpoint("ckpt-000000", func(w io.Writer) error {
		_, werr := w.Write([]byte{1, 2, 3, 4})
		return werr
	}); err != nil {
		t.Fatal(err)
	}
	if !s.FlipCheckpointByte("ckpt-000000", 2) {
		t.Fatal("flip on a valid offset must succeed")
	}
	if s.FlipCheckpointByte("ckpt-000000", 99) || s.FlipCheckpointByte("nope", 0) {
		t.Fatal("flip out of range must report false")
	}
	rc, _ := s.OpenCheckpoint("ckpt-000000")
	data, _ := io.ReadAll(rc)
	rc.Close()
	if data[2] != 3^0xFF {
		t.Fatalf("byte not flipped: %v", data)
	}
}

// TestMemStoreRearmCountsFromTheCall: after Rearm the script's positions
// count from the call, not from the store's first operation.
func TestMemStoreRearmCountsFromTheCall(t *testing.T) {
	s := NewMemStore(StoreChaos{})
	for i := 0; i < 3; i++ {
		if _, err := s.CreateSegment("seg-000000-0"); err != nil {
			t.Fatal(err)
		}
	}
	s.Rearm(StoreChaos{CrashAtOp: 2})
	if err := s.SaveManifest(storeManifest(1)); err != nil { // op 1 since the rearm
		t.Fatal(err)
	}
	if err := s.SaveManifest(storeManifest(1)); !errors.Is(err, ErrCrashed) || !s.Crashed() {
		t.Fatalf("op 2 since the rearm must crash: %v", err)
	}
}
