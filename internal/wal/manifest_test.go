package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func sampleManifest() Manifest {
	return Manifest{
		Streams: 2,
		Mode:    "value",
		Checkpoints: []ManifestCheckpoint{
			{Gen: 1, Name: "ckpt-000001", Epoch: 17},
			{Gen: 2, Name: "ckpt-000002", Epoch: 42},
		},
		Segments: []ManifestSegment{
			{Stream: 0, Name: "seg-000000-0", ToEpoch: 42},
			{Stream: 1, Name: "seg-000000-1", ToEpoch: 42},
			{Stream: 0, Name: "seg-000002-0"},
			{Stream: 1, Name: "seg-000002-1"},
		},
	}
}

func TestManifestEncodeDecode(t *testing.T) {
	m := sampleManifest()
	data, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Streams != 2 || got.Mode != "value" || len(got.Checkpoints) != 2 || len(got.Segments) != 4 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Checkpoints[1].Epoch != 42 || got.Segments[2].ToEpoch != 0 {
		t.Fatalf("field mismatch: %+v", got)
	}
	// A manifest pairs at least one stream: neither side accepts zero, not
	// even under an intact seal.
	if _, err := EncodeManifest(Manifest{Streams: 0}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero-stream manifest encoded: %v", err)
	}
	body := []byte(`{"streams":0}`)
	sealed := fmt.Appendf(body, "N7MF%08x\n", crc32.ChecksumIEEE(body))
	if _, err := DecodeManifest(sealed); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sealed zero-stream manifest decoded: %v", err)
	}
}

func TestManifestDecodeRejectsCorruption(t *testing.T) {
	data, err := EncodeManifest(sampleManifest())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"truncated":  data[:len(data)-5],
		"empty":      nil,
		"no trailer": []byte(`{"streams":2}` + "\n"),
	}
	flip := append([]byte(nil), data...)
	flip[len(flip)/2] ^= 0x40
	cases["bit flip"] = flip
	for name, c := range cases {
		if _, err := DecodeManifest(c); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

func TestManifestSaveLoadFallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "MANIFEST")

	m1 := sampleManifest()
	m1.Checkpoints = m1.Checkpoints[:1]
	if err := SaveManifestFile(path, m1); err != nil {
		t.Fatal(err)
	}
	got, fellBack, err := LoadManifestFile(path)
	if err != nil || fellBack || len(got.Checkpoints) != 1 {
		t.Fatalf("first load: %+v fellBack=%v err=%v", got, fellBack, err)
	}

	m2 := sampleManifest()
	if err := SaveManifestFile(path, m2); err != nil {
		t.Fatal(err)
	}
	got, fellBack, err = LoadManifestFile(path)
	if err != nil || fellBack || len(got.Checkpoints) != 2 {
		t.Fatalf("second load: %+v fellBack=%v err=%v", got, fellBack, err)
	}

	// Tear the current file: the loader must fall back to .prev — the
	// previous save — instead of failing or trusting garbage.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got, fellBack, err = LoadManifestFile(path)
	if err != nil {
		t.Fatalf("fallback load: %v", err)
	}
	if !fellBack || len(got.Checkpoints) != 1 {
		t.Fatalf("fallback should yield the previous save: %+v fellBack=%v", got, fellBack)
	}

	// Both copies gone: a hard error, wrapped as corruption.
	if err := os.Remove(path + ".prev"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadManifestFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt with both copies bad, got %v", err)
	}
}

// TestSaveManifestFileSyncsDir: each rename of a manifest install is
// followed by a sync of its directory before the next step, so neither the
// .prev copy nor the new manifest can vanish in a crash after the save
// returns. The recorder lists the directory at every sync.
func TestSaveManifestFileSyncsDir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "MANIFEST")
	var seen [][]string
	defer func(orig func(string) error) { syncDir = orig }(syncDir)
	syncDir = func(d string) error {
		if d != dir {
			t.Errorf("synced %s, want %s", d, dir)
		}
		seen = append(seen, listDir(t, dir))
		return SyncDir(d)
	}
	for _, want := range [][][]string{
		{{"MANIFEST"}}, // tmp → MANIFEST
		{{"MANIFEST.prev", "MANIFEST.tmp"}, {"MANIFEST", "MANIFEST.prev"}}, // MANIFEST → .prev, tmp → MANIFEST
	} {
		seen = nil
		if err := SaveManifestFile(path, sampleManifest()); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(seen) != fmt.Sprint(want) {
			t.Errorf("directory at each sync %v, want %v", seen, want)
		}
	}
}

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}
