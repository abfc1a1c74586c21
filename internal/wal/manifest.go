package wal

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// The recovery manifest is the root of trust for bounded recovery: it names
// the checkpoint generations, the log segments each stream has accumulated,
// and the epoch each sealed segment runs through. It is small and rewritten
// on every checkpoint cycle, so it gets the full durability treatment the
// log itself gets: a CRC seal over the serialized body, an atomic
// temp-file-and-rename install, and a retained previous copy (<path>.prev)
// the loader falls back to when the current file is torn or corrupt.

// ManifestCheckpoint names one checkpoint generation.
type ManifestCheckpoint struct {
	// Gen is the monotonically increasing generation number.
	Gen uint64 `json:"gen"`
	// Name is the store object holding the checkpoint image.
	Name string `json:"name"`
	// Epoch is the complete-through epoch: the checkpoint contains the
	// effects of every commit tagged <= Epoch (and possibly some later ones,
	// which replay overwrites idempotently in value mode). Recovery from
	// this generation replays only records with epoch > Epoch.
	Epoch uint64 `json:"epoch"`
	// Slices is the number of store objects the image is cut into, named
	// Name + "-p<i>": one per partition under a partition-sharded log, one
	// otherwise. Each has its own CRC and embedded epoch fence, so a corrupt
	// slice degrades only its own recovery path. Always >= 1; a 0 is an
	// entry written by a build that stored a whole image under Name, which
	// this one does not read.
	Slices int `json:"slices,omitempty"`
}

// ManifestSegment names one log segment of one stream.
type ManifestSegment struct {
	// Stream is the stream index the segment belongs to.
	Stream int `json:"stream"`
	// Name is the store object holding the segment bytes.
	Name string `json:"name"`
	// ToEpoch is the sealing epoch: every record in the segment is tagged
	// <= ToEpoch. Zero means the segment is still active (open for append)
	// and may contain any epoch.
	ToEpoch uint64 `json:"to_epoch,omitempty"`
}

// manifestTrailerLen is the length of the CRC trailer line appended to an
// encoded manifest: "N7MF" + 8 hex digits + newline.
const manifestTrailerLen = 4 + 8 + 1

// EncodeManifest serializes m with a trailing CRC seal line. The body stays
// human-readable JSON; the trailer makes a torn or bit-flipped file
// detectable instead of silently trusted.
func EncodeManifest(m Manifest) ([]byte, error) {
	if m.Streams <= 0 {
		return nil, fmt.Errorf("wal: manifest needs a positive stream count, have %d: %w", m.Streams, ErrCorrupt)
	}
	body, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	crc := crc32.ChecksumIEEE(body)
	out := make([]byte, 0, len(body)+manifestTrailerLen)
	out = append(out, body...)
	out = append(out, 'N', '7', 'M', 'F')
	var hex [8]byte
	const digits = "0123456789abcdef"
	for i := 0; i < 8; i++ {
		hex[i] = digits[(crc>>uint(28-4*i))&0xf]
	}
	out = append(out, hex[:]...)
	out = append(out, '\n')
	return out, nil
}

// DecodeManifest parses and CRC-verifies an encoded manifest. Any framing or
// checksum failure wraps ErrCorrupt so callers can fall back to a previous
// copy.
func DecodeManifest(data []byte) (Manifest, error) {
	var m Manifest
	if len(data) < manifestTrailerLen {
		return m, fmt.Errorf("wal: manifest too short: %w", ErrCorrupt)
	}
	body, trailer := data[:len(data)-manifestTrailerLen], data[len(data)-manifestTrailerLen:]
	if string(trailer[:4]) != "N7MF" || trailer[12] != '\n' {
		return m, fmt.Errorf("wal: manifest missing CRC trailer: %w", ErrCorrupt)
	}
	var want uint32
	for _, c := range trailer[4:12] {
		var v uint32
		switch {
		case c >= '0' && c <= '9':
			v = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			v = uint32(c-'a') + 10
		default:
			return m, fmt.Errorf("wal: manifest CRC trailer malformed: %w", ErrCorrupt)
		}
		want = want<<4 | v
	}
	if crc32.ChecksumIEEE(body) != want {
		return m, fmt.Errorf("wal: manifest CRC mismatch: %w", ErrCorrupt)
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return m, fmt.Errorf("wal: manifest body: %v: %w", err, ErrCorrupt)
	}
	if m.Streams <= 0 {
		return m, fmt.Errorf("wal: manifest stream count %d invalid: %w", m.Streams, ErrCorrupt)
	}
	return m, nil
}

// SyncDir fsyncs directory dir, which makes the creates, renames and removes
// already made in it durable: an fsync of a file covers its contents, not
// the directory entry that names it.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir is SyncDir behind a seam the tests record through.
var syncDir = SyncDir

// SaveManifestFile atomically installs m at path: the encoded bytes are
// written to a temp file and fsynced, the current file (if any) is preserved
// as <path>.prev, and the temp file is renamed into place, each rename made
// durable by a sync of the directory before the next step. A crash at any
// point leaves either the old manifest, the old manifest under .prev, or the
// new one — never a half-written file that parses.
func SaveManifestFile(path string, m Manifest) error {
	data, err := EncodeManifest(m)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if _, err := os.Stat(path); err == nil {
		// Preserve the previous generation for torn-install fallback. If the
		// rename below then fails or the process dies, LoadManifestFile still
		// finds a valid manifest at .prev.
		if err := os.Rename(path, path+".prev"); err != nil {
			return err
		}
		if err := syncDir(filepath.Dir(path)); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// LoadManifestFile reads the manifest at path, falling back to <path>.prev
// when the current file is missing, torn, or corrupt. The returned bool
// reports whether the fallback copy was used.
func LoadManifestFile(path string) (Manifest, bool, error) {
	data, rerr := os.ReadFile(path)
	if rerr == nil {
		if m, err := DecodeManifest(data); err == nil {
			return m, false, nil
		} else {
			rerr = err
		}
	}
	prev, perr := os.ReadFile(path + ".prev")
	if perr == nil {
		if m, err := DecodeManifest(prev); err == nil {
			return m, true, nil
		} else {
			perr = err
		}
	}
	return Manifest{}, false, fmt.Errorf("wal: no valid manifest at %s (%v) or fallback (%v): %w", path, rerr, perr, ErrCorrupt)
}
