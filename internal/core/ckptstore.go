package core

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"next700/internal/wal"
)

// CheckpointStore is the durable home of the bounded-recovery state: the
// checkpoint generations, the per-stream WAL segments, and the recovery
// manifest that ties them together. The engine's checkpointer drives it; the
// torture harness substitutes a chaos implementation (fault.MemStore) to
// crash, tear, and corrupt every object in the lifecycle.
//
// Contract highlights:
//   - Every mutating operation — WriteCheckpoint, RemoveCheckpoint,
//     CreateSegment, RemoveSegment, SaveManifest — is durable on return: a
//     crash after it returns cannot undo the object's creation, removal or
//     installation.
//   - WriteCheckpoint is atomic: the object named name exists only if write
//     returned nil and the installation completed. A crash mid-write must
//     never leave a partial object under the final name.
//   - SaveManifest is atomic with history: a failed or torn save must leave
//     the previously saved manifest loadable (LoadManifest falls back).
//   - OpenCheckpoint and OpenSegment on an object the store does not have
//     return an error satisfying errors.Is(err, fs.ErrNotExist). Recovery
//     reads only such a segment as empty (the create-then-publish crash
//     window leaves exactly that state); any other OpenSegment error fails
//     it.
type CheckpointStore interface {
	// WriteCheckpoint atomically creates the named checkpoint object with
	// the bytes produced by write.
	WriteCheckpoint(name string, write func(w io.Writer) error) error
	// OpenCheckpoint opens a checkpoint object for reading.
	OpenCheckpoint(name string) (io.ReadCloser, error)
	// RemoveCheckpoint deletes a checkpoint object.
	RemoveCheckpoint(name string) error
	// CreateSegment creates (or truncates) a log segment open for append.
	CreateSegment(name string) (wal.Device, error)
	// OpenSegment opens a segment's bytes for reading.
	OpenSegment(name string) (io.ReadCloser, error)
	// RemoveSegment deletes a segment.
	RemoveSegment(name string) error
	// SaveManifest durably installs the recovery manifest.
	SaveManifest(m wal.Manifest) error
	// LoadManifest returns the newest loadable manifest; the bool reports
	// whether a fallback (previous) copy had to be used.
	LoadManifest() (wal.Manifest, bool, error)
}

// DirStore is the file-backed CheckpointStore: every object is a file in
// one directory, checkpoints and the manifest are installed via temp file +
// fsync + rename, and the manifest keeps a .prev fallback copy (see
// wal.SaveManifestFile). Every create, rename and remove is followed by a
// sync of the directory before the call returns.
type DirStore struct {
	dir     string
	syncDir func(dir string) error // wal.SyncDir; tests record through it
}

// NewDirStore creates the directory if needed and returns the store.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirStore{dir: dir, syncDir: wal.SyncDir}, nil
}

// Dir returns the backing directory.
func (s *DirStore) Dir() string { return s.dir }

func (s *DirStore) path(name string) string { return filepath.Join(s.dir, name) }

// WriteCheckpoint implements CheckpointStore with the temp-file-and-rename
// discipline: the final name appears only after the full image is written
// and fsynced, so a crash mid-checkpoint leaves no generation at all rather
// than a torn one.
func (s *DirStore) WriteCheckpoint(name string, write func(w io.Writer) error) error {
	tmp := s.path(name) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := write(bw); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, s.path(name)); err != nil {
		return err
	}
	return s.syncDir(s.dir)
}

// OpenCheckpoint implements CheckpointStore.
func (s *DirStore) OpenCheckpoint(name string) (io.ReadCloser, error) {
	return os.Open(s.path(name))
}

// RemoveCheckpoint implements CheckpointStore.
func (s *DirStore) RemoveCheckpoint(name string) error {
	return s.remove(name)
}

// CreateSegment implements CheckpointStore. The returned *os.File is the
// wal.Device (File.Sync is the durability barrier) and also an io.Closer
// the checkpointer closes once the segment is sealed and swapped out.
func (s *DirStore) CreateSegment(name string) (wal.Device, error) {
	f, err := os.Create(s.path(name))
	if err != nil {
		return nil, err
	}
	if err := s.syncDir(s.dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// OpenSegment implements CheckpointStore.
func (s *DirStore) OpenSegment(name string) (io.ReadCloser, error) {
	return os.Open(s.path(name))
}

// RemoveSegment implements CheckpointStore.
func (s *DirStore) RemoveSegment(name string) error {
	return s.remove(name)
}

// remove deletes the named object and makes the removal durable.
func (s *DirStore) remove(name string) error {
	if err := os.Remove(s.path(name)); err != nil {
		return err
	}
	return s.syncDir(s.dir)
}

// SaveManifest implements CheckpointStore via wal.SaveManifestFile's
// CRC-sealed atomic install with a .prev fallback copy.
func (s *DirStore) SaveManifest(m wal.Manifest) error {
	return wal.SaveManifestFile(s.path(manifestName), m)
}

// LoadManifest implements CheckpointStore.
func (s *DirStore) LoadManifest() (wal.Manifest, bool, error) {
	return wal.LoadManifestFile(s.path(manifestName))
}

// manifestName is the manifest file name inside a DirStore directory.
const manifestName = "MANIFEST"

// checkpointName renders generation gen's manifest name, the stem of its
// slice objects.
func checkpointName(gen uint64) string { return fmt.Sprintf("ckpt-%06d", gen) }

// sliceName renders the store object name for slice part of a checkpoint
// generation (0 <= part < ManifestCheckpoint.Slices).
func sliceName(ckptName string, part int) string {
	return fmt.Sprintf("%s-p%d", ckptName, part)
}

// CheckpointSliceName exposes the slice object naming scheme: harnesses use
// it to address one slice of a manifest checkpoint entry (for corruption
// injection and single-partition recovery).
func CheckpointSliceName(ckptName string, part int) string { return sliceName(ckptName, part) }

// segmentName renders the store object name for the segment opened at
// generation gen on the given stream. Generation 0 is the bootstrap segment.
func segmentName(gen uint64, stream int) string {
	return fmt.Sprintf("seg-%06d-%d", gen, stream)
}

var _ CheckpointStore = (*DirStore)(nil)
