package fault

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"sync"

	"next700/internal/wal"
	"next700/internal/xrand"
)

// MemStore is the chaos checkpoint store: an in-memory implementation of
// the engine's CheckpointStore contract (it satisfies the interface
// structurally; this package cannot import core) whose mutations can crash
// at any scripted point in the checkpoint lifecycle. The torture harness
// uses it to prove that a crash landing between any two steps of a
// checkpoint cycle — mid-scan, after the checkpoint installs but before
// the manifest seals, after sealing but before truncation — still recovers
// to a prefix-consistent state.
//
// Crash semantics mirror a real disk behind the DirStore discipline:
//   - An installed checkpoint object survives whole (temp-and-rename).
//   - A checkpoint whose write crashes never appears at all.
//   - SaveManifest keeps the previous manifest as a fallback; a torn save
//     loses the current copy but never the previous one.
//   - Segment bytes survive to their synced watermark, plus a seeded
//     portion of the unsynced tail (the torn-tail crash model).
//
// After the scripted crash every mutation — including writes through
// previously created segment devices — fails with ErrCrashed, so the
// engine's log goes sticky exactly as it would on a died disk. Survivor()
// then reconstructs the post-reboot disk image to recover from.
type StoreChaos struct {
	// Seed drives the surviving length of unsynced segment tails in
	// Survivor.
	Seed uint64
	// CrashAtOp, when > 0, crashes the store at the Nth mutating operation
	// (1-based) — WriteCheckpoint, CreateSegment, SaveManifest,
	// RemoveCheckpoint, RemoveSegment all count. The operation fails with
	// ErrCrashed without taking effect, and the store is dead from then on.
	CrashAtOp int
	// TearManifestAtSave, when > 0, tears the Nth SaveManifest (1-based):
	// the current manifest is replaced by a truncated, unloadable image,
	// the previous manifest survives as the fallback, and the store
	// crashes sticky.
	TearManifestAtSave int
	// FailCheckpointAt, when > 0, fails the Nth WriteCheckpoint (1-based)
	// without installing an object and without crashing the store — the
	// clean cycle-failure path.
	FailCheckpointAt int
}

// MemStore implements the CheckpointStore contract in memory with planned
// chaos. The zero value is not usable; call NewMemStore.
type MemStore struct {
	mu    sync.Mutex
	chaos StoreChaos

	ops        int
	saves      int
	ckptWrites int
	crashed    bool

	checkpoints map[string][]byte
	segments    map[string]*MemDevice
	manifest    []byte // encoded current manifest (possibly torn)
	prev        []byte // encoded previous manifest
}

// NewMemStore builds an empty chaos store.
func NewMemStore(chaos StoreChaos) *MemStore {
	return &MemStore{
		chaos:       chaos,
		checkpoints: make(map[string][]byte),
		segments:    make(map[string]*MemDevice),
	}
}

// op gates one mutating operation, with s.mu held.
func (s *MemStore) op() error {
	if s.crashed {
		return ErrCrashed
	}
	s.ops++
	if c := s.chaos.CrashAtOp; c > 0 && s.ops >= c {
		s.crashed = true
		return fmt.Errorf("%w (store op %d)", ErrCrashed, s.ops)
	}
	return nil
}

// Rearm replaces the chaos script and restarts its operation counts, so the
// script's positions count from the call: a harness arms each round after
// bootstrap and recovery, whose own operations are never the target.
func (s *MemStore) Rearm(chaos StoreChaos) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chaos, s.ops, s.saves, s.ckptWrites = chaos, 0, 0, 0
}

// Crashed reports whether the scripted crash has fired.
func (s *MemStore) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// WriteCheckpoint implements the CheckpointStore contract: the object
// appears only if the producer and the store both succeed.
func (s *MemStore) WriteCheckpoint(name string, write func(w io.Writer) error) error {
	s.mu.Lock()
	if err := s.op(); err != nil {
		s.mu.Unlock()
		return err
	}
	s.ckptWrites++
	inject := s.chaos.FailCheckpointAt > 0 && s.ckptWrites == s.chaos.FailCheckpointAt
	s.mu.Unlock()

	// The scan runs outside the store mutex: it reads the live engine and
	// may take a while.
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	if inject {
		return &TransientError{Op: "checkpoint write"}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	s.checkpoints[name] = append([]byte(nil), buf.Bytes()...)
	return nil
}

// OpenCheckpoint implements the CheckpointStore contract.
func (s *MemStore) OpenCheckpoint(name string) (io.ReadCloser, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.checkpoints[name]
	if !ok {
		return nil, fmt.Errorf("fault: no checkpoint %q: %w", name, fs.ErrNotExist)
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

// RemoveCheckpoint implements the CheckpointStore contract.
func (s *MemStore) RemoveCheckpoint(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.op(); err != nil {
		return err
	}
	delete(s.checkpoints, name)
	return nil
}

// CreateSegment implements the CheckpointStore contract. The returned
// device routes through the store's crash gate: once the store is dead,
// appends and syncs fail sticky, as on a died disk.
func (s *MemStore) CreateSegment(name string) (wal.Device, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.op(); err != nil {
		return nil, err
	}
	d := &MemDevice{}
	s.segments[name] = d
	return &storeSegment{s: s, d: d}, nil
}

// OpenSegment implements the CheckpointStore contract. The reader reads the
// device's bytes in place, as they were at the open: Write only appends
// beyond the view's capacity and TearSegment installs a fresh slice, so
// nothing written later shows through it.
func (s *MemStore) OpenSegment(name string) (io.ReadCloser, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.segments[name]
	if !ok {
		return nil, fmt.Errorf("fault: no segment %q: %w", name, fs.ErrNotExist)
	}
	d.mu.Lock()
	view := d.data[:len(d.data):len(d.data)]
	d.mu.Unlock()
	return io.NopCloser(bytes.NewReader(view)), nil
}

// RemoveSegment implements the CheckpointStore contract.
func (s *MemStore) RemoveSegment(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.op(); err != nil {
		return err
	}
	delete(s.segments, name)
	return nil
}

// SaveManifest implements the CheckpointStore contract with the
// current-plus-previous discipline of wal.SaveManifestFile.
func (s *MemStore) SaveManifest(m wal.Manifest) error {
	enc, err := wal.EncodeManifest(m)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.op(); err != nil {
		return err
	}
	s.saves++
	if t := s.chaos.TearManifestAtSave; t > 0 && s.saves == t {
		if s.manifest != nil {
			s.prev = s.manifest
		}
		s.manifest = enc[:len(enc)/2]
		s.crashed = true
		return fmt.Errorf("%w (torn manifest save %d)", ErrCrashed, s.saves)
	}
	if s.manifest != nil {
		s.prev = s.manifest
	}
	s.manifest = enc
	return nil
}

// LoadManifest implements the CheckpointStore contract: the current copy,
// falling back to the previous one.
func (s *MemStore) LoadManifest() (wal.Manifest, bool, error) {
	s.mu.Lock()
	cur, prev := s.manifest, s.prev
	s.mu.Unlock()
	if cur != nil {
		if m, err := wal.DecodeManifest(cur); err == nil {
			return m, false, nil
		}
	}
	if prev != nil {
		if m, err := wal.DecodeManifest(prev); err == nil {
			return m, true, nil
		}
	}
	return wal.Manifest{}, false, fmt.Errorf("fault: no loadable manifest: %w", wal.ErrCorrupt)
}

// FlipCheckpointByte corrupts one byte of a stored checkpoint object,
// modeling at-rest media corruption. Reports whether the object existed
// and was long enough.
func (s *MemStore) FlipCheckpointByte(name string, offset int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	data := s.checkpoints[name]
	if offset < 0 || offset >= len(data) {
		return false
	}
	data[offset] ^= 0xFF
	return true
}

// CheckpointNames returns the installed checkpoint object names.
func (s *MemStore) CheckpointNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.checkpoints))
	for n := range s.checkpoints {
		out = append(out, n)
	}
	return out
}

// SegmentNames returns the live segment names.
func (s *MemStore) SegmentNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.segments))
	for n := range s.segments {
		out = append(out, n)
	}
	return out
}

// TotalSegmentBytes sums all live segment contents — the measure the
// WAL-bounded torture lane asserts on.
func (s *MemStore) TotalSegmentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, d := range s.segments {
		n += int64(d.Len())
	}
	return n
}

// Survivor reconstructs the post-reboot disk image: installed checkpoints
// and manifests survive whole, segment bytes survive to their synced
// watermark plus a seeded cut of the unsynced tail. The survivor has no
// chaos of its own (pass chaos for the next incarnation's script).
func (s *MemStore) Survivor(chaos StoreChaos) *MemStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	rng := xrand.New(s.chaos.Seed ^ 0x5eed)
	out := NewMemStore(chaos)
	for n, data := range s.checkpoints {
		out.checkpoints[n] = append([]byte(nil), data...)
	}
	if s.manifest != nil {
		out.manifest = append([]byte(nil), s.manifest...)
	}
	if s.prev != nil {
		out.prev = append([]byte(nil), s.prev...)
	}
	// Name order keeps the seeded cuts a function of the chaos seed alone.
	names := make([]string, 0, len(s.segments))
	for n := range s.segments {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		nd := &MemDevice{}
		nd.Write(s.segments[n].surviving(rng))
		nd.Sync()
		out.segments[n] = nd
	}
	return out
}

// surviving returns what a crash leaves of the device: the synced prefix
// plus a cut of the unsynced tail drawn from rng.
func (d *MemDevice) surviving(rng *xrand.RNG) []byte {
	all, synced := d.Bytes(), d.SyncedLen()
	keep := synced
	if tail := len(all) - synced; tail > 0 {
		keep += int(rng.Uint64n(uint64(tail + 1)))
	}
	return all[:keep]
}

// TearSegment is Survivor's crash model applied in place to one segment
// whose device died under a running engine: its synced prefix stays, its
// unsynced tail is cut at an offset drawn from rng. Nothing may be writing
// the segment. Reports whether the segment exists.
func (s *MemStore) TearSegment(name string, rng *xrand.RNG) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.segments[name]
	if ok {
		kept := d.surviving(rng)
		d.mu.Lock()
		d.data = kept
		d.mu.Unlock()
	}
	return ok
}

// storeSegment routes a segment device through the store's crash gate.
type storeSegment struct {
	s *MemStore
	d *MemDevice
}

// Write implements wal.Device.
func (sg *storeSegment) Write(p []byte) (int, error) {
	sg.s.mu.Lock()
	crashed := sg.s.crashed
	sg.s.mu.Unlock()
	if crashed {
		return 0, ErrCrashed
	}
	return sg.d.Write(p)
}

// Sync implements wal.Device.
func (sg *storeSegment) Sync() error {
	sg.s.mu.Lock()
	crashed := sg.s.crashed
	sg.s.mu.Unlock()
	if crashed {
		return ErrCrashed
	}
	return sg.d.Sync()
}
