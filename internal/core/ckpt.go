package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"next700/internal/wal"
)

// errTruncateUnsafe is the defensive invariant-violation class for the
// truncation step: a sealed segment's ToEpoch exceeded the durable
// frontier, so removing it could destroy an epoch recovery still needs.
var errTruncateUnsafe = errors.New("core: segment sealed above durable frontier")

// errFenceMoved is the invariant-violation class for the quiesced capture:
// the epoch advanced between the fence and the rotation although the cycle
// held the epoch gate, so the slices' fence is not the rotation boundary.
var errFenceMoved = errors.New("core: epoch moved under the quiesce gate")

// This file is the checkpoint lifecycle: bootstrap (InitCheckpointLog /
// AttachCheckpointLog) and the Checkpointer that takes online checkpoint
// generations, rotates the log, and truncates sealed segments the
// retained generations no longer need.
//
// A checkpoint cycle for generation G is a two-phase manifest protocol.
// Every step leaves the store in a state recovery handles:
//
//  1. Fence and scan: draw the epoch fence C, then capture every table into
//     the generation's S slices (checkpoint.go), each embedding C. Value
//     logging scans fuzzily while workers run, with C = CurrentEpoch()-1:
//     any commit the scan races with tags an epoch > C, so replaying the
//     tail past C heals the capture. Command logging quiesces instead
//     (re-execution cannot heal a fuzzy base), holding the gate and the
//     epoch still through rotation, so C = CurrentEpoch() is exactly the
//     rotation boundary.
//  2. Install each slice ckpt-G-p<i> atomically (temp + CRC + rename). A
//     crash before the manifest names them leaves unreferenced objects;
//     recovery uses the previous generation.
//  3. Create segment files seg-G-* and publish them in manifest M1
//     alongside the still-active old segments. A crash here leaves empty
//     segments that recovery treats as empty tails. From M1 on, generation
//     number G is consumed even if the cycle fails.
//  4. Rotate the StreamSet onto the new segments under the commit fence:
//     the boundary epoch B is certified durable, old segments stop
//     growing, and every later commit tags > B.
//  5. Manifest M2: seal the old segments at ToEpoch = B, add the
//     checkpoint entry (gen G, epoch C, S slices), and prune — keep the
//     last K generations, drop sealed segments whose ToEpoch is at or below
//     the oldest kept checkpoint's epoch, and record the highest epoch so
//     dropped as TruncatedThrough. A crash between M1 and M2 recovers from
//     the previous generation with the full (old + new) tail.
//  6. Physically remove pruned objects. Removal is the only irreversible
//     step and happens strictly after M2 is durable, so truncation can
//     never eat an epoch recovery still needs.

// LogAttachment is the result of bootstrapping a checkpoint store: the
// fresh segment devices to open the engine with, plus the recovery state
// captured before the new segments were published.
type LogAttachment struct {
	// Devices are the newly created per-stream segment devices, in stream
	// order; pass them as Config.LogDevices.
	Devices []wal.Device
	// Gen is the generation the new segments belong to.
	Gen uint64
	// recover is the manifest snapshot to replay from — it excludes the
	// segments created by this attachment, which are empty by definition
	// and may be concurrently appended to once the engine opens.
	recover wal.Manifest
	// fellBack reports the manifest was loaded from its .prev copy.
	fellBack bool
}

// Streams returns the stream count of the attached log.
func (a *LogAttachment) Streams() int { return len(a.Devices) }

// InitCheckpointLog bootstraps an empty store: it creates the generation-0
// segments and the initial manifest. Use it for a fresh database;
// AttachCheckpointLog resumes an existing one.
func InitCheckpointLog(store CheckpointStore, streams int, mode wal.Mode) (*LogAttachment, error) {
	if streams <= 0 {
		return nil, fmt.Errorf("core: checkpoint log needs streams >= 1: %w", ErrInvalidUsage)
	}
	att := &LogAttachment{Gen: 0}
	m := wal.Manifest{Streams: streams, Mode: mode.String()}
	for i := 0; i < streams; i++ {
		name := segmentName(0, i)
		dev, err := store.CreateSegment(name)
		if err != nil {
			return nil, err
		}
		att.Devices = append(att.Devices, dev)
		m.Segments = append(m.Segments, wal.ManifestSegment{Stream: i, Name: name})
	}
	if err := store.SaveManifest(m); err != nil {
		return nil, err
	}
	att.recover = wal.Manifest{Streams: streams, Mode: m.Mode}
	return att, nil
}

// AttachCheckpointLog resumes an existing store after a shutdown or crash:
// it loads the manifest (falling back to the previous copy if the newest
// save was torn), snapshots it as the recovery source, then creates and
// publishes a fresh generation of segments for the restarting engine to
// log into. The old segments are left untouched — they remain the
// authoritative log tail until the next checkpoint seals and prunes them.
func AttachCheckpointLog(store CheckpointStore) (*LogAttachment, error) {
	m, fellBack, err := store.LoadManifest()
	if err != nil {
		return nil, err
	}
	if m.Streams <= 0 {
		return nil, fmt.Errorf("core: manifest has no streams: %w", wal.ErrCorrupt)
	}
	att := &LogAttachment{recover: m, fellBack: fellBack, Gen: manifestMaxGen(&m) + 1}
	for i := 0; i < m.Streams; i++ {
		name := segmentName(att.Gen, i)
		dev, err := store.CreateSegment(name)
		if err != nil {
			return nil, err
		}
		att.Devices = append(att.Devices, dev)
		m.Segments = append(m.Segments, wal.ManifestSegment{Stream: i, Name: name})
	}
	if err := store.SaveManifest(m); err != nil {
		return nil, err
	}
	return att, nil
}

// manifestMaxGen returns the highest generation named anywhere in the
// manifest, from checkpoint entries and segment names.
func manifestMaxGen(m *wal.Manifest) uint64 {
	var max uint64
	for i := range m.Checkpoints {
		if g := m.Checkpoints[i].Gen; g > max {
			max = g
		}
	}
	for i := range m.Segments {
		var g uint64
		var s int
		if _, err := fmt.Sscanf(m.Segments[i].Name, "seg-%d-%d", &g, &s); err == nil && g > max {
			max = g
		}
	}
	return max
}

// Checkpointer drives checkpoint cycles for an engine whose log segments
// live in a CheckpointStore. One cycle at a
// time; CheckpointNow may be called directly or via the Start/Stop
// background loop.
type Checkpointer struct {
	e     *Engine
	store CheckpointStore
	keep  int

	mu       sync.Mutex
	manifest wal.Manifest
	nextGen  uint64
	cur      []wal.Device

	loopMu sync.Mutex
	stopCh chan struct{}
	doneCh chan struct{}

	cycles   int
	failures int
	lastErr  error
}

// CheckpointerStats is a snapshot of checkpointer progress.
type CheckpointerStats struct {
	// Cycles is the number of completed checkpoint generations.
	Cycles int
	// Failures is the number of cycles that failed: before rotation no
	// generation is installed; after it the log has moved on to the new
	// segments and the cycle's error says what was left undone.
	Failures int
	// LastErr is the most recent cycle failure (nil after a success).
	LastErr error
	// Generations is the number of checkpoint generations currently
	// retained in the manifest.
	Generations int
	// Segments is the number of log segments currently in the manifest.
	Segments int
}

// NewCheckpointer builds a checkpointer over the engine's log (any stream
// count).
// devices must be the active segment devices the engine was opened with
// (LogAttachment.Devices); keep is the number of checkpoint generations to
// retain (minimum 1, default 2).
func (e *Engine) NewCheckpointer(store CheckpointStore, keep int, devices []wal.Device) (*Checkpointer, error) {
	if e.logs == nil {
		return nil, fmt.Errorf("core: checkpointer requires a logging engine: %w", ErrInvalidUsage)
	}
	if len(devices) != e.logs.NumStreams() {
		return nil, fmt.Errorf("core: checkpointer got %d devices for %d streams: %w",
			len(devices), e.logs.NumStreams(), ErrInvalidUsage)
	}
	if keep <= 0 {
		keep = 2
	}
	m, _, err := store.LoadManifest()
	if err != nil {
		return nil, err
	}
	return &Checkpointer{
		e:        e,
		store:    store,
		keep:     keep,
		manifest: m,
		nextGen:  manifestMaxGen(&m) + 1,
		cur:      append([]wal.Device(nil), devices...),
	}, nil
}

// Stats returns a progress snapshot.
func (c *Checkpointer) Stats() CheckpointerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CheckpointerStats{
		Cycles:      c.cycles,
		Failures:    c.failures,
		LastErr:     c.lastErr,
		Generations: len(c.manifest.Checkpoints),
		Segments:    len(c.manifest.Segments),
	}
}

// Manifest returns a copy of the last manifest this checkpointer wrote or
// loaded.
func (c *Checkpointer) Manifest() wal.Manifest {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cloneManifest(c.manifest)
}

// closeDevice releases a segment device the log no longer writes, when its
// store hands out closable ones.
func closeDevice(d wal.Device) {
	if cl, ok := d.(io.Closer); ok {
		cl.Close()
	}
}

// cloneManifest copies m deeply enough to edit its lists.
func cloneManifest(m wal.Manifest) wal.Manifest {
	m.Checkpoints = append([]wal.ManifestCheckpoint(nil), m.Checkpoints...)
	m.Segments = append([]wal.ManifestSegment(nil), m.Segments...)
	return m
}

// CheckpointNow runs one full checkpoint cycle synchronously. A failure
// before rotation installs nothing and the engine keeps running on its
// current log; a failure after it leaves the engine on the new segments
// with the generation number consumed. Either way the store may retain a
// harmless partial (uninstalled slices, empty published segments, a pruned
// object whose removal failed) that later cycles and recovery tolerate.
func (c *Checkpointer) CheckpointNow() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.cycle()
	if err != nil {
		c.failures++
		c.lastErr = err
		return err
	}
	c.cycles++
	c.lastErr = nil
	return nil
}

// cycle is CheckpointNow's body, with c.mu held.
func (c *Checkpointer) cycle() error {
	e := c.e
	if e.logs.Failed() {
		return e.logs.Err()
	}
	// A cycle defers while any partition is quarantined (the mask is only
	// ever set under PartitionWAL): the dead stream cannot rotate, and a
	// slice of the quarantined partition would capture memory state ahead
	// of its durable frontier. The loop retries after RecoverPartition lifts
	// the quarantine.
	if mask := e.quarMask.Load(); mask != 0 {
		return fmt.Errorf("%w (mask %#x)", ErrCheckpointQuarantined, mask)
	}
	gen := c.nextGen

	// Steps 1–4. The fence is drawn once, before the scan, and is both the
	// epoch every slice embeds and the manifest entry's Epoch. Value logging
	// scans with workers running, under every protocol: the scan reads each
	// row through the protocol (committedRow), so it sees only committed
	// images, and it fences one below the open epoch and takes the commit
	// fence only to rotate. Command replay re-executes procedures, so it
	// cannot heal a fuzzy capture: it holds the quiesce gate and the commit
	// fence — which is also the log's epoch gate — from fence to rotation.
	// Nothing can then commit or bump the epoch, so the open epoch itself is
	// the fence, and it is the boundary Rotate seals at.
	fuzzy := e.cfg.LogMode == wal.ModeValue
	var (
		newDevs         []wal.Device
		fence, boundary uint64
		err             error
	)
	if fuzzy {
		if fence = e.logs.CurrentEpoch(); fence > 0 {
			fence--
		}
		if newDevs, err = c.stage(gen, fence); err == nil {
			e.ckptFence.Lock()
			boundary, err = e.logs.Rotate(newDevs)
			e.ckptFence.Unlock()
		}
	} else {
		e.quiesce.Lock()
		e.ckptFence.Lock()
		fence = e.logs.CurrentEpoch()
		if newDevs, err = c.stage(gen, fence); err == nil {
			boundary, err = e.logs.Rotate(newDevs)
		}
		e.ckptFence.Unlock()
		e.quiesce.Unlock()
	}
	if err != nil {
		// A rotation that failed part-way (a stream died in it) has already
		// moved the other streams: keep every handle until one completes.
		c.cur = append(c.cur, newDevs...)
		return fmt.Errorf("core: checkpoint gen %d: %w", gen, err)
	}
	// The swapped-out devices are sealed and no longer written; release
	// their handles.
	for _, d := range c.cur {
		closeDevice(d)
	}
	c.cur = newDevs
	if !fuzzy && boundary != fence {
		return fmt.Errorf("%w: checkpoint gen %d fenced at %d, rotated at %d", errFenceMoved, gen, fence, boundary)
	}

	// M2: seal the swapped-out segments (everything in M1 but the new
	// segments at its end), install the checkpoint entry, and prune
	// generations and fully covered sealed segments.
	m2 := cloneManifest(c.manifest)
	for i := range m2.Segments[:len(m2.Segments)-len(newDevs)] {
		if sg := &m2.Segments[i]; sg.ToEpoch == 0 {
			sg.ToEpoch = boundary
		}
	}
	m2.Checkpoints = append(m2.Checkpoints, wal.ManifestCheckpoint{
		Gen: gen, Name: checkpointName(gen), Epoch: fence, Slices: e.checkpointSlices(),
	})
	var dropCkpts []wal.ManifestCheckpoint
	if n := len(m2.Checkpoints) - c.keep; n > 0 {
		dropCkpts = append(dropCkpts, m2.Checkpoints[:n]...)
		m2.Checkpoints = m2.Checkpoints[n:]
	}
	// Everything at or below the oldest retained checkpoint's epoch is
	// recoverable from that checkpoint; sealed segments fully below it are
	// dead weight. The durable-frontier assertion is defensive: rotation
	// certifies every sealed boundary durable, so a violation means an
	// epoch recovery might still need was about to leave the manifest.
	cMin, durable := m2.Checkpoints[0].Epoch, e.logs.DurableEpoch()
	var dropSegs []wal.ManifestSegment
	liveSegs := m2.Segments[:0]
	for _, sg := range m2.Segments {
		if sg.ToEpoch == 0 || sg.ToEpoch > cMin {
			liveSegs = append(liveSegs, sg)
			continue
		}
		if sg.ToEpoch > durable {
			return fmt.Errorf("%w: refusing to truncate %s sealed at epoch %d, durable frontier %d",
				errTruncateUnsafe, sg.Name, sg.ToEpoch, durable)
		}
		dropSegs = append(dropSegs, sg)
		if sg.ToEpoch > m2.TruncatedThrough {
			m2.TruncatedThrough = sg.ToEpoch
		}
	}
	m2.Segments = liveSegs
	if err := c.store.SaveManifest(m2); err != nil {
		return fmt.Errorf("core: checkpoint gen %d manifest M2: %w", gen, err)
	}
	c.manifest = m2

	// Physical removal, strictly after M2 is durable. Nothing names these
	// objects any more, so one that will not go away is reported and left
	// behind; it never holds up the objects after it or the next cycle.
	var errs []error
	for _, sg := range dropSegs {
		if err := c.store.RemoveSegment(sg.Name); err != nil {
			errs = append(errs, fmt.Errorf("core: checkpoint gen %d truncate %s: %w", gen, sg.Name, err))
		}
	}
	for _, ck := range dropCkpts {
		for p := 0; p < ck.Slices; p++ {
			if err := c.store.RemoveCheckpoint(sliceName(ck.Name, p)); err != nil {
				errs = append(errs, fmt.Errorf("core: checkpoint gen %d prune %s: %w", gen, sliceName(ck.Name, p), err))
			}
		}
	}
	return errors.Join(errs...)
}

// stage runs the steps of a cycle that precede rotation: write generation
// gen's slices, each fenced at fence, then create the generation's segments
// and publish them — M1, the old manifest with the new segments appended —
// alongside the still-active old ones. It returns the new devices in stream
// order. Once M1 is saved generation gen is consumed, whatever fails later:
// the log is, or after a part-failed rotation may be, appending to
// seg-gen-*, and a later cycle that reused the number would re-create —
// truncate — them.
func (c *Checkpointer) stage(gen, fence uint64) ([]wal.Device, error) {
	e := c.e
	slices := e.checkpointSlices()
	for p := 0; p < slices; p++ {
		err := c.store.WriteCheckpoint(sliceName(checkpointName(gen), p), func(w io.Writer) error {
			return e.writeSlice(w, p, slices, fence)
		})
		if err != nil {
			return nil, fmt.Errorf("scan: %w", err)
		}
	}
	m1 := cloneManifest(c.manifest)
	newDevs := make([]wal.Device, e.logs.NumStreams())
	for i := range newDevs {
		dev, err := c.store.CreateSegment(segmentName(gen, i))
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", i, err)
		}
		newDevs[i] = dev
		m1.Segments = append(m1.Segments, wal.ManifestSegment{Stream: i, Name: segmentName(gen, i)})
	}
	if err := c.store.SaveManifest(m1); err != nil {
		return nil, fmt.Errorf("manifest M1: %w", err)
	}
	c.manifest, c.nextGen = m1, gen+1
	return newDevs, nil
}

// Start launches the background checkpoint loop with the given interval.
// A failed cycle is recorded and the loop keeps going — a sticky log
// failure makes every subsequent cycle fail fast without touching the
// store. Stop (or a second Start) must be called before engine Close.
//
//next700:locked(Checkpointer.loopMu: lifecycle start runs once per engine; launching the loop goroutine under the lifecycle mutex is the point)
func (c *Checkpointer) Start(interval time.Duration) {
	c.loopMu.Lock()
	defer c.loopMu.Unlock()
	if c.stopCh != nil {
		return
	}
	c.stopCh = make(chan struct{})
	c.doneCh = make(chan struct{})
	go c.loop(interval, c.stopCh, c.doneCh)
}

// Stop halts the background loop and waits for any in-flight cycle to
// finish. Safe to call when the loop was never started.
func (c *Checkpointer) Stop() {
	c.loopMu.Lock()
	stop, done := c.stopCh, c.doneCh
	c.stopCh, c.doneCh = nil, nil
	c.loopMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done //next700:allowwait(shutdown join: stop close guarantees the loop exits after at most one cycle)
}

// loop is the background checkpoint driver.
func (c *Checkpointer) loop(interval time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			// Errors are recorded in Stats; the loop never wedges on them.
			_ = c.CheckpointNow()
		}
	}
}
