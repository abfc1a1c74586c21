// Package torture is the seeded fault-injection harness over the product of
// the engine's durability features. One Scenario is one cell of that product —
// concurrency protocol, log streams, partition-sharded log, log mode,
// checkpointing, deterministic execution — under one fault arm. Run drives
// the same per-worker transfer plans in every cell against an engine whose log
// lives in a fault.MemStore, injects the fault, reboots from what the store's
// disk would hold, and holds every recovered engine to one oracle:
//
//   - Durability: every acknowledged commit survives (acked ⊆ recovered).
//   - Consistency: nothing beyond what was committed comes back (recovered
//     ≤ acked + in flight).
//   - Atomicity: each worker's accounts sum to zero — every transfer is
//     balanced, so no partial write set is visible.
//   - State: every account is exactly the replay of the recovered prefix of
//     each worker's plan.
//   - Determinism: under Det the state digest equals a reference run's
//     digest after some batch k, with acked ≤ k ≤ acked + 1.
//   - Isolation: the stamped Adya probe finds no anomaly on the final engine
//     wherever ad-hoc value-logged transactions are legal.
//
// A cell is illegal exactly when the engine rejects it: Run returns the error
// core.Open or core.NewDetExecutor wraps around core.ErrInvalidUsage (and the
// same class for interactive workers on a protocol outside cc.Names, which is
// how cc itself marks QSTORE as scheduler-only). There is no skip list. The
// workload, the fault plan and the crash model are pure functions of the
// Scenario, so a failing seed replays its fault identically.
package torture

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"next700/internal/cc"
	"next700/internal/core"
	"next700/internal/det"
	"next700/internal/fault"
	"next700/internal/storage"
	"next700/internal/verify"
	"next700/internal/wal"
	"next700/internal/xrand"
)

// Typed oracle violations. Run wraps them with the seed and detail so a
// failure message is enough to replay the case.
var (
	ErrDurability  = errors.New("torture: durability violation (acked commit lost)")
	ErrAtomicity   = errors.New("torture: atomicity violation (partial write set visible)")
	ErrConsistency = errors.New("torture: consistency violation (recovered state beyond commit prefix)")
	// ErrState: the recovered state is not byte-for-byte the replay of each
	// worker's recovered prefix of its transfer plan.
	ErrState = errors.New("torture: state violation (recovered state not explainable by the committed prefix)")
	// ErrIsolation: the stamped isolation probe found an anomaly.
	ErrIsolation = errors.New("torture: isolation violation")
	// ErrDeterminism: a deterministic cell's recovered digest matches no
	// batch boundary of the reference run.
	ErrDeterminism = errors.New("torture: determinism violation (recovered digest matches no reference batch)")
	// ErrPartitionClass: a loss on the dark partition did not classify as
	// core.ErrPartitionUnavailable.
	ErrPartitionClass = errors.New("torture: partition loss with wrong error class")
	// ErrPartitionBleed: a partition other than the dark one degraded.
	ErrPartitionBleed = errors.New("torture: healthy partition degraded")
)

// Fault is a fault arm: what goes wrong in every round of a cell. Positions
// (byte offsets, store operations) are drawn from the Seed.
type Fault string

const (
	// FaultNone shuts the engine down cleanly before the reboot.
	FaultNone Fault = "none"
	// FaultCrash tears every stream at a seeded byte offset and fails every
	// fifth sync transiently; the reboot keeps each segment's synced prefix
	// plus a seeded cut of its unsynced tail — under several streams, the
	// torn-epoch shape the recovery merge must truncate.
	FaultCrash Fault = "crash"
	// FaultStoreCrash crashes the store at mutating operation 1 + Seed%40 of
	// the round: mid checkpoint write, between segment publication and
	// rotation, between sealing and truncation, inside truncation.
	FaultStoreCrash Fault = "store-crash"
	// FaultTornManifest tears manifest save 1 + Seed%2 of the round (the
	// first cycle's publication or its seal): recovery must use the previous
	// copy.
	FaultTornManifest Fault = "torn-manifest"
	// FaultFailCheckpoint fails checkpoint write 1 + Seed%2 of the round
	// without crashing: the cycle fails, the store and the log live on.
	FaultFailCheckpoint Fault = "fail-checkpoint"
	// FaultCorruptSlice flips a byte of one slice of the newest checkpoint
	// generation before the reboot: recovery must fall back, never load it.
	FaultCorruptSlice Fault = "corrupt-slice"
	// FaultPartition fails one stream's device mid-run. Under PartitionWAL
	// with interactive workers its partition goes dark: the others must not
	// degrade, every loss on it must classify as core.ErrPartitionUnavailable,
	// and it is recovered live from the store and readmitted before the
	// reboot. Anywhere else it is the crash of one device.
	FaultPartition Fault = "partition"
	// FaultDropRecord is a negative control: after a clean shutdown the last
	// commit record of stream 0 is dropped, which must trip ErrDurability.
	FaultDropRecord Fault = "drop-record"
	// FaultCorruptAll is a negative control: every retained checkpoint
	// generation is corrupted, and once cycles have pruned the log recovery
	// must refuse with core.ErrHistoryLost.
	FaultCorruptAll Fault = "corrupt-all"
)

// Scenario is one cell: a point in the feature product and a fault arm.
type Scenario struct {
	// Protocol is the concurrency-control scheme: one of cc.Names for
	// interactive workers, QSTORE under Det.
	Protocol string
	// Streams is the log's stream count (default 1). A cell runs
	// max(Streams, 3) workers, one partition each; under PartitionWAL
	// workers, partitions and streams are one count.
	Streams int
	// PartitionWAL shards the log by partition (core.Config.PartitionWAL).
	PartitionWAL bool
	// LogMode is wal.ModeValue or wal.ModeCommand.
	LogMode wal.Mode
	// Checkpoint runs checkpoint cycles under live traffic: each worker
	// requests one after every ckptEvery of its commits, and Det every
	// second batch.
	Checkpoint bool
	// Det runs the plans as deterministic batches through core.DetExecutor.
	Det bool
	// Fault is the fault arm (default FaultNone).
	Fault Fault
	// Rounds is the number of run-fault-reboot rounds (default 1). Each
	// round runs fresh plans on the engine the previous one recovered and
	// re-arms the fault.
	Rounds int
	// Seed drives the plans, the fault's positions and the crash model.
	Seed uint64
}

// Round is what one run-fault-reboot round did.
type Round struct {
	// Acked is the commits acknowledged this round across all workers.
	Acked int
	// Crashed reports that a planned device or store crash fired.
	Crashed bool
	// Cycles and CycleFailures are the round's checkpoint cycle counts.
	Cycles, CycleFailures int
	// Lost counts the attempts the dark partition shed (FaultPartition).
	Lost int
	// Live is the live partition recovery's stats (FaultPartition).
	Live core.RecoveryStats
	// Recovery is the reboot's.
	Recovery core.RecoveryStats
	// Batch is the reference batch the recovered digest matched (Det).
	Batch int
	// Checkpoints, Segments and SegmentBytes describe the store after the
	// reboot sealed it: the footprint truncation bounds.
	Checkpoints, Segments int
	SegmentBytes          int64
}

// Result summarizes a cell.
type Result struct {
	Rounds []Round
	// ProbeTxns is the committed stamped-probe transaction count: on the
	// degraded engine in a partition cell without checkpoints (the reboot
	// must then replay the probe's table), on the final engine elsewhere.
	ProbeTxns int
}

// The workload shape, fixed in every cell.
const (
	accountsPerWorker = 8
	txnsPerWorker     = 40
	ckptEvery         = 8 // commits per worker between checkpoint requests
	batchPerWorker    = 5 // transfers per worker in one deterministic batch
	keepGenerations   = 2
	probeTxns         = 15 // per probe worker
	hotProb           = 0.25
)

// Key layout: worker w owns accounts i*W + w and counter counterBase + w;
// the hot row and the mail row live above every account. A key's partition
// is its low 20 bits modulo the partition count, so each worker's accounts
// and counter are one partition, the hot row is partition 0 and the mail row
// partition 1.
const (
	counterBase = 1 << 20
	hotKey      = 1 << 21
	mailKey     = 1<<22 + 1
)

const procTransfer = 1

// transfer is one planned balanced transfer.
type transfer struct {
	from, to uint64
	delta    int64
	hot      bool
}

// cell is one Run in progress.
type cell struct {
	Scenario
	workers int
	rng     *xrand.RNG
	res     Result

	store *fault.MemStore
	e     *core.Engine
	tbl   *core.Table
	x     *core.DetExecutor
	ck    *core.Checkpointer
	// crashAt is the round's planned crash offset per stream (0: none);
	// devs are the fault devices that carry it.
	crashAt []int64
	devs    [][]*fault.Device
	dark    int // the failed partition (FaultPartition), else -1

	plans    [][]transfer // the round's plans, per worker
	txSeeds  []uint64
	acked    []int // commits acknowledged this round, per worker
	inflight []int // commits that may be durable but unacknowledged
	batches  int   // det: batches acknowledged this round
	done     [][]transfer
	kept     []int // det: batches recovered, per round
	probed   bool  // the probe ran on a degraded engine
}

func (s Scenario) normalized() Scenario {
	if s.Streams <= 0 {
		s.Streams = 1
	}
	if s.Rounds <= 0 {
		s.Rounds = 1
	}
	if s.Fault == "" {
		s.Fault = FaultNone
	}
	return s
}

// Run executes one cell and holds every recovered engine to the oracle. A
// nil error means every invariant held in every round; an error wrapping
// core.ErrInvalidUsage means the engine rejects the cell.
func Run(s Scenario) (Result, error) {
	s = s.normalized()
	c := &cell{Scenario: s, workers: max(s.Streams, 3), rng: xrand.New(s.Seed), dark: -1}
	if s.PartitionWAL {
		c.workers = s.Streams
	}
	if !s.Det && !slices.Contains(cc.Names(), s.Protocol) {
		return c.res, fmt.Errorf("torture: interactive workers on %q, which is not in cc.Names: %w", s.Protocol, core.ErrInvalidUsage)
	}
	c.done = make([][]transfer, c.workers)
	c.store = fault.NewMemStore(fault.StoreChaos{})
	att, err := core.InitCheckpointLog(c.store, s.Streams, s.LogMode)
	if err != nil {
		return c.res, err
	}
	defer c.shut()
	if _, err := c.open(att, true); err != nil {
		return c.res, err
	}
	for r := 0; r < s.Rounds; r++ {
		if err := c.round(r); err != nil {
			return c.res, fmt.Errorf("%w (seed %d, round %d)", err, s.Seed, r)
		}
	}
	if !c.probed && !c.Det && c.LogMode == wal.ModeValue {
		n, err := probe(c.e, c.workers, c.Seed)
		c.res.ProbeTxns = n
		if err != nil {
			return c.res, fmt.Errorf("%w: recovered engine (seed %d)", err, s.Seed)
		}
	}
	return c.res, nil
}

// roundSeed is round r's seed: the same cell shape, a fresh plan.
func (c *cell) roundSeed(r int) uint64 { return c.Seed ^ uint64(r)*0xA24BAED4963EE407 }

// partOf is the key-to-partition map the engine and the planner share.
func (c *cell) partOf(key uint64) int { return int(key&(counterBase-1)) % c.workers }

// round runs one round's plans under the fault, reboots, and checks.
func (c *cell) round(r int) error {
	c.plans, c.txSeeds = c.plansFor(r)
	c.acked, c.inflight, c.batches = make([]int, c.workers), make([]int, c.workers), 0
	var rd Round
	defer func() { c.res.Rounds = append(c.res.Rounds, rd) }()
	var refs [][32]byte
	if c.Det {
		var err error
		if refs, err = c.reference(r); err != nil {
			return err
		}
	}
	// Store-op positions count from here: bootstrap and the previous
	// reboot are never the target.
	chaos := fault.StoreChaos{Seed: c.roundSeed(r)}
	switch c.Fault {
	case FaultStoreCrash:
		chaos.CrashAtOp = 1 + int(c.Seed%40)
	case FaultTornManifest:
		chaos.TearManifestAtSave = 1 + int(c.Seed%2)
	case FaultFailCheckpoint:
		chaos.FailCheckpointAt = 1 + int(c.Seed%2)
	}
	c.store.Rearm(chaos)

	var err error
	switch {
	case c.Det:
		err = c.runDet()
	case c.Fault == FaultPartition && c.PartitionWAL:
		err = c.runDark(&rd)
	default:
		_, err = c.drive(txnsPerWorker, -1)
	}
	if err != nil {
		return err
	}
	st := c.ck.Stats()
	rd.Cycles, rd.CycleFailures = st.Cycles, st.Failures
	rd.Crashed = c.store.Crashed()
	for _, d := range slices.Concat(c.devs...) {
		rd.Crashed = rd.Crashed || d.Crashed()
	}
	for _, a := range c.acked {
		rd.Acked += a
	}

	if rd.Recovery, err = c.reboot(r); err != nil {
		return err
	}
	rd.Checkpoints = len(c.store.CheckpointNames())
	rd.Segments = len(c.store.SegmentNames())
	rd.SegmentBytes = c.store.TotalSegmentBytes()
	if c.Det {
		if rd.Batch, err = c.matchDigest(refs); err != nil {
			return err
		}
		c.kept = append(c.kept, rd.Batch)
	}
	return c.check(-1, true)
}

// plansFor draws round r's per-worker transfer plans and transaction seeds:
// worker w's transfers stay inside its own accounts and, outside
// PartitionWAL, also bump the shared hot row with probability hotProb —
// cross-worker conflicts for the retry path.
func (c *cell) plansFor(r int) ([][]transfer, []uint64) {
	plans, seeds := make([][]transfer, c.workers), make([]uint64, c.workers)
	W := c.workers
	for w := range plans {
		rng := xrand.New(c.roundSeed(r) ^ (0x9e3779b97f4a7c15 * uint64(w+1)))
		seeds[w] = rng.Uint64()
		plan := make([]transfer, txnsPerWorker)
		for i := range plan {
			from := uint64(rng.Intn(accountsPerWorker)*W + w)
			to := from
			for to == from {
				to = uint64(rng.Intn(accountsPerWorker)*W + w)
			}
			plan[i] = transfer{from: from, to: to, delta: int64(rng.IntRange(1, 100)), hot: !c.PartitionWAL && rng.Bool(hotProb)}
		}
		plans[w] = plan
	}
	return plans, seeds
}

// build opens an engine in the cell's design point on cfg's log, creates the
// account table, and registers the transfer procedure and, under Det, the
// executor. It is the only place a cell can be rejected.
func (c *cell) build(cfg core.Config) (*core.Engine, *core.Table, *core.DetExecutor, error) {
	cfg.Protocol, cfg.Threads, cfg.Partitions = c.Protocol, c.workers, c.workers
	e, err := core.Open(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	var tbl *core.Table
	var x *core.DetExecutor
	if c.Det {
		x, err = core.NewDetExecutor(e, func(tx *core.Tx, op det.Op, mb *det.Mailbox) error {
			return execDet(tx, tbl, op, mb)
		})
		if err != nil {
			e.Close()
			return nil, nil, nil, err
		}
	}
	e.SetPartitioner(func(tbl *core.Table, key uint64) int {
		if tbl.Name() == "verify_probe" {
			return 0 // the probe runs while any other partition is dark
		}
		return c.partOf(key)
	})
	tbl, err = e.CreateTable(storage.MustSchema("acct", storage.I64("v")), core.IndexHash)
	if err == nil {
		err = e.RegisterProc(procTransfer, func(tx *core.Tx, p []byte) error {
			w := binary.LittleEndian.Uint32(p[0:])
			tr := transfer{from: binary.LittleEndian.Uint64(p[4:]), to: binary.LittleEndian.Uint64(p[12:]),
				delta: int64(binary.LittleEndian.Uint64(p[20:])), hot: p[28] != 0}
			return applyTransfer(tx, tbl, w, tr)
		})
	}
	if err != nil {
		if x != nil {
			x.Close()
		}
		e.Close()
		return nil, nil, nil, err
	}
	return e, tbl, x, nil
}

// open builds the cell's engine over att's segments, restores it from the
// store, and starts its checkpointer. With arm set the segments are wrapped
// in the next round's fault devices first; the last reboot opens unarmed,
// so only the oracle and the probe run on it.
func (c *cell) open(att *core.LogAttachment, arm bool) (core.RecoveryStats, error) {
	c.crashAt = nil
	if arm {
		c.arm()
	}
	devs := make([]wal.Device, len(att.Devices))
	for i, d := range att.Devices {
		devs[i] = c.device(i, d)
	}
	e, tbl, x, err := c.build(core.Config{LogMode: c.LogMode, WALStreams: c.Streams, LogDevices: devs, PartitionWAL: c.PartitionWAL})
	if err != nil {
		return core.RecoveryStats{}, err
	}
	c.e, c.tbl, c.x = e, tbl, x
	if c.probed {
		// The degraded engine's probe logged into its own table.
		if err := verify.NewProbe(probeConfig).Setup(e); err != nil {
			return core.RecoveryStats{}, err
		}
	}
	rs, err := e.RecoverFromStore(c.store, att, func() error { return c.load(e, tbl, -1) })
	if err != nil {
		return rs, fmt.Errorf("torture: recovery failed: %w", err)
	}
	c.ck, err = e.NewCheckpointer(faultStore{c.store, c}, keepGenerations, devs)
	return rs, err
}

// arm draws the next round's crash offsets, counted in bytes each stream
// writes from the round's start: every stream under FaultCrash, one under
// FaultPartition (never stream 0 when there are others — the probe's
// partition).
func (c *cell) arm() {
	rec := 148 // framed value record: header, ids, ~3.25 entries of 33 bytes
	if c.LogMode == wal.ModeCommand {
		rec = 62 // header, ids, proc, 29 bytes of params
	}
	perStream := uint64(c.workers * txnsPerWorker * rec / c.Streams)
	c.crashAt, c.devs = make([]int64, c.Streams), make([][]*fault.Device, c.Streams)
	switch c.Fault {
	case FaultCrash:
		for i := range c.crashAt {
			c.crashAt[i] = 1 + int64(c.rng.Uint64n(perStream*5/4))
		}
	case FaultPartition:
		c.dark = 0
		if c.Streams > 1 {
			c.dark = 1 + int(c.rng.Uint64n(uint64(c.Streams-1)))
		}
		c.crashAt[c.dark] = 1 + int64(c.rng.Uint64n(perStream*3/4))
	}
}

// device wraps stream i's segment in the round's fault device until the
// planned crash has fired: the offset counts every byte the stream's earlier
// segments of the round took, and every fifth sync fails under FaultCrash.
func (c *cell) device(i int, d wal.Device) wal.Device {
	if c.crashAt == nil || c.crashAt[i] == 0 {
		return d
	}
	var written int64
	for _, f := range c.devs[i] {
		if f.Crashed() {
			return d
		}
		written += f.Written()
	}
	plan := fault.Plan{Seed: c.Seed + uint64(i), CrashAtByte: max(1, c.crashAt[i]-written)}
	if c.Fault == FaultCrash {
		plan.TransientSyncEvery = 5
	}
	f := fault.NewDevice(d, plan)
	c.devs[i] = append(c.devs[i], f)
	return f
}

// faultStore is the store as the checkpointer sees it: the segments it
// creates — rotations, a readmitted partition's — come back in the round's
// fault devices, so a planned crash can land after any checkpoint cycle.
type faultStore struct {
	*fault.MemStore
	c *cell
}

// CreateSegment implements core.CheckpointStore; core names segments
// seg-<generation>-<stream>.
func (s faultStore) CreateSegment(name string) (wal.Device, error) {
	d, err := s.MemStore.CreateSegment(name)
	var gen uint64
	var stream int
	if _, serr := fmt.Sscanf(name, "seg-%d-%d", &gen, &stream); err == nil && serr == nil {
		d = s.c.device(stream, d)
	}
	return d, err
}

// load zero-loads every row of partition only, or every row when only is -1:
// the initial state and both recovery scopes' no-checkpoint base.
func (c *cell) load(e *core.Engine, tbl *core.Table, only int) error {
	row := tbl.Schema().NewRow()
	keys := []uint64{hotKey, mailKey}
	for w := 0; w < c.workers; w++ {
		keys = append(keys, counterBase+uint64(w))
		for i := 0; i < accountsPerWorker; i++ {
			keys = append(keys, uint64(i*c.workers+w))
		}
	}
	for _, k := range keys {
		if only < 0 || c.partOf(k) == only {
			if err := e.Load(tbl, k, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// tolerant reports whether the arm may kill the log under the workers, who
// then stop at their first error with one commit possibly in flight.
func (c *cell) tolerant() bool {
	switch c.Fault {
	case FaultCrash, FaultStoreCrash, FaultTornManifest:
		return true
	case FaultPartition:
		return c.Det || !c.PartitionWAL
	}
	return false
}

// applyTransfer is the transfer's body: bump worker w's counter, move delta
// between its accounts, and touch the hot row when the plan says so.
func applyTransfer(tx *core.Tx, tbl *core.Table, w uint32, tr transfer) error {
	sch := tbl.Schema()
	bump := func(key uint64, d int64) error {
		r, err := tx.Update(tbl, key)
		if err == nil {
			sch.SetInt64(r, 0, sch.GetInt64(r, 0)+d)
		}
		return err
	}
	err := bump(counterBase+uint64(w), 1)
	if err == nil {
		err = bump(tr.from, -tr.delta)
	}
	if err == nil {
		err = bump(tr.to, tr.delta)
	}
	if err == nil && tr.hot {
		err = bump(hotKey, 1)
	}
	return err
}

// drive runs every worker's plan from its acknowledged count up to hi,
// requesting a checkpoint cycle after every ckptEvery commits when the cell
// checkpoints. A loss on the dark partition (dark >= 0) must classify as
// core.ErrPartitionUnavailable and is counted and retried; under a tolerant
// arm any other error stops its worker; anything else is a verdict. It
// returns the dark partition's losses.
func (c *cell) drive(hi, dark int) (int, error) {
	errs := make([]error, c.workers)
	lost := 0
	var wg sync.WaitGroup
	for w, plan := range c.plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := c.e.NewTx(w, c.txSeeds[w]+uint64(c.acked[w]))
			for n := c.acked[w]; n < hi; n++ {
				tr := plan[c.acked[w]]
				p := make([]byte, 29)
				binary.LittleEndian.PutUint32(p[0:], uint32(w))
				binary.LittleEndian.PutUint64(p[4:], tr.from)
				binary.LittleEndian.PutUint64(p[12:], tr.to)
				binary.LittleEndian.PutUint64(p[20:], uint64(tr.delta))
				if tr.hot {
					p[28] = 1
				}
				err := tx.RunProc(procTransfer, p)
				switch {
				case err == nil:
					c.acked[w]++
					if c.Checkpoint && c.acked[w]%ckptEvery == 0 {
						_ = c.ck.CheckpointNow() // failures are counted in the stats
					}
				case w == dark && errors.Is(err, core.ErrPartitionUnavailable):
					lost++
				case c.tolerant():
					c.inflight[w] = 1
					return
				default:
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		switch {
		case err == nil:
		case dark < 0:
			return lost, fmt.Errorf("torture: worker %d: %w", w, err)
		case w == dark:
			return lost, fmt.Errorf("%w: partition %d: %v", ErrPartitionClass, w, err)
		default:
			return lost, fmt.Errorf("%w: partition %d: %v", ErrPartitionBleed, w, err)
		}
	}
	return lost, nil
}

// runDark is the partition arc: run until the dark partition's device
// fails, hold the healthy partitions to the oracle and (without checkpoint
// cycles) the degraded engine to the probe, recover the dark partition live
// from the store, check again, and let every worker finish its plan on the
// readmitted engine.
func (c *cell) runDark(rd *Round) error {
	var err error
	if rd.Lost, err = c.drive(txnsPerWorker, c.dark); err != nil || rd.Lost == 0 {
		return err // no loss: the crash offset overshot the run
	}
	// The log quarantines in the step that fails the stream, so the mask is
	// set before any loss reached a worker.
	if mask := c.e.QuarantinedPartitions(); mask != 1<<uint(c.dark) {
		return fmt.Errorf("torture: quarantine mask %#x after a loss on partition %d", mask, c.dark)
	}
	if err := c.check(c.dark, false); err != nil {
		return err
	}
	if !c.Checkpoint {
		// A later checkpoint would capture the probe's table, which a
		// rebooted engine cannot load over a pre-made one: without cycles the
		// probe runs here, on the degraded engine, and the reboot replays it.
		c.probed = true
		if c.res.ProbeTxns, err = probe(c.e, c.workers, c.Seed); err != nil {
			return fmt.Errorf("%w: degraded engine", err)
		}
	}
	// The failed segment's synced prefix is guaranteed; its unsynced tail
	// survives to a seeded cut.
	for _, sg := range c.ck.Manifest().Segments {
		if sg.Stream == c.dark && sg.ToEpoch == 0 {
			c.store.TearSegment(sg.Name, c.rng)
		}
	}
	e, tbl := c.e, c.tbl
	if rd.Live, err = c.ck.RecoverPartition(c.dark, func() error { return c.load(e, tbl, c.dark) }); err != nil {
		return fmt.Errorf("torture: partition recovery failed: %w", err)
	}
	if err := c.check(-1, false); err != nil {
		return err
	}
	if _, err := c.drive(txnsPerWorker, -1); err != nil {
		return fmt.Errorf("torture: readmitted engine: %w", err)
	}
	return nil
}

// runDet runs the round's plans as deterministic batches: batch b holds
// every worker's transfers b*batchPerWorker onward as OpUpdates plus one
// cross-partition ReadSend/RecvUpdate pair into the mail row. Deterministic
// execution treats any batch failure as a crash of the engine.
func (c *cell) runDet() error {
	pl := c.planner()
	for b := 0; b < txnsPerWorker/batchPerWorker; b++ {
		if c.Checkpoint && b > 0 && b%2 == 0 {
			_ = c.ck.CheckpointNow()
		}
		if _, err := c.x.ExecuteBatch(pl.PlanBatch(detBatch(c.plans, b))); err != nil {
			if !c.tolerant() {
				return fmt.Errorf("torture: batch %d: %w", b, err)
			}
			for w := range c.inflight {
				c.inflight[w] = batchPerWorker
			}
			return nil
		}
		c.batches++
		for w := range c.acked {
			c.acked[w] += batchPerWorker
		}
	}
	return nil
}

// planner compiles batches with the engine's key-to-partition map.
func (c *cell) planner() *det.Planner {
	return det.NewPlanner(c.workers, func(_ int32, key uint64) int { return c.partOf(key) })
}

// detBatch declares batch b of plans.
func detBatch(plans [][]transfer, b int) []det.TxnPlan {
	var txns []det.TxnPlan
	for i := b * batchPerWorker; i < (b+1)*batchPerWorker; i++ {
		for w, plan := range plans {
			var t det.TxnPlan
			tr := plan[i]
			t.Add(det.OpUpdate, 0, counterBase+uint64(w), 1)
			t.Add(det.OpUpdate, 0, tr.from, uint64(-tr.delta))
			t.Add(det.OpUpdate, 0, tr.to, uint64(tr.delta))
			if tr.hot {
				t.Add(det.OpUpdate, 0, hotKey, 1)
			}
			txns = append(txns, t)
		}
	}
	var mail det.TxnPlan
	mail.Add(det.OpReadSend, 0, plans[0][0].from, 0)
	mail.Add(det.OpRecvUpdate, 0, mailKey, uint64(b))
	return append(txns, mail)
}

// execDet executes one planned operation on the account table.
func execDet(tx *core.Tx, tbl *core.Table, op det.Op, mb *det.Mailbox) error {
	sch := tbl.Schema()
	if op.Kind == det.OpReadSend {
		r, err := tx.Read(tbl, op.Key)
		if err == nil {
			mb.Send(op.Slot, uint64(sch.GetInt64(r, 0)))
		}
		return err
	}
	base := int64(0)
	if op.Kind == det.OpRecvUpdate {
		if err := mb.Collect(); err != nil {
			return err
		}
		base = int64(mb.Vals[0])
	}
	r, err := tx.Update(tbl, op.Key)
	if err != nil {
		return err
	}
	if op.Kind == det.OpUpdate {
		base = sch.GetInt64(r, 0)
	}
	sch.SetInt64(r, 0, base+int64(op.Aux))
	return nil
}

// reference replays, on an unlogged engine, every earlier round's recovered
// batches and then round r's schedule, and returns the digest at each of
// round r's batch boundaries (refs[k] = after k batches).
func (c *cell) reference(r int) ([][32]byte, error) {
	e, tbl, x, err := c.build(core.Config{})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	defer x.Close()
	if err := c.load(e, tbl, -1); err != nil {
		return nil, err
	}
	pl := c.planner()
	var refs [][32]byte
	for rr := 0; rr <= r; rr++ {
		plans, n := c.plans, txnsPerWorker/batchPerWorker
		if rr < r {
			plans, _ = c.plansFor(rr)
			n = c.kept[rr]
		} else {
			refs = append(refs, e.StateDigest())
		}
		for b := 0; b < n; b++ {
			if _, err := x.ExecuteBatch(pl.PlanBatch(detBatch(plans, b))); err != nil {
				return nil, fmt.Errorf("torture: reference batch %d: %w", b, err)
			}
			if rr == r {
				refs = append(refs, e.StateDigest())
			}
		}
	}
	return refs, nil
}
