// Package torture is the seeded crash-recovery torture harness: it runs a
// transfer workload against an engine whose log device is wrapped in a
// fault.Device, "crashes" at a planned byte offset, replays the surviving
// log prefix into a fresh engine, and checks the three recovery invariants:
//
//   - Durability: every commit the engine acknowledged (WaitDurable
//     returned nil inside Tx.Run) survives recovery.
//   - Atomicity: no partial write set is visible — each worker's account
//     partition sums to zero because every transfer is balanced.
//   - Prefix consistency: the recovered state corresponds to a prefix of
//     each worker's commit sequence — never more commits than the worker
//     performed, and at most one unacknowledged in-flight commit.
//
// Every run is a pure function of its Config (including the seed), so a
// failing seed replays identically. The workload partitions accounts per
// worker so the log-order-versus-commit-order question stays per-worker
// (each worker appends its records in its own commit order); an optional
// shared hot row generates cross-worker conflicts to exercise the retry
// path without participating in any checked invariant.
package torture

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"next700/internal/core"
	"next700/internal/fault"
	"next700/internal/storage"
	"next700/internal/verify"
	"next700/internal/wal"
	"next700/internal/xrand"
)

// Typed invariant violations. Run wraps them with seed and detail so a
// failure message is enough to replay the case.
var (
	ErrDurability  = errors.New("torture: durability violation (acked commit lost)")
	ErrAtomicity   = errors.New("torture: atomicity violation (partial write set visible)")
	ErrConsistency = errors.New("torture: consistency violation (recovered state beyond commit prefix)")
	// ErrState is the prefix-explainability violation: the recovered state
	// is not byte-for-byte the result of replaying each worker's committed
	// prefix of its deterministic transfer plan.
	ErrState = errors.New("torture: state violation (recovered state not explainable by the committed prefix)")
	// ErrIsolation reports that the stamped isolation probe found an
	// anomaly on the recovered engine.
	ErrIsolation = errors.New("torture: isolation violation on recovered engine")
)

// Config scripts one torture iteration.
type Config struct {
	// Protocol is the concurrency-control scheme (SILO, NO_WAIT, MVCC, ...).
	Protocol string
	// LogMode must be wal.ModeValue or wal.ModeCommand.
	LogMode wal.Mode
	// Workers is the number of concurrent workers (default 3).
	Workers int
	// WALStreams, when > 1, runs the engine on a parallel WAL with that
	// many streams, each wrapped in its own chaos device with an
	// independently seeded crash offset — so one stream can tear mid-epoch
	// while another completes it, the torn-epoch case the recovery merge
	// must truncate rather than resurrect.
	WALStreams int
	// AccountsPerWorker sizes each worker's private account partition
	// (default 8).
	AccountsPerWorker int
	// TxnsPerWorker is each worker's target commit count (default 40).
	TxnsPerWorker int
	// Seed drives everything: the crash offset, the unsynced-tail cut, each
	// worker's account picks, and injected sync faults.
	Seed uint64
	// NoCrash disables the planned crash (the run closes cleanly and the
	// whole log survives). Used by negative controls.
	NoCrash bool
	// TransientSyncEvery injects a retryable sync failure every Nth sync,
	// exercising the writer's bounded retry during the run.
	TransientSyncEvery int
	// HotProb is the probability a transaction also increments the shared
	// hot row (cross-worker conflicts). Default 0.25; negative disables.
	HotProb float64
	// SkipTailRecords, when > 0, drops that many intact records from the
	// end of the surviving prefix before replay — a negative control that
	// must trip ErrDurability when all commits were acknowledged.
	SkipTailRecords int
	// VerifyRecovered, when set, additionally runs the stamped isolation
	// probe (internal/verify) against the recovered engine and fails with
	// ErrIsolation on any reported anomaly — recovery must hand back an
	// engine that still isolates. Requires value logging: the probe's
	// ad-hoc transactions cannot be command-logged.
	VerifyRecovered bool
}

func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = 3
	}
	if c.WALStreams <= 0 {
		c.WALStreams = 1
	}
	if c.WALStreams > c.Workers {
		c.WALStreams = c.Workers
	}
	if c.AccountsPerWorker <= 0 {
		c.AccountsPerWorker = 8
	}
	if c.TxnsPerWorker <= 0 {
		c.TxnsPerWorker = 40
	}
	if c.HotProb == 0 {
		c.HotProb = 0.25
	}
	return c
}

// Result summarizes one iteration.
type Result struct {
	Seed          uint64
	Crashed       bool // the planned crash point was reached
	Acked         int  // commits acknowledged durable across all workers
	SurvivorBytes int  // log bytes handed to recovery
	SyncedBytes   int  // guaranteed-durable prefix at crash time
	Recovery      core.RecoveryStats
	// ProbeTxns is the number of committed stamped-probe transactions
	// checked on the recovered engine (0 unless Config.VerifyRecovered).
	ProbeTxns int
}

// transfer is one planned balanced transfer.
type transfer struct {
	from, to uint64
	delta    int64
	hot      bool
}

// planWorker reproduces worker w's deterministic schedule: its transaction
// seed and the full transfer sequence. The run executes this plan in order,
// and the post-recovery state check replays a committed prefix of the very
// same plan — which is what makes "explainable by some committed prefix" a
// checkable property. The draw order matches the pre-refactor worker loop
// exactly, so existing seeds keep their crash/torn coverage.
func planWorker(cfg Config, w int) (seed uint64, plan []transfer) {
	wrng := xrand.New(cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(w+1)))
	seed = wrng.Uint64()
	lo := w * cfg.AccountsPerWorker
	plan = make([]transfer, cfg.TxnsPerWorker)
	for i := range plan {
		from := uint64(lo + wrng.Intn(cfg.AccountsPerWorker))
		to := uint64(lo + wrng.Intn(cfg.AccountsPerWorker))
		for to == from {
			to = uint64(lo + wrng.Intn(cfg.AccountsPerWorker))
		}
		delta := int64(wrng.IntRange(1, 100))
		hot := cfg.HotProb > 0 && wrng.Bool(cfg.HotProb)
		plan[i] = transfer{from: from, to: to, delta: delta, hot: hot}
	}
	return seed, plan
}

// Key layout: worker w owns accounts [w*APW, (w+1)*APW); counter and hot
// rows live far above any account key.
const (
	counterBase = 1 << 20
	hotKey      = 1 << 21
)

const procTransfer = 1

// params layout: worker u32 | from u64 | to u64 | delta u64 | hot u8.
func encodeParams(worker uint32, from, to uint64, delta int64, hot bool) []byte {
	p := make([]byte, 29)
	binary.LittleEndian.PutUint32(p[0:], worker)
	binary.LittleEndian.PutUint64(p[4:], from)
	binary.LittleEndian.PutUint64(p[12:], to)
	binary.LittleEndian.PutUint64(p[20:], uint64(delta))
	if hot {
		p[28] = 1
	}
	return p
}

// buildEngine opens an engine on the given per-stream devices, creates the account table, and
// registers the transfer procedure. With preload set it also performs the
// deterministic initial load (loadInitial); checkpoint-based recovery opens
// the engine empty instead and hands loadInitial to RecoverFromStore as the
// no-usable-checkpoint fallback.
func buildEngine(cfg Config, devs []wal.Device, preload bool) (*core.Engine, *core.Table, error) {
	ecfg := core.Config{
		Protocol:   cfg.Protocol,
		Threads:    cfg.Workers,
		LogMode:    cfg.LogMode,
		LogDevices: devs,
	}
	e, err := core.Open(ecfg)
	if err != nil {
		return nil, nil, err
	}
	sch := storage.MustSchema("acct", storage.I64("v"))
	tbl, err := e.CreateTable(sch, core.IndexHash)
	if err != nil {
		e.Close()
		return nil, nil, err
	}
	if preload {
		if err := loadInitial(cfg, e, tbl); err != nil {
			e.Close()
			return nil, nil, err
		}
	}
	err = e.RegisterProc(procTransfer, func(tx *core.Tx, p []byte) error {
		worker := binary.LittleEndian.Uint32(p[0:])
		from := binary.LittleEndian.Uint64(p[4:])
		to := binary.LittleEndian.Uint64(p[12:])
		delta := int64(binary.LittleEndian.Uint64(p[20:]))
		hot := p[28] != 0
		return applyTransfer(tx, tbl, counterBase+uint64(worker), transfer{from: from, to: to, delta: delta, hot: hot})
	})
	if err != nil {
		e.Close()
		return nil, nil, err
	}
	return e, tbl, nil
}

// applyTransfer is the transaction body every lane runs: bump the committer's
// counter row, move delta from one account to the other, and touch the hot
// row when the plan says so.
func applyTransfer(tx *core.Tx, tbl *core.Table, counter uint64, tr transfer) error {
	sch := tbl.Schema()
	bump := func(key uint64, d int64) error {
		r, err := tx.Update(tbl, key)
		if err != nil {
			return err
		}
		sch.SetInt64(r, 0, sch.GetInt64(r, 0)+d)
		return nil
	}
	if err := bump(counter, 1); err != nil {
		return err
	}
	if err := bump(tr.from, -tr.delta); err != nil {
		return err
	}
	if err := bump(tr.to, tr.delta); err != nil {
		return err
	}
	if tr.hot {
		return bump(hotKey, 1)
	}
	return nil
}

// loadInitial performs the deterministic initial load: every account,
// per-worker counter, and the hot row, all zero. Load bypasses the log, so
// a fresh engine plus this load is exactly the state the log replays over.
func loadInitial(cfg Config, e *core.Engine, tbl *core.Table) error {
	sch := tbl.Schema()
	row := sch.NewRow()
	load := func(key uint64) error {
		sch.SetInt64(row, 0, 0)
		return e.Load(tbl, key, row)
	}
	for w := 0; w < cfg.Workers; w++ {
		for i := 0; i < cfg.AccountsPerWorker; i++ {
			if err := load(uint64(w*cfg.AccountsPerWorker + i)); err != nil {
				return err
			}
		}
		if err := load(counterBase + uint64(w)); err != nil {
			return err
		}
	}
	return load(hotKey)
}

// estimatedRecordBytes approximates the framed size of one commit record so
// the seeded crash offset lands inside the log most runs (runs whose offset
// overshoots simply close cleanly — the no-crash path needs coverage too).
func estimatedRecordBytes(mode wal.Mode) int {
	if mode == wal.ModeCommand {
		return 62 // header + txnid + epoch + proc + params(29)
	}
	return 148 // header + txnid + epoch + ~3.25 entries of 33 bytes
}

// Run executes one torture iteration and verifies the invariants against
// the recovered engine. A nil error means every invariant held.
func Run(cfg Config) (Result, error) {
	cfg = cfg.normalized()
	res := Result{Seed: cfg.Seed}
	rng := xrand.New(cfg.Seed)

	// One chaos device per stream, each with an independently drawn crash
	// offset scaled to its share of the record volume — so streams tear at
	// unrelated points and epochs end up partially durable across the set.
	// With WALStreams == 1 the draws reduce exactly to the historical
	// single-device sequence, keeping existing seeds' coverage.
	streams := cfg.WALStreams
	perStream := cfg.Workers * cfg.TxnsPerWorker * estimatedRecordBytes(cfg.LogMode) / streams
	mems := make([]*fault.MemDevice, streams)
	fdevs := make([]*fault.Device, streams)
	devs := make([]wal.Device, streams)
	for i := range mems {
		plan := fault.Plan{Seed: cfg.Seed + uint64(i), TransientSyncEvery: cfg.TransientSyncEvery}
		if !cfg.NoCrash {
			plan.CrashAtByte = 1 + int64(rng.Uint64n(uint64(perStream)*5/4))
		}
		mems[i] = &fault.MemDevice{}
		fdevs[i] = fault.NewDevice(mems[i], plan)
		devs[i] = fdevs[i]
	}

	e, _, err := buildEngine(cfg, devs, true)
	if err != nil {
		return res, err
	}

	acked := make([]int, cfg.Workers)
	stopped := make([]bool, cfg.Workers) // worker quit on an error (one in-flight commit possible)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seed, plan := planWorker(cfg, w)
			tx := e.NewTx(w, seed)
			for _, tr := range plan {
				if err := tx.RunProc(procTransfer, encodeParams(uint32(w), tr.from, tr.to, tr.delta, tr.hot)); err != nil {
					// The engine retries transient aborts internally; an
					// error here is terminal for this worker (log death).
					stopped[w] = true
					return
				}
				acked[w]++
			}
		}(w)
	}
	wg.Wait()
	for _, fd := range fdevs {
		if fd.Crashed() {
			res.Crashed = true
		}
	}
	e.Close() // a failed close just reports the already-observed log death

	// The survivors: each stream's synced prefix is guaranteed; its unsynced
	// written tail survives up to an independently seeded cut (modeling
	// arbitrary loss of buffered-but-unsynced bytes per device, including a
	// torn final record). Under multi-stream runs this is exactly the
	// torn-epoch shape: one stream keeps its tail, another loses it.
	survivors := make([][]byte, streams)
	for i, mem := range mems {
		data := mem.Bytes()
		synced := mem.SyncedLen()
		res.SyncedBytes += synced
		cut := synced
		if len(data) > synced {
			cut += int(rng.Uint64n(uint64(len(data)-synced) + 1))
		}
		survivors[i] = data[:cut]
	}
	if cfg.SkipTailRecords > 0 {
		survivors[0] = dropTailRecords(survivors[0], cfg.SkipTailRecords)
	}
	for _, s := range survivors {
		res.SurvivorBytes += len(s)
	}
	for _, a := range acked {
		res.Acked += a
	}

	// Replay into a fresh engine built from the same deterministic load.
	rdevs := make([]wal.Device, streams)
	for i := range rdevs {
		rdevs[i] = &fault.MemDevice{}
	}
	e2, tbl2, err := buildEngine(cfg, rdevs, true)
	if err != nil {
		return res, err
	}
	defer e2.Close()
	readers := make([]io.Reader, streams)
	for i := range survivors {
		readers[i] = bytes.NewReader(survivors[i])
	}
	rs, err := e2.RecoverStreams(readers)
	res.Recovery = rs
	if err != nil {
		return res, fmt.Errorf("torture: recovery failed (seed %d): %w", cfg.Seed, err)
	}

	// Read the recovered state and check the invariants.
	sch := tbl2.Schema()
	tx := e2.NewTx(0, 1)
	read := func(key uint64) (int64, error) {
		var v int64
		err := tx.Run(func(tx *core.Tx) error {
			r, err := tx.Read(tbl2, key)
			if err != nil {
				return err
			}
			v = sch.GetInt64(r, 0)
			return nil
		})
		return v, err
	}
	recovered := make([]int64, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		rec, err := read(counterBase + uint64(w))
		if err != nil {
			return res, err
		}
		recovered[w] = rec
		if rec < int64(acked[w]) {
			return res, fmt.Errorf("%w: worker %d recovered %d commits, acked %d (seed %d)",
				ErrDurability, w, rec, acked[w], cfg.Seed)
		}
		limit := int64(acked[w])
		if stopped[w] {
			limit++ // the terminal error may hide one committed-but-unacked txn
		}
		if rec > limit {
			return res, fmt.Errorf("%w: worker %d recovered %d commits, committed at most %d (seed %d)",
				ErrConsistency, w, rec, limit, cfg.Seed)
		}
		var sum int64
		for i := 0; i < cfg.AccountsPerWorker; i++ {
			v, err := read(uint64(w*cfg.AccountsPerWorker + i))
			if err != nil {
				return res, err
			}
			sum += v
		}
		if sum != 0 {
			return res, fmt.Errorf("%w: worker %d account sum %d != 0 (seed %d)",
				ErrAtomicity, w, sum, cfg.Seed)
		}
	}

	// Prefix explainability: the recovered counters name each worker's
	// committed prefix length, and the transfer plans are deterministic, so
	// the exact expected value of every account — not just the per-worker
	// zero sum — is computable. Any deviation means the recovered state is
	// not the result of replaying those prefixes.
	expected := make(map[uint64]int64)
	var expHot int64
	for w := 0; w < cfg.Workers; w++ {
		_, plan := planWorker(cfg, w)
		for i := int64(0); i < recovered[w]; i++ {
			tr := plan[i]
			expected[tr.from] -= tr.delta
			expected[tr.to] += tr.delta
			if tr.hot {
				expHot++
			}
		}
	}
	for w := 0; w < cfg.Workers; w++ {
		for i := 0; i < cfg.AccountsPerWorker; i++ {
			key := uint64(w*cfg.AccountsPerWorker + i)
			v, err := read(key)
			if err != nil {
				return res, err
			}
			if v != expected[key] {
				return res, fmt.Errorf("%w: account %d recovered %d, prefix replay gives %d (seed %d)",
					ErrState, key, v, expected[key], cfg.Seed)
			}
		}
	}
	if v, err := read(hotKey); err != nil {
		return res, err
	} else if v != expHot {
		return res, fmt.Errorf("%w: hot row recovered %d, prefix replay gives %d (seed %d)",
			ErrState, v, expHot, cfg.Seed)
	}

	if cfg.VerifyRecovered {
		n, err := probeRecovered(cfg, e2)
		res.ProbeTxns = n
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// probeRecoveredTxns is the per-worker stamped-probe transaction count for
// the post-recovery isolation check — small, because it runs inside every
// VerifyRecovered torture iteration.
const probeRecoveredTxns = 40

// probeRecovered drives the stamped isolation probe against the recovered
// engine: a recovery that hands back an engine which no longer isolates is
// just as broken as one that loses commits.
func probeRecovered(cfg Config, e *core.Engine) (int, error) {
	if cfg.LogMode == wal.ModeCommand {
		return 0, fmt.Errorf("torture: VerifyRecovered requires value logging (seed %d)", cfg.Seed)
	}
	return runProbe(e, "recovered", cfg.Workers, probeRecoveredTxns, cfg.Seed)
}

// runProbe runs the stamped Adya isolation probe — workers × txns stamped
// transactions on a table of its own — on engine e (which names it in
// errors) and checks the recorded history. Returns the number of committed
// probe transactions.
func runProbe(e *core.Engine, which string, workers, txns int, seed uint64) (int, error) {
	probe := verify.NewProbe(verify.ProbeConfig{Keys: 8, MinOps: 2, MaxOps: 4})
	hist := verify.NewHistory(workers)
	probe.AttachHistory(hist)
	if err := probe.Setup(e); err != nil {
		return 0, err
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx := e.NewTx(w, seed^uint64(w)*2654435761+1)
			for i := 0; i < txns; i++ {
				if err := probe.RunOne(tx); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("torture: %s-engine probe worker %d (seed %d): %w", which, w, seed, err)
		}
	}
	final, err := probe.FinalVersions(e)
	if err != nil {
		return 0, err
	}
	rep := hist.Check(final)
	if !rep.Ok() {
		return rep.Txns, fmt.Errorf("%w: %s (seed %d)", ErrIsolation, rep.Anomalies[0], seed)
	}
	return rep.Txns, nil
}

// dropTailRecords removes the last n intact framed commit records from b,
// plus everything after the n-th-from-last one (any torn tail and any
// trailing epoch markers — the negative control must lose commits, not just
// marker frames). A stream with no markers truncates exactly as before.
func dropTailRecords(b []byte, n int) []byte {
	var starts []int // start offsets of commit-record frames only
	off := 0
	for off+8 <= len(b) {
		size := int(binary.LittleEndian.Uint32(b[off:]))
		if size <= 0 || off+8+size > len(b) {
			break
		}
		if !wal.IsMarkerPayload(b[off+8 : off+8+size]) {
			starts = append(starts, off)
		}
		off += 8 + size
	}
	if n >= len(starts) {
		return b[:0]
	}
	return b[:starts[len(starts)-n]]
}
