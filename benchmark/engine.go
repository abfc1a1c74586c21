package main

// The adapter: together with probes.go, the only file that imports
// next700/internal/... (TestImportsConfined enforces it). Everything the
// workload drivers need from the engine — open, load, drive, recover, check
// — goes through the small surface below, so an engine refactor that renames
// a core.Config field is a one-file change here.

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"next700/internal/core"
	"next700/internal/det"
	"next700/internal/fault"
	"next700/internal/stats"
	"next700/internal/wal"
	"next700/internal/workload"
	"next700/internal/xrand"
)

// syncLatency is the modelled device's cost per Sync: no jitter, no
// per-byte cost. time.Sleep(100µs) costs about 1 ms in this sandbox, so the
// latencies are the sandbox's; what the engine controls is how many of them
// a commit pays.
const syncLatency = 100 * time.Microsecond

// logShape says how an engine logs.
type logShape int

const (
	logNone    logShape = iota
	logSingle           // value log, wal.Writer on Config.LogDevice
	logStreams          // value log, wal.StreamSet, one stream per worker
)

// engineSpec is one point in the design space plus the data it is loaded
// with. It holds no engine types, so workload tables can be written without
// importing the engine.
type engineSpec struct {
	protocol   string // "SILO" or "QSTORE"
	workers    int
	partitions int

	tpcc       bool // false: YCSB
	records    uint64
	opsPerTxn  int
	readRatio  float64
	theta      float64
	warehouses int
	// tpccShrink divides TPC-C's spec cardinalities (items, customers and
	// initial orders per district) for the smoke test; 0 is spec scale.
	tpccShrink int

	log logShape
	// groupCommit is Config.GroupCommitWindow: the group-commit window on
	// the single stream, the epoch advance period on a stream set.
	groupCommit time.Duration
}

func (s engineSpec) tpccConfig() workload.TPCCConfig {
	k := max(s.tpccShrink, 1)
	return workload.TPCCConfig{
		Warehouses:               s.warehouses,
		DistrictsPerWarehouse:    10,
		CustomersPerDistrict:     3000 / k,
		Items:                    100_000 / k,
		InitialOrdersPerDistrict: 3000 / k,
		RemoteItemPct:            1,
		RemotePaymentPct:         15,
	}
}

// tpccTables are the tables TPCC.Setup creates.
var tpccTables = []string{"warehouse", "district", "customer", "history", "new_order", "orders", "order_line", "item", "stock"}

const ycsbTable = "usertable"

// db is an open, loaded engine.
type db struct {
	spec   engineSpec
	e      *core.Engine
	wl     workload.Workload
	ycsb   *workload.YCSB // nil for TPC-C
	tables []string
}

// setupCost is what Workload.Setup cost.
type setupCost struct {
	load time.Duration
	rows uint64
}

func (c setupCost) rowsPerSec() float64 { return float64(c.rows) / c.load.Seconds() }

// openDB opens an engine for spec, logging to devs (one for logSingle, one
// per worker for logStreams, none for logNone), and runs Workload.Setup.
func openDB(spec engineSpec, devs []*device) (*db, setupCost, error) {
	cfg := core.Config{
		Protocol:          spec.protocol,
		Threads:           spec.workers,
		Partitions:        spec.partitions,
		GroupCommitWindow: spec.groupCommit,
	}
	switch spec.log {
	case logSingle:
		cfg.LogMode = wal.ModeValue
		cfg.LogDevice = devs[0]
	case logStreams:
		cfg.LogMode = wal.ModeValue
		cfg.WALStreams = len(devs)
		for _, d := range devs {
			cfg.LogDevices = append(cfg.LogDevices, d)
		}
	}
	var cost setupCost
	e, err := core.Open(cfg)
	if err != nil {
		return nil, cost, err
	}

	d := &db{spec: spec, e: e}
	if spec.tpcc {
		d.wl = workload.NewTPCC(spec.tpccConfig())
		d.tables = tpccTables
	} else {
		d.ycsb = workload.NewYCSB(workload.YCSBConfig{
			Records:   spec.records,
			FieldSize: 100,
			OpsPerTxn: spec.opsPerTxn,
			ReadRatio: spec.readRatio,
			Theta:     spec.theta,
		})
		d.wl = d.ycsb
		d.tables = []string{ycsbTable}
	}
	t1 := time.Now()
	if err := d.wl.Setup(e); err != nil {
		e.Close()
		return nil, cost, fmt.Errorf("setup: %w", err)
	}
	cost.load = time.Since(t1)
	for _, name := range d.tables {
		cost.rows += e.Table(name).NumRows()
	}
	return d, cost, nil
}

func (d *db) close() error { return d.e.Close() }

// dataBytes is Σ over tables of allocated rows × row size: the user data
// space_amp is measured against.
func (d *db) dataBytes() uint64 {
	var n uint64
	for _, name := range d.tables {
		t := d.e.Table(name)
		n += t.NumRows() * uint64(t.Schema().RowSize())
	}
	return n
}

// opCounts are the engine's per-worker operation counters.
type opCounts struct {
	commits, aborts, userAborts     uint64
	reads, writes, inserts, deletes uint64
	scans, lockWaits                uint64
}

func fromCounter(c stats.Counter) opCounts {
	return opCounts{
		commits: c.Commits, aborts: c.Aborts, userAborts: c.UserAborts,
		reads: c.Reads, writes: c.Writes, inserts: c.Inserts, deletes: c.Deletes,
		scans: c.Scans, lockWaits: c.Waits,
	}
}

func (c opCounts) sub(o opCounts) opCounts {
	return opCounts{
		c.commits - o.commits, c.aborts - o.aborts, c.userAborts - o.userAborts,
		c.reads - o.reads, c.writes - o.writes, c.inserts - o.inserts, c.deletes - o.deletes,
		c.scans - o.scans, c.lockWaits - o.lockWaits,
	}
}

// counts sums the counters of every worker slot.
func (d *db) counts() opCounts { return fromCounter(d.e.TotalCounter()) }

// worker is one closed-loop caller: a transaction context bound to a worker
// slot, its RNG seeded from the run seed.
type worker struct {
	tx *core.Tx
	wl workload.Workload
}

func (d *db) newWorker(id int, seed uint64) *worker {
	return &worker{tx: d.e.NewTx(id, seed*1_000_003+uint64(id)+1), wl: d.wl}
}

// runOne executes one transaction to completion: retries and the durability
// wait are inside. A TPC-C user abort (the spec's 1 % NewOrder rollback) is
// a completed transaction and comes back nil.
func (w *worker) runOne() error { return w.wl.RunOne(w.tx) }

// verify runs the workload's own consistency check (YCSB.Verify,
// TPCC.Verify).
func (d *db) verify() error {
	v, ok := d.wl.(workload.Verifier)
	if !ok {
		return errors.New("workload has no verifier")
	}
	return v.Verify(d.e)
}

// checksum reads every YCSB key through Tx.Read and returns a hash of the
// (key, row) pairs plus the sum of the version column. Engines are compared
// by this and not by Engine.StateDigest: StateDigest reads table rows
// directly, which under SILO are stale relative to what a transaction sees.
// Each RMW adds one to a row's version, so the sum counts applied updates.
func (d *db) checksum() (sum uint64, versions int64, err error) {
	tbl := d.e.Table(ycsbTable)
	sch := tbl.Schema()
	tx := d.e.NewTx(0, 1)
	h := fnv.New64a()
	var key [8]byte
	const chunk = 4096
	for lo := uint64(0); lo < d.spec.records; lo += chunk {
		hi := min(lo+chunk, d.spec.records)
		err = tx.Run(func(tx *core.Tx) error {
			for k := lo; k < hi; k++ {
				row, err := tx.Read(tbl, k)
				if err != nil {
					return fmt.Errorf("key %d: %w", k, err)
				}
				for i := range key {
					key[i] = byte(k >> (8 * i))
				}
				h.Write(key[:])
				h.Write(row)
				versions += sch.GetInt64(row, 0)
			}
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
	}
	return h.Sum64(), versions, nil
}

// digest is Engine.StateDigest, valid under QSTORE (no buffered versions).
func (d *db) digest() string {
	sum := d.e.StateDigest()
	return hex.EncodeToString(sum[:])
}

// replayed is what one recovery pass applied.
type replayed struct{ records, entries int }

// recoverLog replays logs into a freshly loaded engine: Engine.Recover for
// one stream, Engine.RecoverStreams for several.
func (d *db) recoverLog(logs [][]byte) (replayed, error) {
	var rs core.RecoveryStats
	var err error
	if len(logs) == 1 {
		rs, err = d.e.Recover(bytes.NewReader(logs[0]))
	} else {
		readers := make([]io.Reader, len(logs))
		for i, l := range logs {
			readers[i] = bytes.NewReader(l)
		}
		rs, err = d.e.RecoverStreams(readers)
	}
	return replayed{records: rs.Records, entries: rs.Entries}, err
}

// detDriver is the deterministic execution path: a sequencer (one RNG, one
// reused slate of transaction plans), the det planner, and the engine's
// queue executor. The three calls are separate so a traced run can time
// each layer from outside.
type detDriver struct {
	y    *workload.YCSB
	rng  *xrand.RNG
	pl   *det.Planner
	x    *core.DetExecutor
	txns []det.TxnPlan
	plan *det.Plan
}

func (d *db) newDetDriver(batch int, seed uint64) (*detDriver, error) {
	x, err := core.NewDetExecutor(d.e, d.ycsb.ExecOp)
	if err != nil {
		return nil, err
	}
	return &detDriver{
		y:    d.ycsb,
		rng:  xrand.New(seed*1_000_003 + 0xD00D),
		pl:   det.NewPlanner(x.Parts(), nil),
		x:    x,
		txns: make([]det.TxnPlan, batch),
	}, nil
}

// planTxns declares the next batch's access sets (workload.PlanTxn × batch).
func (s *detDriver) planTxns() {
	for i := range s.txns {
		s.txns[i].Reset()
		s.y.PlanTxn(s.rng, &s.txns[i])
	}
}

// planBatch compiles the declared batch into per-partition queues.
func (s *detDriver) planBatch() { s.plan = s.pl.PlanBatch(s.txns) }

// executeBatch drains the queues and returns once the batch has committed
// (and, when logging, sealed).
func (s *detDriver) executeBatch() error {
	_, err := s.x.ExecuteBatch(s.plan)
	return err
}

func (s *detDriver) close() { s.x.Close() }

// newModelledDevice is the device durable workloads log to: an in-memory
// device that tracks its synced prefix, behind a fixed per-Sync latency.
func newModelledDevice(seed uint64, clk clock, spans *spanBuf) *device {
	mem := &fault.MemDevice{}
	return &device{
		inner:  fault.NewDevice(mem, fault.Plan{Seed: seed, SyncLatency: syncLatency}),
		synced: mem.SyncedBytes,
		clk:    clk,
		spans:  spans,
	}
}

// newMemDevice is an unthrottled in-memory device (log builds, diagnostics).
func newMemDevice(_ uint64, clk clock, spans *spanBuf) *device {
	mem := &fault.MemDevice{}
	return &device{inner: mem, synced: mem.SyncedBytes, clk: clk, spans: spans}
}

// discard swallows the log of an engine that is only being recovered into.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) Sync() error                 { return nil }

func newDiscardDevice(_ uint64, clk clock, spans *spanBuf) *device {
	return &device{inner: discard{}, clk: clk, spans: spans}
}
