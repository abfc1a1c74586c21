package workload

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"

	"next700/internal/core"
	"next700/internal/storage"
	"next700/internal/wal"
	"next700/internal/xrand"
)

// YCSBConfig parameterizes the YCSB-style key-value microbenchmark — the
// workload every contention/scalability sweep in the design-space
// evaluation uses.
type YCSBConfig struct {
	// Records is the table size (default 100_000).
	Records uint64
	// FieldSize is the value payload per row in bytes (default 100, the
	// DBx1000 convention).
	FieldSize int
	// OpsPerTxn is the number of accesses per transaction (default 16).
	OpsPerTxn int
	// ReadRatio is the fraction of operations that are reads; the rest are
	// read-modify-writes (default 0.5).
	ReadRatio float64
	// Theta is the Zipfian skew in [0, 1) (default 0 = uniform).
	Theta float64
	// Partitions spreads keys round-robin over this many partitions for
	// the H-Store experiments (default: engine partition count).
	Partitions int
	// PartitionLocal makes each worker draw keys from its home partition
	// (plus a second one per MultiPartitionFraction) — the H-Store data
	// layout. Off by default: workers share one Zipfian keyspace, which is
	// what contention experiments require. Implied by a non-zero
	// MultiPartitionFraction.
	PartitionLocal bool
	// MultiPartitionFraction is the probability that a transaction touches
	// a second partition (default 0: single-partition). Implies
	// PartitionLocal.
	MultiPartitionFraction float64
	// MaxThreads sizes per-worker state (default: engine thread count).
	MaxThreads int
	// ScanFraction is the probability an operation is a short range scan
	// (requires a B+ tree primary; default 0).
	ScanFraction float64
	// ScanLength is the span of range scans (default 50).
	ScanLength int
	// InterleaveOps yields the scheduler between operations. On hosts with
	// few physical cores, goroutines otherwise run entire transactions
	// within one scheduling quantum and logical contention never
	// materializes; yielding restores the interleavings a many-core host
	// would produce. Costs throughput, preserves relative behavior.
	InterleaveOps bool
}

func (c *YCSBConfig) normalize() {
	if c.MultiPartitionFraction > 0 {
		c.PartitionLocal = true
	}
	if c.Records == 0 {
		c.Records = 100_000
	}
	if c.FieldSize <= 0 {
		c.FieldSize = 100
	}
	if c.OpsPerTxn <= 0 {
		c.OpsPerTxn = 16
	}
	if c.ReadRatio < 0 || c.ReadRatio > 1 {
		c.ReadRatio = 0.5
	}
	if c.ScanLength <= 0 {
		c.ScanLength = 50
	}
}

// ycsbWorker is the per-thread generator state. The transaction body
// closure and partition plan live here so RunOne allocates nothing per
// transaction: a fresh closure per call would put one heap allocation on
// every measured transaction.
type ycsbWorker struct {
	zipf  *xrand.Zipf
	keys  []uint64
	ops   []byte // 0 read, 1 rmw, 2 scan
	home  int
	other int
	body  func(tx *core.Tx) error
}

// YCSB is the workload instance.
type YCSB struct {
	cfg   YCSBConfig
	eng   *core.Engine
	table *core.Table
	sch   *storage.Schema

	// workers is indexed by ThreadID; each slot is owned by exactly one
	// goroutine (the engine's worker contract), so access is unsynchronized.
	workers []*ycsbWorker
	cmdLog  bool

	// det is the deterministic-mode planning state, owned by the single
	// sequencer goroutine (see ycsb_det.go).
	det ycsbDetState
}

// NewYCSB builds a YCSB workload with the given configuration.
func NewYCSB(cfg YCSBConfig) *YCSB {
	cfg.normalize()
	return &YCSB{cfg: cfg}
}

// Name implements Workload.
func (y *YCSB) Name() string { return "ycsb" }

// Config returns the normalized configuration.
func (y *YCSB) Config() YCSBConfig { return y.cfg }

// ycsbProcID is the stored-procedure id for command logging.
const ycsbProcID = 10

// Setup implements Workload.
func (y *YCSB) Setup(e *core.Engine) error {
	if err := y.SetupSchema(e); err != nil {
		return err
	}
	return y.LoadData()
}

// SetupSchema creates the table, partitioner, and stored procedures
// without loading any rows. This is the shape store-based recovery needs:
// a checkpoint generation loads only into empty tables, so a recovering caller runs
// SetupSchema first and passes LoadData as the RecoverFromStore fallback
// (invoked only when no checkpoint generation is loadable).
func (y *YCSB) SetupSchema(e *core.Engine) error {
	y.eng = e
	if y.cfg.Partitions <= 0 {
		y.cfg.Partitions = e.Config().Partitions
	}
	if y.cfg.MaxThreads <= 0 {
		y.cfg.MaxThreads = e.Config().Threads
	}
	y.workers = make([]*ycsbWorker, y.cfg.MaxThreads)
	y.cmdLog = e.Config().LogMode == wal.ModeCommand

	sch, err := storage.NewSchema("usertable",
		storage.I64("ver"),
		storage.Str("field", y.cfg.FieldSize),
	)
	if err != nil {
		return err
	}
	y.sch = sch
	kind := core.IndexHash
	if y.cfg.ScanFraction > 0 {
		kind = core.IndexBTree
	}
	tbl, err := e.CreateTable(sch, kind)
	if err != nil {
		return err
	}
	y.table = tbl

	e.SetPartitioner(func(t *core.Table, key uint64) int {
		return int(key % uint64(y.cfg.Partitions))
	})

	if y.cmdLog {
		if err := e.RegisterProc(ycsbProcID, y.execProc); err != nil {
			return err
		}
	}
	return nil
}

// LoadData populates the table with the deterministic initial records.
// SetupSchema must have run first.
func (y *YCSB) LoadData() error {
	sch, tbl := y.sch, y.table
	rng := xrand.New(0xC0FFEE)
	row := sch.NewRow()
	field := make([]byte, y.cfg.FieldSize)
	for k := uint64(0); k < y.cfg.Records; k++ {
		sch.SetInt64(row, 0, 0)
		sch.SetString(row, 1, rng.Letters(field))
		if err := y.eng.Load(tbl, k, row); err != nil {
			return err
		}
	}
	return nil
}

// worker returns (creating on first use) the per-thread state. Slots are
// owned by their worker goroutine.
func (y *YCSB) worker(tx *core.Tx) *ycsbWorker {
	id := tx.ThreadID()
	w := y.workers[id]
	if w == nil {
		domain := y.cfg.Records
		if y.cfg.PartitionLocal {
			domain = y.cfg.Records / uint64(y.cfg.Partitions)
		}
		w = &ycsbWorker{
			zipf: xrand.NewZipf(tx.RNG(), domain, y.cfg.Theta),
			keys: make([]uint64, 0, y.cfg.OpsPerTxn),
			ops:  make([]byte, 0, y.cfg.OpsPerTxn),
		}
		declare := y.cfg.PartitionLocal && y.eng.Protocol() == "HSTORE"
		w.body = func(tx *core.Tx) error {
			// Pre-declare partitions only in partition-local mode; otherwise
			// HSTORE falls back to lazy try-lock acquisition.
			if declare {
				if w.other >= 0 {
					if err := tx.DeclarePartitions(w.home, w.other); err != nil {
						return err
					}
				} else if err := tx.DeclarePartitions(w.home); err != nil {
					return err
				}
			}
			tx.Prefetch(y.table, w.keys)
			return y.execOps(tx, w.keys, w.ops)
		}
		y.workers[id] = w
	}
	return w
}

// generate fills the worker's key/op plan for one transaction and returns
// the partitions it touches.
func (y *YCSB) generate(tx *core.Tx, w *ycsbWorker) (homePart, otherPart int) {
	rng := tx.RNG()
	p := y.cfg.Partitions
	homePart = tx.ThreadID() % p
	otherPart = -1
	if y.cfg.MultiPartitionFraction > 0 && p > 1 && rng.Bool(y.cfg.MultiPartitionFraction) {
		otherPart = (homePart + 1 + rng.Intn(p-1)) % p
	}
	w.keys = w.keys[:0]
	w.ops = w.ops[:0]
	for i := 0; i < y.cfg.OpsPerTxn; i++ {
		var key uint64
		if y.cfg.PartitionLocal {
			part := homePart
			if otherPart >= 0 && i%2 == 1 {
				part = otherPart
			}
			// Draw within the partition, then spread: key = draw*P + part.
			key = w.zipf.Next()*uint64(p) + uint64(part)
			if key >= y.cfg.Records {
				key = uint64(part)
			}
		} else {
			key = w.zipf.Next()
		}
		// Ensure distinct keys inside a transaction (standard driver
		// behavior; duplicate accesses distort conflict statistics).
		dup := false
		for _, k := range w.keys {
			if k == key {
				dup = true
				break
			}
		}
		if dup {
			i--
			continue
		}
		op := byte(0)
		switch {
		case y.cfg.ScanFraction > 0 && rng.Bool(y.cfg.ScanFraction):
			op = 2
		case !rng.Bool(y.cfg.ReadRatio):
			op = 1
		}
		w.keys = append(w.keys, key)
		w.ops = append(w.ops, op)
	}
	return homePart, otherPart
}

// RunOne implements Workload.
func (y *YCSB) RunOne(tx *core.Tx) error {
	w := y.worker(tx)
	w.home, w.other = y.generate(tx, w)

	if y.cmdLog {
		return tx.RunProc(ycsbProcID, y.encodeParams(w))
	}
	return tx.Run(w.body)
}

// execOps performs the planned accesses.
func (y *YCSB) execOps(tx *core.Tx, keys []uint64, ops []byte) error {
	for i, key := range keys {
		if y.cfg.InterleaveOps {
			runtime.Gosched()
		}
		switch ops[i] {
		case 1: // read-modify-write
			row, err := tx.Update(y.table, key)
			if err != nil {
				return err
			}
			y.sch.SetInt64(row, 0, y.sch.GetInt64(row, 0)+1)
		case 2: // short range scan
			hi := key + uint64(y.cfg.ScanLength)
			if err := tx.Scan(y.table, key, hi, func(uint64, storage.Row) bool {
				return true
			}); err != nil {
				return err
			}
		default: // read
			row, err := tx.Read(y.table, key)
			if err != nil {
				return err
			}
			_ = y.sch.GetInt64(row, 0)
		}
	}
	return nil
}

// encodeParams serializes the op plan for command logging.
func (y *YCSB) encodeParams(w *ycsbWorker) []byte {
	buf := make([]byte, 0, 4+9*len(w.keys))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(w.keys)))
	for i := range w.keys {
		buf = append(buf, w.ops[i])
		buf = binary.LittleEndian.AppendUint64(buf, w.keys[i])
	}
	return buf
}

// execProc is the command-logging stored procedure.
func (y *YCSB) execProc(tx *core.Tx, params []byte) error {
	if len(params) < 4 {
		return errors.New("ycsb: short params")
	}
	n := int(binary.LittleEndian.Uint32(params))
	params = params[4:]
	if len(params) < 9*n {
		return errors.New("ycsb: truncated params")
	}
	keys := make([]uint64, n)
	ops := make([]byte, n)
	for i := 0; i < n; i++ {
		ops[i] = params[0]
		keys[i] = binary.LittleEndian.Uint64(params[1:])
		params = params[9:]
	}
	return y.execOps(tx, keys, ops)
}

// Verify implements Verifier: the version column total must equal the
// number of committed RMW operations; here we only validate structural
// integrity (every key readable), since per-op commit counts live in the
// harness.
func (y *YCSB) Verify(e *core.Engine) error {
	tx := e.NewTx(0, 0xBEEF)
	step := y.cfg.Records/1000 + 1
	return tx.Run(func(tx *core.Tx) error {
		for k := uint64(0); k < y.cfg.Records; k += step {
			if _, err := tx.Read(y.table, k); err != nil {
				return fmt.Errorf("ycsb: key %d unreadable: %w", k, err)
			}
		}
		return nil
	})
}
