package main

// Per-layer probes: single-threaded loops over one layer's public API on the
// workloads' data shape (262 144 rows × 108 B, 16-access transactions,
// 8-entry log records). Fixed operation counts, five repetitions, the
// median reported as ns/op. Probes are how a layer's cost is known before
// spans exist inside core.Tx: probe × the core.*_per_txn counts should add
// up to a workload's service time. With engine.go, the only file that
// imports next700/internal/....

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"time"

	"next700/internal/cc"
	"next700/internal/core"
	"next700/internal/det"
	"next700/internal/index"
	"next700/internal/stats"
	"next700/internal/storage"
	"next700/internal/txn"
	"next700/internal/wal"
	"next700/internal/workload"
	"next700/internal/xrand"
)

const probeReps = 5

// probeProtocols are the cc probes' subjects: the eight interactive
// protocols and the deterministic pass-through.
var probeProtocols = append(cc.Names(), "QSTORE")

// timeReps runs f (which performs n operations) probeReps times and returns
// ns/op for each repetition.
func timeReps(n int, f func()) []float64 {
	out := make([]float64, probeReps)
	for i := range out {
		t0 := time.Now()
		f()
		out[i] = nanosPer(int64(time.Since(t0)), n)
	}
	return out
}

// sink defeats dead-code elimination of probe loop bodies.
var sink uint64

func runProbes(o runOpts, r *result) error {
	k := max(o.shrink, 1)
	rows := max(ycsbRecords/k, 1024)
	rng := xrand.New(o.seed*1_000_003 + 0x9806E)

	probeIndex(r, rng, rows)
	probeStorage(r, rng, rows)
	if err := probeCC(r, rng, rows, max(2000/k, 50)); err != nil {
		return fmt.Errorf("cc: %w", err)
	}
	if err := probeCore(r, rng, rows, max(5000/k, 200)); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := probeWAL(r, o, max(20_000/k, 200), max(60/k, 3)); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	probeDet(r, o, max(100/k, 5))
	if err := probeDetLogged(r, o, max(60/k, 5)); err != nil {
		return fmt.Errorf("det logged: %w", err)
	}
	return nil
}

func probeIndex(r *result, rng *xrand.RNG, rows int) {
	keys := make([]uint64, rows)
	for i := range keys {
		keys[i] = uint64(i)
	}
	// Insert in a seeded random order: the workloads' load order is
	// sequential, but transactional inserts (TPC-C) are not.
	for i := len(keys) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		keys[i], keys[j] = keys[j], keys[i]
	}
	var hash *index.Hash
	r.putDist("index.hash_insert_ns", timeReps(rows, func() {
		hash = index.NewHash("probe", 0)
		for i, k := range keys {
			hash.Insert(k, storage.RecordID(i))
		}
	}))
	r.putDist("index.hash_lookup_ns", timeReps(rows, func() {
		for _, k := range keys {
			rid, _ := hash.Lookup(k)
			sink += uint64(rid)
		}
	}))
	var tree *index.BTree
	r.putDist("index.btree_insert_ns", timeReps(rows, func() {
		tree = index.NewBTree("probe")
		for i, k := range keys {
			tree.Insert(k, storage.RecordID(i))
		}
	}))
	r.putDist("index.btree_lookup_ns", timeReps(rows, func() {
		for _, k := range keys {
			rid, _ := tree.Lookup(k)
			sink += uint64(rid)
		}
	}))
	const scanLen = 50
	scans := rows / scanLen
	r.putDist("index.btree_scan_ns_per_key", timeReps(scans*scanLen, func() {
		for _, k := range keys[:scans] {
			lo := k % uint64(rows-scanLen)
			tree.Scan(lo, lo+scanLen-1, func(_ uint64, rid storage.RecordID) bool {
				sink += uint64(rid)
				return true
			})
		}
	}))
}

func ycsbSchema(name string) *storage.Schema {
	return storage.MustSchema(name, storage.I64("ver"), storage.Str("field", 100))
}

func probeStorage(r *result, rng *xrand.RNG, rows int) {
	var tbl *storage.Table
	r.putDist("storage.alloc_ns", timeReps(rows, func() {
		tbl = storage.NewTable(ycsbSchema("probe"), 0)
		for i := 0; i < rows; i++ {
			tbl.Alloc()
		}
	}))
	rids := make([]storage.RecordID, rows)
	for i := range rids {
		rids[i] = storage.RecordID(rng.Intn(rows))
	}
	r.putDist("storage.row_ns", timeReps(rows, func() {
		for _, rid := range rids {
			sink += uint64(tbl.Row(rid)[0])
		}
	}))
}

// probeCC drives each protocol directly — Begin, 16 accesses, Commit — on
// one thread, so nothing conflicts and nothing waits: the protocol's
// bookkeeping cost alone.
func probeCC(r *result, rng *xrand.RNG, rows, txns int) error {
	const accesses = 16
	for _, name := range probeProtocols {
		env := cc.NewEnv(1)
		p, err := cc.New(name, env)
		if err != nil {
			return err
		}
		tbl := storage.NewTable(ycsbSchema("probe"), 0)
		loader, _ := p.(cc.Loader)
		for i := 0; i < rows; i++ {
			rid := tbl.Alloc()
			if loader != nil {
				loader.LoadRecord(tbl, rid, uint64(rid), tbl.Row(rid))
			}
		}
		var counter stats.Counter
		tx := txn.NewTxn(0, rng, &counter)
		var failed error
		run := func(access func(*txn.Txn, *storage.Table, storage.RecordID) ([]byte, error)) func() {
			return func() {
				for t := 0; t < txns; t++ {
					tx.Reset()
					p.Begin(tx)
					// 16 distinct rows: 7919 is odd, rows a power of two.
					first := rng.Intn(rows)
					for a := 0; a < accesses; a++ {
						rid := storage.RecordID((first + a*7919) % rows)
						if _, err := access(tx, tbl, rid); err != nil {
							failed = err
						}
					}
					if err := p.Commit(tx); err != nil {
						failed = err
					}
					tx.ClearPriority()
				}
			}
		}
		key := "cc." + strings.ToLower(name)
		r.putDist(key+".read16_ns", timeReps(txns, run(p.Read)))
		r.putDist(key+".update16_ns", timeReps(txns, run(p.ReadForUpdate)))
		if failed != nil {
			return fmt.Errorf("%s: %w", name, failed)
		}
	}
	return nil
}

// probeCore times Tx.Run with an empty body and with k operations of one
// kind; (with − empty) ÷ k is the operation's cost through the whole stack
// (index probe + cc access + its share of validate/commit), no log.
func probeCore(r *result, rng *xrand.RNG, rows, txns int) error {
	e, err := core.Open(core.Config{Protocol: "SILO", Threads: 1})
	if err != nil {
		return err
	}
	defer e.Close()
	load := func(name string, kind core.IndexKind) (*core.Table, error) {
		sch := ycsbSchema(name)
		tbl, err := e.CreateTable(sch, kind)
		if err != nil {
			return nil, err
		}
		row := sch.NewRow()
		for k := 0; k < rows; k++ {
			if err := e.Load(tbl, uint64(k), row); err != nil {
				return nil, err
			}
		}
		return tbl, nil
	}
	hashed, err := load("probe_hash", core.IndexHash)
	if err != nil {
		return err
	}
	ranged, err := load("probe_btree", core.IndexBTree)
	if err != nil {
		return err
	}
	fresh, err := e.CreateTable(ycsbSchema("probe_insert"), core.IndexHash)
	if err != nil {
		return err
	}

	const k = 16
	tx := e.NewTx(0, 1)
	var failed error
	timeRun := func(body func(tx *core.Tx) error) []float64 {
		return timeReps(txns, func() {
			for t := 0; t < txns; t++ {
				if err := tx.Run(body); err != nil {
					failed = err
				}
			}
		})
	}
	keys := func() uint64 { return uint64(rng.Intn(rows)) }
	empty := timeRun(func(*core.Tx) error { return nil })
	reads := timeRun(func(tx *core.Tx) error {
		first := keys()
		for a := uint64(0); a < k; a++ {
			row, err := tx.Read(hashed, (first+a*7919)%uint64(rows))
			if err != nil {
				return err
			}
			sink += uint64(row[0])
		}
		return nil
	})
	updates := timeRun(func(tx *core.Tx) error {
		first := keys()
		for a := uint64(0); a < k; a++ {
			row, err := tx.Update(hashed, (first+a*7919)%uint64(rows))
			if err != nil {
				return err
			}
			row[0]++
		}
		return nil
	})
	next := uint64(0)
	newRow := fresh.Schema().NewRow()
	inserts := timeRun(func(tx *core.Tx) error {
		for a := 0; a < k; a++ {
			if err := tx.Insert(fresh, next, newRow); err != nil {
				return err
			}
			next++
		}
		return nil
	})
	const scanLen = 50
	scans := timeRun(func(tx *core.Tx) error {
		lo := uint64(rng.Intn(rows - scanLen))
		return tx.Scan(ranged, lo, lo+scanLen-1, func(_ uint64, row storage.Row) bool {
			sink += uint64(row[0])
			return true
		})
	})
	if failed != nil {
		return failed
	}
	base := summarize(empty).med
	perOp := func(with []float64, ops float64) []float64 {
		out := make([]float64, len(with))
		for i, v := range with {
			out[i] = (v - base) / ops
		}
		return out
	}
	r.putDist("core.txn_overhead_ns", empty)
	r.putDist("core.read_ns", perOp(reads, k))
	r.putDist("core.update_ns", perOp(updates, k))
	r.putDist("core.insert_ns", perOp(inserts, k))
	r.putDist("core.scan_ns_per_row", perOp(scans, scanLen))
	return nil
}

// logRecord is a ycsb_durable-shaped commit record: 8 updates of 108-byte
// rows.
func logRecord(txnID uint64) *wal.CommitRecord {
	cr := &wal.CommitRecord{TxnID: txnID}
	rowSize := ycsbSchema("probe").RowSize()
	for i := 0; i < 8; i++ {
		cr.Entries = append(cr.Entries, wal.Entry{
			Kind: wal.EntryUpdate, RID: txnID*8 + uint64(i), Key: txnID*8 + uint64(i),
			Data: make([]byte, rowSize),
		})
	}
	return cr
}

func probeWAL(r *result, o runOpts, appends, commits int) error {
	clk := newClock()
	off := newSpanBuf(0, 0)
	cr := logRecord(1)
	var rec []byte
	r.putDist("wal.encode_ns", timeReps(appends, func() {
		for i := 0; i < appends; i++ {
			rec = cr.Encode(rec)
		}
	}))
	r.put("wal.encode_bytes", float64(len(rec)))

	var failed error
	note := func(err error) {
		if err != nil {
			failed = err
		}
	}
	// Single stream: wal.Writer. Nothing waits, so nothing kicks the
	// flusher and the backlog is flushed by Close, outside the timing.
	appendNs := make([]float64, probeReps)
	for i := range appendNs {
		w := wal.NewWriter(newDiscardDevice(0, clk, off), 0)
		t0 := time.Now()
		for a := 0; a < appends; a++ {
			_, err := w.Append(rec)
			note(err)
		}
		appendNs[i] = nanosPer(int64(time.Since(t0)), appends)
		note(w.Close())
	}
	r.putDist("wal.writer_append_ns", appendNs)
	dev := newModelledDevice(o.seed, clk, off)
	w := wal.NewWriter(dev, 0)
	r.putDist("wal.writer_commit_us", scale(timeReps(commits, func() {
		for i := 0; i < commits; i++ {
			lsn, err := w.Append(rec)
			note(err)
			note(w.WaitDurable(lsn))
		}
	}), 1e-3))
	r.put("wal.writer_syncs_per_commit", float64(dev.syncs.Load())/float64(probeReps*commits))
	note(w.Close())

	// Stream set: W streams, the 200 µs epoch period ycsb_durable_streams
	// uses; the single caller appends to stream 0.
	streams := func(mk func(uint64, clock, *spanBuf) *device) ([]*device, *wal.StreamSet) {
		devs := make([]*device, nWorkers)
		sinks := make([]wal.Device, nWorkers)
		for i := range devs {
			devs[i] = mk(o.seed+uint64(i), clk, off)
			sinks[i] = devs[i]
		}
		return devs, wal.NewStreamSet(sinks, 200*time.Microsecond)
	}
	for i := range appendNs {
		_, ss := streams(newDiscardDevice)
		t0 := time.Now()
		for a := 0; a < appends; a++ {
			_, err := ss.Append(0, rec)
			note(err)
		}
		appendNs[i] = nanosPer(int64(time.Since(t0)), appends)
		note(ss.Close())
	}
	r.putDist("wal.streamset_append_ns", appendNs)
	devs, ss := streams(newModelledDevice)
	r.putDist("wal.streamset_commit_us", scale(timeReps(commits, func() {
		for i := 0; i < commits; i++ {
			epoch, err := ss.Append(0, rec)
			note(err)
			note(ss.WaitDurable(0, epoch))
		}
	}), 1e-3))
	r.put("wal.streamset_syncs_per_commit", float64(countDevices(devs).syncs)/float64(probeReps*commits))
	note(ss.Close())

	// Scan: decode a log image record by record, as recovery does.
	var image []byte
	for i := 0; i < appends; i++ {
		image = append(image, logRecord(uint64(i)).Encode(nil)...)
	}
	r.putDist("wal.scan_ns_per_record", timeReps(appends, func() {
		st, err := wal.ScanStream(bytes.NewReader(image), func(cr *wal.CommitRecord) error {
			sink += cr.TxnID
			return nil
		}, nil)
		note(err)
		if err == nil && st.Records != appends {
			note(fmt.Errorf("scan saw %d of %d records", st.Records, appends))
		}
	}))
	return failed
}

func scale(v []float64, by float64) []float64 {
	for i := range v {
		v[i] *= by
	}
	return v
}

// probeDet times the sequencer's two steps on det_batch's shape.
func probeDet(r *result, o runOpts, batches int) {
	def, _ := findWorkload("det_batch")
	spec := def.shrunk(o.shrink).spec
	y := workload.NewYCSB(workload.YCSBConfig{
		Records: spec.records, OpsPerTxn: spec.opsPerTxn,
		ReadRatio: spec.readRatio, Theta: spec.theta,
	})
	rng := xrand.New(o.seed*1_000_003 + 0xD00D)
	txns := make([]det.TxnPlan, detBatch)
	plan := func() {
		for i := range txns {
			txns[i].Reset()
			y.PlanTxn(rng, &txns[i])
		}
	}
	r.putDist("workload.plan_txn_ns", timeReps(batches*detBatch, func() {
		for b := 0; b < batches; b++ {
			plan()
		}
	}))
	pl := det.NewPlanner(nWorkers, nil)
	ops := 0
	for i := range txns {
		ops += len(txns[i].Ops)
	}
	r.putDist("det.plan_ns_per_op", timeReps(batches*ops, func() {
		for b := 0; b < batches; b++ {
			sink += uint64(pl.PlanBatch(txns).Txns)
		}
	}))
}

// probeDetLogged is det_batch with value logging on W unthrottled streams
// (epoch per batch). It is a diagnostic, never gated: on the seed commit
// its windows range over an order of magnitude at an unchanged median batch
// time, because an occasional batch seal takes 25–150 ms. An issue that
// fixes the seal promotes this to a workload.
func probeDetLogged(r *result, o runOpts, batches int) error {
	def, _ := findWorkload("det_batch")
	spec := def.shrunk(o.shrink).spec
	spec.log = logStreams
	clk := newClock()
	devs, _ := newDevices(spec, runOpts{seed: o.seed}, clk, newMemDevice)
	d, _, err := openDB(spec, devs)
	if err != nil {
		return err
	}
	defer d.close()
	seq, err := d.newDetDriver(detBatch, o.seed)
	if err != nil {
		return err
	}
	defer seq.close()
	var tps []float64
	var lat []int64
	for w := 0; w < probeReps; w++ {
		start := clk.now()
		t0 := start
		for b := 0; b < batches; b++ {
			seq.planTxns()
			seq.planBatch()
			if err := seq.executeBatch(); err != nil {
				return err
			}
			t1 := clk.now()
			lat = append(lat, t1-t0)
			t0 = t1
		}
		tps = append(tps, float64(batches*detBatch)/seconds(t0-start))
	}
	slices.Sort(lat)
	slow := 0
	for _, l := range lat {
		if l > 10*lat[len(lat)/2] {
			slow++
		}
	}
	r.putDist("core.det_logged_txn_per_s", tps)
	r.put("core.det_logged_slow_batch_ratio", float64(slow)/float64(len(lat)))
	r.checks = append(r.checks, fmt.Sprintf("det logged windows: %.0f–%.0f txn/s", slices.Min(tps), slices.Max(tps)))
	return nil
}
