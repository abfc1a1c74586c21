package harness

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"next700/internal/cc"
	"next700/internal/core"
	"next700/internal/sim"
	"next700/internal/stats"
	"next700/internal/wal"
	"next700/internal/workload"
	"next700/internal/xrand"
)

// Experiment is one reproducible entry of the evaluation suite (see
// DESIGN.md's per-experiment index).
type Experiment struct {
	// ID is the experiment identifier (E1..E14).
	ID string
	// Title is the one-line description.
	Title string
	// Bench is the bench_test.go target that exercises the same code.
	Bench string
	// Run executes the experiment, writing its table(s) to w. quick
	// shrinks scale for fast runs (tests, smoke checks).
	Run func(w io.Writer, quick bool) error
}

// All returns the experiment suite in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "YCSB thread scalability, low contention", "BenchmarkE1_YCSBLowContention", runE1},
		{"E2", "YCSB throughput vs contention (Zipf theta)", "BenchmarkE2_YCSBContention", runE2},
		{"E3", "YCSB abort rate vs contention", "BenchmarkE3_AbortRates", runE3},
		{"E4", "YCSB read-mix sweep under contention", "BenchmarkE4_ReadMix", runE4},
		{"E5", "TPC-C throughput vs warehouse count", "BenchmarkE5_TPCC", runE5},
		{"E6", "TPC-C thread scalability at fixed warehouses", "BenchmarkE6_TPCCScale", runE6},
		{"E7", "Simulated many-core scalability (1..1024 cores)", "BenchmarkE7_ManyCore", runE7},
		{"E8", "Logging overhead and recovery", "BenchmarkE8_Logging", runE8},
		{"E9", "Simulated tail latency under contention", "BenchmarkE9_TailLatency", runE9},
		{"E10", "H-Store multi-partition cliff", "BenchmarkE10_MultiPartition", runE10},
		{"E11", "Data-oriented (DORA) vs thread-to-transaction", "BenchmarkE11_DORA", runE11},
		{"E12", "Index structure ablation (hash vs B+ tree)", "BenchmarkE12_Index", runE12},
		{"E14", "MVCC isolation-level ablation", "BenchmarkE14_Isolation", runE14},
		{"E15", "HTAP: analytical scans concurrent with OLTP (extension)", "BenchmarkE15_HTAP", runE15},
	}
}

// ByID returns the experiment with the given id, or nil.
func ByID(id string) *Experiment {
	for _, e := range All() {
		if e.ID == id {
			ex := e
			return &ex
		}
	}
	return nil
}

// measurement scale helpers.
func ycsbRecords(quick bool) uint64 {
	if quick {
		return 16 * 1024
	}
	return 256 * 1024
}

func runOpts(quick bool, threads int) RunOptions {
	if quick {
		return RunOptions{Threads: threads, TxnsPerWorker: 300, WarmupTxns: 30, Seed: 7}
	}
	return RunOptions{Threads: threads, Duration: 400 * time.Millisecond, WarmupTxns: 200, Seed: 7}
}

func simHorizon(quick bool) uint64 {
	if quick {
		return 200_000
	}
	return 2_000_000
}

// table measures cell at every (row, column) pair and writes header over the
// rendered table; the corner names the row-label column.
func table[R, C any](w io.Writer, header, corner string, rows []R, cols []C,
	cell func(r R, c C) (interface{}, error)) error {
	tbl := stats.NewTable(append([]string{corner}, toStrings(cols)...)...)
	for _, r := range rows {
		line := []interface{}{r}
		for _, c := range cols {
			v, err := cell(r, c)
			if err != nil {
				return fmt.Errorf("%v %v: %w", r, c, err)
			}
			line = append(line, v)
		}
		tbl.AddRow(line...)
	}
	fmt.Fprintf(w, "%s\n%s\n", header, tbl)
	return nil
}

// ycsbSweep measures every protocol over a parameter list.
func ycsbSweep[T any](w io.Writer, header string, params []T,
	mkCfg func(p T) (core.Config, workload.YCSBConfig, RunOptions),
	cell func(r Result) interface{}) error {
	return table(w, header, "protocol", cc.Names(), params, func(proto string, p T) (interface{}, error) {
		cfg, ycfg, opts := mkCfg(p)
		cfg.Protocol = proto
		r, err := Run(cfg, workload.NewYCSB(ycfg), opts)
		return cell(r), err
	})
}

func toStrings[T any](params []T) []string {
	out := make([]string, len(params))
	for i, p := range params {
		out[i] = fmt.Sprintf("%v", p)
	}
	return out
}

// E1: thread scalability, low contention (uniform keys, 95% reads).
func runE1(w io.Writer, quick bool) error {
	threads := []int{1, 2, 4, 8}
	return ycsbSweep(w, "E1: YCSB tps, theta=0, 95% reads, by thread count", threads,
		func(th int) (core.Config, workload.YCSBConfig, RunOptions) {
			return core.Config{Threads: th, Partitions: th},
				workload.YCSBConfig{Records: ycsbRecords(quick), OpsPerTxn: 16, ReadRatio: 0.95},
				runOpts(quick, th)
		},
		func(r Result) interface{} { return r.Tps })
}

// contentionSweep is shared by E2 and E3.
func contentionSweep(w io.Writer, quick bool, header string, cell func(Result) interface{}) error {
	thetas := []float64{0, 0.6, 0.8, 0.9, 0.99}
	const threads = 8
	return ycsbSweep(w, header, thetas,
		func(theta float64) (core.Config, workload.YCSBConfig, RunOptions) {
			return core.Config{Threads: threads, Partitions: threads},
				workload.YCSBConfig{
					Records: ycsbRecords(quick), OpsPerTxn: 16, ReadRatio: 0.5,
					Theta: theta, InterleaveOps: true,
				},
				runOpts(quick, threads)
		}, cell)
}

// E2: throughput vs skew.
func runE2(w io.Writer, quick bool) error {
	return contentionSweep(w, quick,
		"E2: YCSB tps, 8 threads, 50/50 mix, by Zipf theta",
		func(r Result) interface{} { return r.Tps })
}

// E3: abort rate vs skew (same sweep as E2).
func runE3(w io.Writer, quick bool) error {
	return contentionSweep(w, quick,
		"E3: YCSB abort rate (aborts per attempt), 8 threads, 50/50 mix, by Zipf theta",
		func(r Result) interface{} { return r.AbortRate })
}

// E4: read-mix sweep under contention.
func runE4(w io.Writer, quick bool) error {
	ratios := []float64{0, 0.25, 0.5, 0.75, 0.9, 1}
	const threads = 8
	return ycsbSweep(w, "E4: YCSB tps, theta=0.8, 8 threads, by read fraction", ratios,
		func(ratio float64) (core.Config, workload.YCSBConfig, RunOptions) {
			return core.Config{Threads: threads, Partitions: threads},
				workload.YCSBConfig{
					Records: ycsbRecords(quick), OpsPerTxn: 16, ReadRatio: ratio,
					Theta: 0.8, InterleaveOps: true,
				},
				runOpts(quick, threads)
		},
		func(r Result) interface{} { return r.Tps })
}

func tpccConfig(quick bool, warehouses int) workload.TPCCConfig {
	if quick {
		return workload.TPCCConfig{
			Warehouses: warehouses, DistrictsPerWarehouse: 4,
			CustomersPerDistrict: 120, Items: 500, InitialOrdersPerDistrict: 120,
		}
	}
	return workload.TPCCConfig{
		Warehouses: warehouses, DistrictsPerWarehouse: 10,
		CustomersPerDistrict: 600, Items: 10_000, InitialOrdersPerDistrict: 600,
	}
}

// E5: TPC-C throughput by warehouse count.
func runE5(w io.Writer, quick bool) error {
	const threads = 4
	return table(w, "E5: TPC-C tps (full mix), 4 threads, by warehouse count", "protocol", cc.Names(), []int{1, 2, 4},
		func(proto string, wh int) (interface{}, error) {
			r, err := Run(core.Config{Protocol: proto, Threads: threads, Partitions: wh},
				workload.NewTPCC(tpccConfig(quick, wh)), runOpts(quick, threads))
			return r.Tps, err
		})
}

// E6: TPC-C thread scalability at W=4.
func runE6(w io.Writer, quick bool) error {
	return table(w, "E6: TPC-C tps (full mix), W=4, by thread count", "protocol", cc.Names(), []int{1, 2, 4, 8},
		func(proto string, th int) (interface{}, error) {
			r, err := Run(core.Config{Protocol: proto, Threads: th, Partitions: 4},
				workload.NewTPCC(tpccConfig(quick, 4)), runOpts(quick, th))
			return r.Tps, err
		})
}

// E7: simulated many-core scalability.
func runE7(w io.Writer, quick bool) error {
	cores := []int{1, 4, 16, 64, 256, 1024}
	records := uint64(1 << 16)
	if quick {
		// The simulator is deterministic: quick has to show that both tables
		// render at three core counts, not a curve. What the 256-core column
		// costs is not simulated time but every core's Zipf table over the
		// records, so quick shrinks those.
		cores = []int{1, 16, 256}
		records = 1 << 11
	}
	for _, theta := range []float64{0.6, 0.8} {
		header := fmt.Sprintf("E7: simulated throughput (txn per Mcycle), theta=%.1f, by core count", theta)
		err := table(w, header, "protocol", cc.Names(), cores, func(proto string, n int) (interface{}, error) {
			r, err := sim.Run(sim.Config{
				Protocol: proto, Cores: n, Records: records, Theta: theta,
				OpsPerTxn: 16, WriteRatio: 0.5, Horizon: simHorizon(quick),
				Partitions: n,
			})
			return r.Throughput, err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// E8: logging overhead and recovery.
func runE8(w io.Writer, quick bool) error {
	const threads = 4
	records := ycsbRecords(quick)
	tbl := stats.NewTable("mode", "tps", "p99", "log_bytes", "recover_txn", "torn_bytes", "recover_ms")

	for _, mode := range []wal.Mode{wal.ModeNone, wal.ModeValue, wal.ModeCommand} {
		cfg := core.Config{Protocol: "NO_WAIT", Threads: threads, LogMode: mode}
		var logPath string
		if mode != wal.ModeNone {
			f, err := os.CreateTemp("", "next700-e8-*.log")
			if err != nil {
				return err
			}
			logPath = f.Name()
			defer os.Remove(logPath)
			cfg.LogDevice = f
			defer f.Close()
		}
		ycfg := workload.YCSBConfig{Records: records, OpsPerTxn: 8, ReadRatio: 0.5, Theta: 0.4}
		r, err := Run(cfg, workload.NewYCSB(ycfg), runOpts(quick, threads))
		if err != nil {
			return err
		}

		var logBytes, tornBytes int64
		recovered := 0
		var recoverMS float64
		if mode != wal.ModeNone {
			if fi, err := os.Stat(logPath); err == nil {
				logBytes = fi.Size()
			}
			// Fresh engine + replay.
			e2, err := core.Open(core.Config{Protocol: "NO_WAIT", Threads: 1, LogMode: mode, LogDevice: nullDevice{}})
			if err != nil {
				return err
			}
			wl2 := workload.NewYCSB(ycfg)
			if err := wl2.Setup(e2); err != nil {
				return err
			}
			lf, err := os.Open(logPath)
			if err != nil {
				return err
			}
			t0 := time.Now()
			st, err := e2.Recover(lf)
			recoverMS = float64(time.Since(t0).Microseconds()) / 1000
			lf.Close()
			e2.Close()
			if err != nil {
				return err
			}
			recovered = st.Records
			tornBytes = st.TornBytes
		}
		tbl.AddRow(mode.String(), r.Tps, time.Duration(r.Latency.P99).String(), logBytes, recovered, tornBytes, recoverMS)
	}
	fmt.Fprintf(w, "E8: YCSB with durability (NO_WAIT, 4 threads, group commit 1ms)\n%s\n", tbl)
	return nil
}

// nullDevice discards log writes (recovery-side engines re-log replayed
// commands; their log output is irrelevant).
type nullDevice struct{}

func (nullDevice) Write(p []byte) (int, error) { return len(p), nil }
func (nullDevice) Sync() error                 { return nil }

// E9: simulated tail latency.
func runE9(w io.Writer, quick bool) error {
	tbl := stats.NewTable("protocol", "p50", "p90", "p99", "p99.9", "abort")
	for _, proto := range cc.Names() {
		r, err := sim.Run(sim.Config{
			Protocol: proto, Cores: 64, Records: 1 << 14, Theta: 0.9,
			OpsPerTxn: 16, WriteRatio: 0.5, Horizon: simHorizon(quick),
			Partitions: 64,
		})
		if err != nil {
			return err
		}
		tbl.AddRow(proto, r.Latency.P50, r.Latency.P90, r.Latency.P99, r.Latency.P999, r.AbortRate)
	}
	fmt.Fprintf(w, "E9: simulated per-txn latency in cycles, 64 cores, theta=0.9, 50/50 mix\n%s\n", tbl)
	return nil
}

// E10: H-Store multi-partition cliff.
func runE10(w io.Writer, quick bool) error {
	const threads = 8
	return table(w, "E10: YCSB tps, 8 threads/partitions, by multi-partition fraction", "protocol",
		[]string{"HSTORE", "SILO", "NO_WAIT"}, []float64{0, 0.05, 0.1, 0.2, 0.5, 1},
		func(proto string, mp float64) (interface{}, error) {
			r, err := Run(core.Config{Protocol: proto, Threads: threads, Partitions: threads},
				workload.NewYCSB(workload.YCSBConfig{
					Records: ycsbRecords(quick), OpsPerTxn: 16, ReadRatio: 0.5,
					PartitionLocal: true, MultiPartitionFraction: mp,
				}), runOpts(quick, threads))
			return r.Tps, err
		})
}

// E11: data-oriented execution vs thread-to-transaction under skew.
func runE11(w io.Writer, quick bool) error {
	records := ycsbRecords(quick)
	const parts = 8
	const ops = 4
	txns := 2000
	if quick {
		txns = 500
	}
	tbl := stats.NewTable("execution", "theta=0.6", "theta=0.95")

	// DORA: partitioned counters, owner-thread execution, no locks.
	doraRow := []interface{}{"DORA"}
	for _, theta := range []float64{0.6, 0.95} {
		counters := make([]int64, records)
		ex := newDoraExecutor(parts, 256)
		t0 := time.Now()
		var wg sync.WaitGroup
		for th := 0; th < parts; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				rng := xrand.New(uint64(th + 1))
				zipf := xrand.NewZipf(rng, records/parts, theta)
				keys := make([]uint64, ops)
				for i := 0; i < txns; i++ {
					home := th % parts
					for j := range keys {
						keys[j] = zipf.Next()*parts + uint64(home)
					}
					ex.exec(int(keys[0]%parts), func() {
						for _, k := range keys {
							counters[k]++
						}
					})
				}
			}(th)
		}
		wg.Wait()
		ex.stop()
		doraRow = append(doraRow, float64(parts*txns)/time.Since(t0).Seconds())
	}
	tbl.AddRow(doraRow...)

	// Thread-to-transaction: the engine with record-level CC.
	for _, proto := range []string{"NO_WAIT", "SILO"} {
		row := []interface{}{"t2t/" + proto}
		for _, theta := range []float64{0.6, 0.95} {
			r, err := Run(core.Config{Protocol: proto, Threads: parts, Partitions: parts},
				workload.NewYCSB(workload.YCSBConfig{
					Records: records, OpsPerTxn: ops, ReadRatio: 0, Theta: theta,
					PartitionLocal: true,
				}), RunOptions{Threads: parts, TxnsPerWorker: txns, Seed: 7})
			if err != nil {
				return err
			}
			row = append(row, r.Tps)
		}
		tbl.AddRow(row...)
	}
	fmt.Fprintf(w, "E11: RMW tps, 8 workers, data-oriented vs thread-to-transaction\n%s\n", tbl)
	return nil
}

// E12: index structure ablation.
func runE12(w io.Writer, quick bool) error {
	const threads = 4
	tbl := stats.NewTable("workload", "hash", "btree")

	// Point-only.
	row := []interface{}{"point ops"}
	for _, scan := range []float64{0, 0.000001} { // >0 forces btree primary
		r, err := Run(core.Config{Protocol: "SILO", Threads: threads},
			workload.NewYCSB(workload.YCSBConfig{
				Records: ycsbRecords(quick), OpsPerTxn: 16, ReadRatio: 0.5,
				Theta: 0.4, ScanFraction: scan,
			}), runOpts(quick, threads))
		if err != nil {
			return err
		}
		row = append(row, r.Tps)
	}
	tbl.AddRow(row...)

	// Scan-heavy (btree only; hash cannot).
	r, err := Run(core.Config{Protocol: "SILO", Threads: threads},
		workload.NewYCSB(workload.YCSBConfig{
			Records: ycsbRecords(quick), OpsPerTxn: 4, ReadRatio: 0.8,
			Theta: 0.4, ScanFraction: 0.5, ScanLength: 50,
		}), runOpts(quick, threads))
	if err != nil {
		return err
	}
	tbl.AddRow("50% scans", "n/a", r.Tps)
	fmt.Fprintf(w, "E12: YCSB tps by primary index kind (SILO, 4 threads)\n%s\n", tbl)
	return nil
}

// E14: MVCC isolation-level ablation.
func runE14(w io.Writer, quick bool) error {
	const threads = 8
	tbl := stats.NewTable("isolation", "tps", "abort")
	for _, iso := range []string{cc.IsoSerializable, cc.IsoSnapshot, cc.IsoReadCommitted} {
		r, err := Run(core.Config{Protocol: "MVCC", Threads: threads, Isolation: iso},
			workload.NewYCSB(workload.YCSBConfig{
				Records: ycsbRecords(quick), OpsPerTxn: 16, ReadRatio: 0.5,
				Theta: 0.9, InterleaveOps: true,
			}), runOpts(quick, threads))
		if err != nil {
			return err
		}
		tbl.AddRow(iso, r.Tps, r.AbortRate)
	}
	fmt.Fprintf(w, "E14: YCSB on MVCC, theta=0.9, 8 threads, by isolation level\n%s\n", tbl)
	return nil
}
