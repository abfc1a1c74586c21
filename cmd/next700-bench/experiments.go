package main

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"next700/internal/cc"
	"next700/internal/core"
	"next700/internal/harness"
	"next700/internal/sim"
	"next700/internal/storage"
	"next700/internal/wal"
	"next700/internal/workload"
)

// The evaluation suite E1–E15 (DESIGN.md's per-experiment index; E3 is E2's
// abort-rate metric, E13 is retired). Each experiment is a sweep like any
// other, and each "Expected" sentence of EXPERIMENTS.md is a named check over
// its cells: a shape read off the simulator or a structural fact is exact and
// a check; a shape read off a wall clock is a …_target, which only warns.

// ycsbRecords is the experiments' YCSB table size; -quick shrinks it.
func ycsbRecords(quick bool) uint64 {
	if quick {
		return 16 * 1024
	}
	return 256 * 1024
}

func tpccScale(quick bool, warehouses int) workload.TPCCConfig {
	if quick {
		return workload.TPCCConfig{Warehouses: warehouses, DistrictsPerWarehouse: 4, CustomersPerDistrict: 120, Items: 500, InitialOrdersPerDistrict: 120}
	}
	return workload.TPCCConfig{Warehouses: warehouses, DistrictsPerWarehouse: 10, CustomersPerDistrict: 600, Items: 10_000, InitialOrdersPerDistrict: 600}
}

// measure runs one real-engine cell for the common run length, warm-up and seed.
func (a common) measure(cfg core.Config, wl workload.Workload, threads int) (map[string]metric, error) {
	r, err := harness.Run(cfg, wl, harness.RunOptions{Threads: threads, Duration: a.Duration, WarmupTxns: a.Warmup, Seed: a.Seed})
	return runMetrics(r), err
}

// cells are a grid's metrics by row and axis value.
type cells map[string]map[float64]map[string]metric

// gridSweep is an experiment over rows × xs showing cols: cell measures one
// cell (no metrics: the grid has no such cell), checks reads them all.
func gridSweep(name, title string, axes [2]string, rows []string, xs []float64, params map[string]interface{},
	cols []string, cell func(row string, x float64) (map[string]metric, error), checks func(s *sweepRun, c cells)) sweep {
	return sweep{
		name: name, title: title, params: params, axes: axes[:], cols: cols,
		run: func(s *sweepRun) error {
			c := cells{}
			for _, r := range rows {
				c[r] = map[float64]map[string]metric{}
				for _, x := range xs {
					m, err := cell(r, x)
					if err != nil {
						return fmt.Errorf("%s %s=%v: %w", r, axes[1], x, err)
					}
					if m != nil {
						c[r][x] = m
						s.row(map[string]interface{}{axes[0]: r, axes[1]: x}, m)
					}
				}
			}
			checks(s, c)
			return nil
		},
	}
}

// runCols are the columns of a grid of runMetrics cells.
var runCols = []string{"tps", "abort_rate", "p99_ms"}

// v is one metric of one cell.
func (c cells) v(row string, x float64, metric string) float64 { return c[row][x][metric].Value }

// top and bottom are the rows of rows with the highest and lowest metric at x.
func (c cells) top(rows []string, x float64, metric string) string {
	return slices.MaxFunc(rows, func(p, q string) int { return cmp.Compare(c.v(p, x, metric), c.v(q, x, metric)) })
}

func (c cells) bottom(rows []string, x float64, metric string) string {
	return slices.MinFunc(rows, func(p, q string) int { return cmp.Compare(c.v(p, x, metric), c.v(q, x, metric)) })
}

// targetAt records a target that claims ok at every x.
func (s *sweepRun) targetAt(name, claim string, xs []float64, ok func(x float64) bool) {
	miss := slices.DeleteFunc(slices.Clone(xs), ok)
	s.target(name, len(miss) == 0, "%s at %v; misses at %v", claim, xs, miss)
}

// all reports whether ok holds for every one of xs.
func all[T any](xs []T, ok func(T) bool) bool {
	return !slices.ContainsFunc(xs, func(x T) bool { return !ok(x) })
}

// without is cc.Names() less the named protocols.
func without(names ...string) []string {
	return slices.DeleteFunc(cc.Names(), func(p string) bool { return slices.Contains(names, p) })
}

var twoPL = []string{"NO_WAIT", "WAIT_DIE", "DL_DETECT"}

func e1Sweep(a common) sweep {
	ycfg := workload.YCSBConfig{Records: ycsbRecords(a.quick), OpsPerTxn: 16, ReadRatio: 0.95}
	threads := []float64{1, 2, 4, 8}
	return gridSweep("e1", "E1: YCSB tps by thread count, theta=0, 95% reads", [2]string{"protocol", "threads"},
		cc.Names(), threads, map[string]interface{}{"ycsb": ycfg}, runCols,
		func(p string, x float64) (map[string]metric, error) {
			return a.measure(core.Config{Protocol: p, Threads: int(x), Partitions: int(x)}, workload.NewYCSB(ycfg), int(x))
		},
		func(s *sweepRun, c cells) {
			s.targetAt("hstore_top_target", "HSTORE (no per-record CC) has the highest tps", threads,
				func(x float64) bool { return c.top(cc.Names(), x, "tps") == "HSTORE" })
			s.targetAt("occ_over_2pl_target", "SILO is above every 2PL variant", threads,
				func(x float64) bool { return c.v("SILO", x, "tps") > c.v(c.top(twoPL, x, "tps"), x, "tps") })
		})
}

// e2Sweep is E2 and E3: one contention grid, its throughput and abort rate.
func e2Sweep(a common) sweep {
	ycfg := workload.YCSBConfig{Records: ycsbRecords(a.quick), OpsPerTxn: 16, ReadRatio: 0.5, InterleaveOps: true}
	thetas := []float64{0, 0.6, 0.8, 0.9, 0.99}
	hot := thetas[2:]
	return gridSweep("e2", "E2/E3: YCSB tps and abort rate by Zipf theta, 8 threads, 50/50 mix", [2]string{"protocol", "theta"},
		cc.Names(), thetas, map[string]interface{}{"ycsb": ycfg, "threads": 8}, runCols,
		func(p string, theta float64) (map[string]metric, error) {
			y := ycfg
			y.Theta = theta
			return a.measure(core.Config{Protocol: p, Threads: 8, Partitions: 8}, workload.NewYCSB(y), 8)
		},
		func(s *sweepRun, c cells) {
			ab := func(p string, x float64) float64 { return c.v(p, x, "abort_rate") }
			// HSTORE's aborts are its partition try-lock fallback and
			// DL_DETECT waits instead of aborting: neither is abort-based.
			s.targetAt("aborts_explode_target", "every abort-based scheme aborts at least 3x its theta-0 rate", hot, func(x float64) bool {
				return all(without("HSTORE", "DL_DETECT"), func(p string) bool { return ab(p, x) >= 3*ab(p, 0) })
			})
			s.targetAt("tictoc_aborts_lt_silo_target", "TICTOC aborts less than SILO", hot,
				func(x float64) bool { return ab("TICTOC", x) < ab("SILO", x) })
			s.targetAt("wait_die_aborts_highest_target", "WAIT_DIE aborts most", hot,
				func(x float64) bool { return c.top(cc.Names(), x, "abort_rate") == "WAIT_DIE" })
			s.targetAt("dl_detect_aborts_lowest_target", "DL_DETECT aborts least of the record-level schemes", hot,
				func(x float64) bool { return c.bottom(without("HSTORE"), x, "abort_rate") == "DL_DETECT" })
			s.targetAt("abort_chain_target", "TICTOC < SILO < TIMESTAMP, NO_WAIT < WAIT_DIE in aborts", hot, func(x float64) bool {
				return ab("TICTOC", x) < ab("SILO", x) && ab("SILO", x) < min(ab("TIMESTAMP", x), ab("NO_WAIT", x)) &&
					max(ab("TIMESTAMP", x), ab("NO_WAIT", x)) < ab("WAIT_DIE", x)
			})
			fall := func(p string) float64 { return c.v(p, 0.99, "tps") / c.v(p, 0, "tps") }
			falls := slices.MinFunc(cc.Names(), func(p, q string) int { return cmp.Compare(fall(p), fall(q)) })
			s.target("dl_detect_tps_falls_furthest_target", falls == "DL_DETECT",
				"tps(0.99)/tps(0) is lowest for %s (%.2f; DL_DETECT %.2f)", falls, fall(falls), fall("DL_DETECT"))
		})
}

func e4Sweep(a common) sweep {
	ycfg := workload.YCSBConfig{Records: ycsbRecords(a.quick), OpsPerTxn: 16, Theta: 0.8, InterleaveOps: true}
	return gridSweep("e4", "E4: YCSB tps by read fraction, theta=0.8, 8 threads", [2]string{"protocol", "reads"},
		cc.Names(), []float64{0, 0.25, 0.5, 0.75, 0.9, 1}, map[string]interface{}{"ycsb": ycfg, "threads": 8}, runCols,
		func(p string, reads float64) (map[string]metric, error) {
			y := ycfg
			y.ReadRatio = reads
			return a.measure(core.Config{Protocol: p, Threads: 8, Partitions: 8}, workload.NewYCSB(y), 8)
		},
		func(s *sweepRun, c cells) {
			gain := func(p string) float64 { return c.v(p, 1, "tps") / c.v(p, 0, "tps") }
			best := slices.MaxFunc(twoPL, func(p, q string) int { return cmp.Compare(gain(p), gain(q)) })
			s.target("occ_mvcc_read_gain_over_2pl_target", min(gain("MVCC"), gain("SILO")) > gain(best),
				"tps(reads=1)/tps(reads=0): MVCC %.2f, SILO %.2f, best 2PL %s %.2f", gain("MVCC"), gain("SILO"), best, gain(best))
			family := append([]string{"MVCC", "SILO"}, twoPL...)
			spread := func(x float64) float64 {
				return c.v(c.top(family, x, "tps"), x, "tps") / c.v(c.bottom(family, x, "tps"), x, "tps")
			}
			s.target("families_converge_target", spread(1) < spread(0),
				"max/min tps of MVCC, SILO and 2PL: %.2f at reads=1, %.2f at reads=0", spread(1), spread(0))
		})
}

// tpccSweep is E5 and E6: TPC-C's full mix on every protocol along one axis.
func tpccSweep(a common, name, title, axis string, xs []float64, threadsAndWarehouses func(x float64) (int, int)) sweep {
	return gridSweep(name, title, [2]string{"protocol", axis}, cc.Names(), xs,
		map[string]interface{}{"tpcc": tpccScale(a.quick, 0)}, runCols,
		func(p string, x float64) (map[string]metric, error) {
			th, wh := threadsAndWarehouses(x)
			return a.measure(core.Config{Protocol: p, Threads: th, Partitions: wh}, workload.NewTPCC(tpccScale(a.quick, wh)), th)
		},
		func(s *sweepRun, c cells) {
			s.targetAt("hstore_top_target", "HSTORE (TPC-C partitions by warehouse) has the highest tps", xs,
				func(x float64) bool { return c.top(cc.Names(), x, "tps") == "HSTORE" })
			field := without("HSTORE")
			s.targetAt("field_within_2x_target", "the shared-everything schemes are within 2x of each other", xs,
				func(x float64) bool {
					return c.v(c.top(field, x, "tps"), x, "tps") <= 2*c.v(c.bottom(field, x, "tps"), x, "tps")
				})
		})
}

func e5Sweep(a common) sweep {
	return tpccSweep(a, "e5", "E5: TPC-C tps (full mix) by warehouse count, 4 threads", "warehouses",
		[]float64{1, 2, 4}, func(x float64) (int, int) { return 4, int(x) })
}

func e6Sweep(a common) sweep {
	return tpccSweep(a, "e6", "E6: TPC-C tps (full mix) by thread count, 4 warehouses", "threads",
		[]float64{1, 2, 4, 8}, func(x float64) (int, int) { return int(x), 4 })
}

// e7Pinned is the FNV-64a digest of every E7 cell's commit count in sweep
// order, by -quick. The simulator is deterministic: another digest is a
// change to the simulator, and the new one is pinned with it.
var e7Pinned = map[bool]string{false: "ac97a69fb9cf4db5", true: "d3e759617d15cec8"}

func e7Sweep(a common) sweep {
	cfg := sim.Config{Records: 1 << 16, OpsPerTxn: 16, WriteRatio: 0.5, Horizon: 2_000_000}
	cores := []int{1, 4, 16, 64, 256, 1024}
	if a.quick {
		// What the 256-core column costs is every core's Zipf table over the
		// records, so quick shrinks those with the core list.
		cfg.Records, cfg.Horizon, cores = 1<<11, 200_000, []int{1, 16, 256}
	}
	return sweep{
		name:   "e7",
		title:  fmt.Sprintf("E7: simulated throughput (txn per Mcycle) by core count, %d records", cfg.Records),
		params: map[string]interface{}{"sim": cfg},
		axes:   []string{"theta", "protocol", "cores"},
		cols:   []string{"txn_per_mcycle", "abort_rate"},
		run: func(s *sweepRun) error {
			tput := map[string][]float64{} // theta 0.6, in core order
			h := fnv.New64a()
			for _, theta := range []float64{0.6, 0.8} {
				for _, p := range cc.Names() {
					for _, n := range cores {
						c := cfg
						c.Protocol, c.Cores, c.Partitions, c.Theta = p, n, n, theta
						r, err := sim.Run(c)
						if err != nil {
							return fmt.Errorf("%s cores=%d: %w", p, n, err)
						}
						h.Write(binary.LittleEndian.AppendUint64(nil, r.Commits))
						if theta == 0.6 {
							tput[p] = append(tput[p], r.Throughput)
						}
						s.row(map[string]interface{}{"theta": theta, "protocol": p, "cores": n}, map[string]metric{
							"txn_per_mcycle": {r.Throughput, "txn/Mcycle"}, "abort_rate": ratio(r.AbortRate), "commits": count(r.Commits),
						})
					}
				}
			}
			digest := fmt.Sprintf("%016x", h.Sum64())
			s.check("values_pinned", digest == e7Pinned[a.quick], "commit digest %s, pinned %s", digest, e7Pinned[a.quick])
			last := func(p string) float64 { return tput[p][len(cores)-1] }
			peak := func(p string) float64 { return slices.Max(tput[p]) }
			lowest := slices.MinFunc(without("HSTORE"), func(p, q string) int { return cmp.Compare(last(p), last(q)) })
			s.check("dl_detect_thrashes_first", lowest == "DL_DETECT" && last("DL_DETECT") < peak("DL_DETECT")/10,
				"theta 0.6 at the most cores: lowest is %s; DL_DETECT %.0f, peak %.0f", lowest, last("DL_DETECT"), peak("DL_DETECT"))
			s.check("wait_die_decays", last("WAIT_DIE") < peak("WAIT_DIE"), "WAIT_DIE %.0f, peak %.0f", last("WAIT_DIE"), peak("WAIT_DIE"))
			s.check("no_wait_most_graceful_2pl", last("NO_WAIT") > max(last("WAIT_DIE"), last("DL_DETECT")),
				"NO_WAIT %.0f, WAIT_DIE %.0f, DL_DETECT %.0f", last("NO_WAIT"), last("WAIT_DIE"), last("DL_DETECT"))
			ceiling := 1e6 / float64(sim.DefaultCosts().TsAlloc)
			s.check("ts_mvcc_under_allocator_ceiling", max(peak("TIMESTAMP"), peak("MVCC")) <= ceiling,
				"TIMESTAMP peak %.0f, MVCC peak %.0f, 1/TsAlloc %.0f", peak("TIMESTAMP"), peak("MVCC"), ceiling)
			s.check("occ_keeps_climbing", slices.IsSorted(tput["SILO"]) && slices.IsSorted(tput["TICTOC"]),
				"SILO %.0f, TICTOC %.0f", tput["SILO"], tput["TICTOC"])
			s.check("tictoc_over_silo", last("TICTOC") > last("SILO"), "TICTOC %.0f, SILO %.0f", last("TICTOC"), last("SILO"))
			linear := last("HSTORE") / (tput["HSTORE"][0] * float64(cores[len(cores)-1]))
			s.check("hstore_scales_linearly", linear >= 0.9, "HSTORE is %.2f of linear", linear)
			return nil
		},
	}
}

func e8Sweep(a common) sweep {
	ycfg := workload.YCSBConfig{Records: ycsbRecords(a.quick), OpsPerTxn: 8, ReadRatio: 0.5, Theta: 0.4}
	modes := map[string]wal.Mode{"none": wal.ModeNone, "value": wal.ModeValue, "command": wal.ModeCommand}
	return gridSweep("e8", "E8: YCSB with durability, NO_WAIT, fsync per commit to a file", [2]string{"mode", "threads"},
		[]string{"none", "value", "command"}, []float64{4}, map[string]interface{}{"ycsb": ycfg, "protocol": "NO_WAIT"},
		[]string{"tps", "p99_ms", "log_bytes", "log_bytes_per_txn", "recovered_txns", "recover_ms"},
		func(mode string, threads float64) (map[string]metric, error) {
			return e8Cell(a, modes[mode], ycfg, int(threads))
		},
		func(s *sweepRun, c cells) {
			val := func(m string) float64 { return c.v("value", 4, m) }
			cmd := func(m string) float64 { return c.v("command", 4, m) }
			s.check("recovery_covers_commits", val("recovered_txns") >= val("commits") && cmd("recovered_txns") >= cmd("commits"),
				"recovered/committed: value %.0f/%.0f, command %.0f/%.0f", val("recovered_txns"), val("commits"), cmd("recovered_txns"), cmd("commits"))
			s.check("no_torn_tail", val("torn_bytes") == 0 && cmd("torn_bytes") == 0,
				"torn bytes after a clean close: value %.0f, command %.0f", val("torn_bytes"), cmd("torn_bytes"))
			s.check("command_log_smaller", val("log_bytes_per_txn") >= 2*cmd("log_bytes_per_txn"),
				"bytes per txn: value %.0f, command %.0f", val("log_bytes_per_txn"), cmd("log_bytes_per_txn"))
			none := c.v("none", 4, "tps")
			s.target("fsync_bound_target", none >= 5*max(val("tps"), cmd("tps")), "tps: none %.0f, value %.0f, command %.0f", none, val("tps"), cmd("tps"))
			perTxn := func(m func(string) float64) float64 { return 1000 * m("recover_ms") / m("recovered_txns") }
			s.target("value_replays_faster_target", perTxn(val) < perTxn(cmd),
				"recovery µs per txn: value %.2f, command %.2f", perTxn(val), perTxn(cmd))
		})
}

// e8Cell runs one logging mode to a log in a temporary directory, then
// replays it into a fresh engine: the -log and -recover path of a single run.
func e8Cell(a common, mode wal.Mode, ycfg workload.YCSBConfig, threads int) (map[string]metric, error) {
	cfg := core.Config{Protocol: "NO_WAIT", Threads: threads, LogMode: mode}
	if mode == wal.ModeNone {
		return a.measure(cfg, workload.NewYCSB(ycfg), threads)
	}
	dir, err := os.MkdirTemp("", "next700-e8-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "log")
	devs, closeLog, err := openLog(path, 1, mode.String())
	if err != nil {
		return nil, err
	}
	defer closeLog()
	cfg.LogDevices = devs
	m, err := a.measure(cfg, workload.NewYCSB(ycfg), threads)
	if err != nil {
		return nil, err
	}
	st, took, err := recoverLog(cfg, workload.NewYCSB(ycfg), path)
	if err != nil {
		return nil, err
	}
	m["recover_ms"] = ms(took)
	m["log_bytes"] = size(st.Bytes)
	m["recovered_txns"] = count(uint64(st.Records))
	m["log_bytes_per_txn"] = metric{float64(st.Bytes) / float64(max(st.Records, 1)), "B/txn"}
	m["torn_bytes"] = size(st.TornBytes)
	return m, nil
}

// e9Pinned are E9's latency percentiles (p50, p90, p99, p99.9 in cycles).
var e9Pinned = map[string][4]int64{
	"NO_WAIT":   {36864, 409600, 1441792, 1835008},
	"WAIT_DIE":  {172032, 983040, 1245184, 1376256},
	"DL_DETECT": {524288, 1310720, 1835008, 1835008},
	"TIMESTAMP": {38912, 344064, 1310720, 1441792},
	"MVCC":      {26624, 376832, 1048576, 1835008},
	"SILO":      {7680, 102400, 1048576, 1572864},
	"TICTOC":    {7424, 102400, 753664, 1376256},
	"HSTORE":    {2432, 3456, 3584, 3584},
}

// e9Sweep runs at one scale, -quick or not: a shorter horizon caps every
// latency near its own length and inverts the figure.
func e9Sweep(common) sweep {
	cfg := sim.Config{Cores: 64, Partitions: 64, Records: 1 << 14, Theta: 0.9, OpsPerTxn: 16, WriteRatio: 0.5, Horizon: 2_000_000}
	pcts := []string{"p50_cycles", "p90_cycles", "p99_cycles", "p999_cycles"}
	lat := map[string][4]int64{}
	return gridSweep("e9", "E9: simulated per-txn latency in cycles, theta=0.9, 50/50 mix", [2]string{"protocol", "cores"},
		cc.Names(), []float64{64}, map[string]interface{}{"sim": cfg}, append(pcts, "abort_rate"),
		func(p string, _ float64) (map[string]metric, error) {
			c := cfg
			c.Protocol = p
			r, err := sim.Run(c)
			m := map[string]metric{"abort_rate": ratio(r.AbortRate), "commits": count(r.Commits)}
			lat[p] = [4]int64{r.Latency.P50, r.Latency.P90, r.Latency.P99, r.Latency.P999}
			for i, l := range lat[p] {
				m[pcts[i]] = metric{float64(l), "cycles"}
			}
			return m, err
		},
		func(s *sweepRun, _ cells) {
			var moved []string
			for _, p := range cc.Names() {
				if lat[p] != e9Pinned[p] {
					moved = append(moved, fmt.Sprintf("%s %v", p, lat[p]))
				}
			}
			s.check("values_pinned", len(moved) == 0, "moved from e9Pinned: %v", moved)
			abortBased := without("WAIT_DIE", "DL_DETECT", "HSTORE")
			s.check("dl_detect_worst", all(cc.Names(), func(p string) bool {
				return lat["DL_DETECT"][0] >= lat[p][0] && lat["DL_DETECT"][3] >= lat[p][3]
			}), "DL_DETECT's p50 and p99.9 are the highest")
			s.check("wait_based_fatter_median", all(abortBased, func(p string) bool {
				return min(lat["WAIT_DIE"][0], lat["DL_DETECT"][0]) > lat[p][0] && min(lat["WAIT_DIE"][1], lat["DL_DETECT"][1]) > lat[p][1]
			}), "WAIT_DIE's and DL_DETECT's p50 and p90 are above every abort-based scheme's")
			s.check("abort_based_retry_tails", all(abortBased, func(p string) bool { return lat[p][3] >= 10*lat[p][0] }),
				"every abort-based scheme's p99.9 is at least 10x its p50")
			s.check("hstore_flat", lat["HSTORE"][3] <= 2*lat["HSTORE"][0], "HSTORE p50 %d, p99.9 %d", lat["HSTORE"][0], lat["HSTORE"][3])
		})
}

func e10Sweep(a common) sweep {
	ycfg := workload.YCSBConfig{Records: ycsbRecords(a.quick), OpsPerTxn: 16, ReadRatio: 0.5, PartitionLocal: true}
	fracs := []float64{0, 0.05, 0.1, 0.2, 0.5, 1}
	return gridSweep("e10", "E10: YCSB tps by multi-partition fraction, 8 threads and partitions", [2]string{"protocol", "multipartition"},
		[]string{"HSTORE", "SILO", "NO_WAIT"}, fracs, map[string]interface{}{"ycsb": ycfg, "threads": 8}, runCols,
		func(p string, mp float64) (map[string]metric, error) {
			y := ycfg
			y.MultiPartitionFraction = mp
			return a.measure(core.Config{Protocol: p, Threads: 8, Partitions: 8}, workload.NewYCSB(y), 8)
		},
		func(s *sweepRun, c cells) {
			shared := func(x float64) float64 { return max(c.v("SILO", x, "tps"), c.v("NO_WAIT", x, "tps")) }
			s.target("hstore_wins_at_0_target", c.v("HSTORE", 0, "tps") >= 1.5*shared(0),
				"HSTORE %.0f vs best shared-everything %.0f at 0%% multi-partition", c.v("HSTORE", 0, "tps"), shared(0))
			s.targetAt("hstore_cliff_target", "HSTORE is below the best shared-everything scheme", fracs[3:],
				func(x float64) bool { return c.v("HSTORE", x, "tps") < shared(x) })
		})
}

// e11Batch and e11Batches are E11's DORA row: QSTORE drains 8 partition
// queues, one owner each, batch after batch of e11Batch transactions.
const e11Batch, e11Batches = 256, 256

// e11Sweep compares data-oriented execution — partition owners draining
// queues under the pass-through QSTORE protocol, harness.RunDet — against
// thread-to-transaction on the same read-modify-write transactions under
// skew.
func e11Sweep(a common) sweep {
	ycfg := workload.YCSBConfig{Records: ycsbRecords(a.quick), OpsPerTxn: 4, ReadRatio: 0}
	execs, thetas := []string{"DORA", "t2t/NO_WAIT", "t2t/SILO"}, []float64{0.6, 0.95}
	return gridSweep("e11", "E11: RMW tps, 8 partitions, data-oriented (DORA) vs thread-to-transaction", [2]string{"execution", "theta"},
		execs, thetas, map[string]interface{}{"ycsb": ycfg, "workers": 8, "dora_batch": e11Batch, "dora_batches": e11Batches}, runCols,
		func(ex string, theta float64) (map[string]metric, error) {
			y := ycfg
			y.Theta = theta
			if ex == "DORA" {
				r, err := harness.RunDet(core.Config{Partitions: 8}, workload.NewYCSB(y), harness.RunOptions{Seed: a.Seed},
					harness.DetOptions{Batch: e11Batch, Batches: e11Batches, WarmupBatches: 4})
				return runMetrics(r), err
			}
			return a.measure(core.Config{Protocol: strings.TrimPrefix(ex, "t2t/"), Threads: 8, Partitions: 8}, workload.NewYCSB(y), 8)
		},
		func(s *sweepRun, c cells) {
			s.check("dora_aborts_zero", all(thetas, func(x float64) bool { return c.v("DORA", x, "aborts") == 0 }),
				"DORA conflict aborts: %.0f at theta 0.6, %.0f at 0.95", c.v("DORA", 0.6, "aborts"), c.v("DORA", 0.95, "aborts"))
			s.targetAt("dora_over_t2t_target", "DORA is above both thread-to-transaction engines", thetas,
				func(x float64) bool { return c.top(execs, x, "tps") == "DORA" })
			flat := c.v("DORA", 0.95, "tps") / c.v("DORA", 0.6, "tps")
			s.target("dora_flat_in_theta_target", flat >= 0.8 && flat <= 1.25,
				"DORA tps at theta 0.95 is %.2f of theta 0.6; target 0.8–1.25", flat)
		})
}

func e12Sweep(a common) sweep {
	var scanErr error
	return gridSweep("e12", "E12: YCSB tps by primary index kind, SILO, 4 threads, theta=0.4", [2]string{"index", "scans"},
		[]string{"hash", "btree"}, []float64{0, 0.5}, map[string]interface{}{"records": ycsbRecords(a.quick), "theta": 0.4, "protocol": "SILO", "threads": 4}, runCols,
		func(index string, scans float64) (map[string]metric, error) {
			y := workload.YCSBConfig{Records: ycsbRecords(a.quick), Theta: 0.4, OpsPerTxn: 16, ReadRatio: 0.5}
			switch {
			case index == "hash" && scans > 0:
				scanErr = hashScan() // the cell E12 has no row for
				return nil, nil
			case scans > 0:
				y.OpsPerTxn, y.ReadRatio, y.ScanFraction, y.ScanLength = 4, 0.8, scans, 50
			case index == "btree":
				y.ScanFraction = 1e-6 // any scan fraction above zero makes the primary a B+ tree
			}
			return a.measure(core.Config{Protocol: "SILO", Threads: 4}, workload.NewYCSB(y), 4)
		},
		func(s *sweepRun, c cells) {
			s.check("hash_rejects_scans", errors.Is(scanErr, core.ErrInvalidUsage), "a scan over a hash primary: %v", scanErr)
			s.target("hash_wins_points_target", c.v("hash", 0, "tps") > c.v("btree", 0, "tps"),
				"point ops: hash %.0f, btree %.0f tps", c.v("hash", 0, "tps"), c.v("btree", 0, "tps"))
		})
}

// hashScan runs a range scan over a hash primary.
func hashScan() error {
	e, err := core.Open(core.Config{Protocol: "SILO", Threads: 1})
	if err != nil {
		return err
	}
	defer e.Close()
	sch := storage.MustSchema("kv", storage.I64("v"))
	tbl, err := e.CreateTable(sch, core.IndexHash)
	if err != nil {
		return err
	}
	return e.NewTx(0, 1).Run(func(tx *core.Tx) error {
		return tx.Scan(tbl, 0, 10, func(uint64, storage.Row) bool { return true })
	})
}

func e14Sweep(a common) sweep {
	ycfg := workload.YCSBConfig{Records: ycsbRecords(a.quick), OpsPerTxn: 16, ReadRatio: 0.5, Theta: 0.9, InterleaveOps: true}
	return gridSweep("e14", "E14: YCSB on MVCC by isolation level, theta=0.9, 8 threads", [2]string{"isolation", "theta"},
		[]string{cc.IsoSerializable, cc.IsoSnapshot, cc.IsoReadCommitted}, []float64{0.9},
		map[string]interface{}{"ycsb": ycfg, "protocol": "MVCC", "threads": 8}, runCols,
		func(iso string, _ float64) (map[string]metric, error) {
			return a.measure(core.Config{Protocol: "MVCC", Threads: 8, Isolation: iso}, workload.NewYCSB(ycfg), 8)
		},
		func(s *sweepRun, c cells) {
			ser, si := c.v(cc.IsoSerializable, 0.9, "tps"), c.v(cc.IsoSnapshot, 0.9, "tps")
			s.target("snapshot_tps_gain_target", si >= 1.15*ser,
				"snapshot %.0f tps is %+.0f%% over serializable %.0f; target +15%%", si, 100*(si/ser-1), ser)
			rc, sa := c.v(cc.IsoReadCommitted, 0.9, "abort_rate"), c.v(cc.IsoSerializable, 0.9, "abort_rate")
			s.target("read_committed_sheds_aborts_target", rc < sa, "abort rate: read-committed %.3f, serializable %.3f", rc, sa)
		})
}
