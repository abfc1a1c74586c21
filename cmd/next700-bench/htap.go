package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"next700/internal/core"
	"next700/internal/stats"
	"next700/internal/storage"
)

// e15Sweep is the HTAP extension experiment: one analytical worker
// repeatedly scans and aggregates the whole table while OLTP workers update
// hot rows. The question the keynote raises — can fresh data be analyzed
// without strangling the transactional side? — becomes a concrete
// comparison: multi-version reads let scans run against a consistent
// snapshot without blocking or aborting writers, single-version lock-based
// scans serialize against them, and OCC scans abort when any scanned row
// moves.
func e15Sweep(a common) sweep {
	const oltpWorkers = 3
	records := uint64(16 * 1024)
	if a.quick {
		records = 4 * 1024
	}
	configs := []string{"MVCC/serializable", "MVCC/snapshot", "NO_WAIT", "WAIT_DIE", "SILO", "TICTOC"}
	return gridSweep("e15", fmt.Sprintf("E15: HTAP, full-table scans concurrent with OLTP updates (%d writers + 1 scanner)", oltpWorkers),
		[2]string{"protocol", "records"}, configs, []float64{float64(records)},
		map[string]interface{}{"oltp_workers": oltpWorkers, "scanners": 1, "hot_fraction": 1.0 / 16},
		[]string{"oltp_tps", "oltp_abort_rate", "scans_per_s", "scan_p99_ms", "scan_abort_rate"},
		func(name string, _ float64) (map[string]metric, error) {
			proto, iso, _ := strings.Cut(name, "/")
			return runHTAPCell(core.Config{Protocol: proto, Isolation: iso, Threads: oltpWorkers + 1}, records, a.Duration, oltpWorkers)
		},
		func(s *sweepRun, c cells) {
			v := func(name, metric string) float64 { return c.v(name, float64(records), metric) }
			// seen is each configuration's OLTP tps and aborts and its scan aborts.
			seen := func(names ...string) (d string) {
				for _, n := range names {
					d += fmt.Sprintf("%s %.0f tps, aborts %.3f, scan aborts %.3f; ", n, v(n, "oltp_tps"), v(n, "oltp_abort_rate"), v(n, "scan_abort_rate"))
				}
				return d
			}
			snap := v("MVCC/snapshot", "oltp_tps")
			s.target("mvcc_serves_both_sides_target", all(configs[:2], func(n string) bool { return v(n, "scan_abort_rate") == 0 && v(n, "oltp_abort_rate") < 0.01 }),
				"MVCC scans never abort and its writers abort < 1%%: %s", seen(configs[:2]...))
			s.target("lock_scans_unstable_target", all(configs[2:4], func(n string) bool { return v(n, "scan_abort_rate") > 0 || v(n, "oltp_tps") < snap/10 }),
				"lock-based scans abort or starve writers below 10%% of MVCC/snapshot's: %s", seen(configs[2:4]...))
			s.target("occ_sacrifices_scans_target", all(configs[4:], func(n string) bool { return v(n, "scan_abort_rate") > 0 && v(n, "oltp_tps") > snap }),
				"OCC writers outrun MVCC/snapshot's %.0f tps and their scans abort: %s", snap, seen(configs[4:]...))
		})
}

// runHTAPCell loads records rows and runs oltpWorkers hot-row writers beside
// one full-table scanner for duration.
func runHTAPCell(cfg core.Config, records uint64, duration time.Duration, oltpWorkers int) (map[string]metric, error) {
	e, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	defer e.Close()

	sch := storage.MustSchema("facts", storage.I64("v"))
	tbl, err := e.CreateTable(sch, core.IndexBTree)
	if err != nil {
		return nil, err
	}
	row := sch.NewRow()
	for k := uint64(0); k < records; k++ {
		sch.SetInt64(row, 0, 1)
		if err := e.Load(tbl, k, row); err != nil {
			return nil, err
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	counters := make([]stats.Counter, oltpWorkers+1) // the last is the scanner's
	scanHist := stats.NewHistogram()
	for w := range counters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := e.NewTx(w, uint64(w+1))
			for !stop.Load() {
				if w < oltpWorkers {
					// Short RMW transactions over a hot prefix.
					k := tx.RNG().Uint64n(records / 16)
					tx.Run(func(tx *core.Tx) error {
						r, err := tx.Update(tbl, k)
						if err == nil {
							sch.SetInt64(r, 0, sch.GetInt64(r, 0)+1)
						}
						return err
					})
					continue
				}
				// The analytical worker: a full-table aggregation per transaction.
				t0 := time.Now()
				tx.Run(func(tx *core.Tx) error {
					var sum int64
					return tx.Scan(tbl, 0, records, func(_ uint64, r storage.Row) bool {
						sum += sch.GetInt64(r, 0)
						return true
					})
				})
				scanHist.RecordDuration(time.Since(t0))
			}
			counters[w] = *tx.Counter()
		}()
	}
	start := time.Now()
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	var oltp stats.Counter
	for i := range counters[:oltpWorkers] {
		oltp.Add(&counters[i])
	}
	scanCounter := counters[oltpWorkers]
	return map[string]metric{
		"oltp_tps":        perSec(float64(oltp.Commits) / elapsed),
		"oltp_abort_rate": ratio(oltp.AbortRate()),
		"scans_per_s":     perSec(float64(scanCounter.Commits) / elapsed),
		"scan_p99_ms":     ms(time.Duration(scanHist.Percentile(99))),
		"scan_abort_rate": ratio(scanCounter.AbortRate()),
	}, nil
}
